"""Shared independent oracles and fixed test matrices, and `block_indices`,
the scan kernel's full read of a block for the kernel tests."""

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from orddensity.arith import (
    FactoredRational,
    ResourceCapError,
    euler_phi,
    factor_p_minus_1,
    kronecker,
    moebius,
    prime_list,
)
from orddensity.cyclo import (
    RadicalValue,
    conductor,
    fixed_by,
    quadratic_discriminant,
    radical_product,
)
from orddensity.density import (
    DensityResult,
    IndexFixed,
    IndexSet,
    _order_blocks,
    _scaled_tail,
    _tail_grids,
)
from orddensity.empirical import _q_parts, _two_pairs
from orddensity.kummer import (
    DEFAULT_CACHE,
    FieldSpec,
    _abelian_box,
    _witnesses,
    exponent_minor_gcd,
)


def lies_in_cyclotomic(v: RadicalValue, M: int) -> bool:
    """True iff the radical value lies in Q(zeta_M): its conductor divides M."""
    if M < 1:
        raise ValueError("M must be positive")
    return M % v.conductor() == 0


# Exponent-map helpers of the power oracle.


def divisible(q: FactoredRational, k: int) -> bool:
    """True when every exponent of q is a multiple of k."""
    return all(e % k == 0 for _, e in q.factors)


def abs_(q: FactoredRational) -> FactoredRational:
    return FactoredRational(1, q.factors)


def root(q: FactoredRational, k: int) -> FactoredRational:
    """Exact k-th root; exponents must be divisible by k (sign needs odd k)."""
    if not divisible(q, k):
        raise ValueError("exponents not divisible, no exact root")
    if q.sign < 0 and k % 2 == 0:
        raise ValueError("even root of a negative rational")
    return FactoredRational(q.sign, tuple((p, e // k) for p, e in q.factors))


def signed_squarefree_part(q) -> tuple[int, int, FactoredRational]:
    """Write q = sign * s^2 * d with d squarefree positive, s positive rational."""
    q = FactoredRational.of(q)
    d = 1
    s_exps: dict[int, int] = {}
    for p, e in q.factors:
        if e % 2:
            d *= p
            e -= 1
        if e:
            s_exps[p] = e // 2
    return q.sign, d, FactoredRational.from_map(1, s_exps)


# Power-in-cyclotomic oracle: decides membership by a Galois character loop
# over the root-of-unity candidates, a code path separate from the package's
# conductor rule in `RadicalValue.conductor`.

# The loop runs over (Z/L)^x; L stays desk-scale for every tested case.
_CHAR_LOOP_CAP = 10**8


def _zeta_sqrt_in_cyclotomic(zorder: int, zexp: int, d: int, M: int) -> bool:
    """Is zeta_zorder^zexp * sqrt(d) in Q(zeta_M)?

    Galois test: the value lies in Q(zeta_L) with L = lcm(zorder, cond(d), M),
    and membership in Q(zeta_M) means every sigma_c with c = 1 (mod M) fixes
    it, i.e. zeta^(zexp*(c-1)) * chi_d(c) = 1.
    """
    disc = quadratic_discriminant(d)
    L = math.lcm(zorder, abs(disc), M)
    if L > _CHAR_LOOP_CAP:
        raise ResourceCapError(f"character loop modulus {L} too large")
    for c in range(1, L + 1, M):
        if math.gcd(c, L) != 1:
            continue
        z = zexp * (c - 1) % zorder
        chi = kronecker(disc, c)
        if not ((z == 0 and chi == 1) or (2 * z == zorder and chi == -1)):
            return False
    return True


def is_power_in_cyclotomic(q, n: int, M: int) -> bool:
    """Decide whether the rational q is an n-th power in Q(zeta_M).

    Split n = 2^e * u with u odd.  The odd part forces a rational u-th root
    (exponent vector divisible by u, sign preserved).  For the 2-part the
    normal form requires |q| = t^(2^e) * d^(2^(e-1)) with d squarefree; then
    q is a 2^e-th power iff some zeta_(2^(e+1))^j * sqrt(d) with (-1)^j equal
    to the sign of q lies in Q(zeta_M).
    """
    if n < 1 or M < 1:
        raise ValueError("need n >= 1 and M >= 1")
    q = FactoredRational.of(q)
    u = n
    e = 0
    while u % 2 == 0:
        u //= 2
        e += 1
    if not divisible(q, u):
        return False
    q0 = root(q, u)
    if e == 0:
        return True
    half = 1 << (e - 1)
    if not divisible(q0, half):
        return False
    h = root(abs_(q0), half)
    _, d, _ = signed_squarefree_part(h)
    zorder = 1 << (e + 1)
    start = 0 if q0.sign == 1 else 1
    for j in range(start, zorder, 2):
        if _zeta_sqrt_in_cyclotomic(zorder, j, d, M):
            return True
    return False


# (q, n, M) triples where q is an n-th power in Q(zeta_M): rational powers,
# quadratic conductors, scaled square roots, and higher two-power radicals.
TRUE_POWER_TRIPLES = [
    (Fraction(4), 2, 1),
    (Fraction(8), 3, 1),
    (Fraction(16), 4, 3),
    (Fraction(27), 3, 4),
    (Fraction(9), 2, 5),
    (Fraction(25), 2, 7),
    (Fraction(64), 6, 5),
    (Fraction(-8), 3, 1),
    (Fraction(-27), 3, 8),
    (Fraction(-32), 5, 3),
    (Fraction(9, 4), 2, 1),
    (Fraction(8, 27), 3, 7),
    (Fraction(-1, 8), 3, 5),
    (Fraction(36), 2, 11),
    (Fraction(100), 2, 13),
    (Fraction(2), 2, 8),
    (Fraction(-2), 2, 8),
    (Fraction(3), 2, 12),
    (Fraction(-3), 2, 3),
    (Fraction(5), 2, 5),
    (Fraction(-5), 2, 20),
    (Fraction(6), 2, 24),
    (Fraction(-6), 2, 24),
    (Fraction(7), 2, 28),
    (Fraction(-7), 2, 7),
    (Fraction(10), 2, 40),
    (Fraction(-10), 2, 40),
    (Fraction(13), 2, 13),
    (Fraction(-11), 2, 11),
    (Fraction(15), 2, 60),
    (Fraction(-15), 2, 15),
    (Fraction(-1), 2, 4),
    (Fraction(-13), 2, 52),
    (Fraction(17), 2, 17),
    (Fraction(21), 2, 21),
    (Fraction(8), 2, 8),
    (Fraction(18), 2, 8),
    (Fraction(12), 2, 12),
    (Fraction(50), 2, 8),
    (Fraction(75), 2, 12),
    (Fraction(5, 4), 2, 5),
    (Fraction(2, 9), 2, 8),
    (Fraction(3, 2), 2, 24),
    (Fraction(-3, 4), 2, 3),
    (Fraction(20), 2, 5),
    (Fraction(45), 2, 5),
    (Fraction(-4), 4, 4),
    (Fraction(16), 8, 8),
    (Fraction(-16), 8, 16),
    (Fraction(4), 4, 8),
    (Fraction(64), 4, 8),
    (Fraction(256), 8, 8),
    (Fraction(1, 4), 4, 8),
    (Fraction(-64), 4, 8),
    (Fraction(81), 4, 12),
    (Fraction(16, 81), 8, 24),
]

# (q, n, M) triples where q is NOT an n-th power in Q(zeta_M)
FALSE_POWER_TRIPLES = [
    (Fraction(2), 2, 4),
    (Fraction(2), 2, 12),
    (Fraction(3), 2, 8),
    (Fraction(2), 3, 9),
    (Fraction(5), 2, 8),
    (Fraction(-2), 2, 4),
    (Fraction(7), 2, 7),
    (Fraction(6), 2, 8),
    (Fraction(-1), 2, 3),
    (Fraction(4), 4, 4),
    (Fraction(3, 2), 2, 8),
]


def is_nth_power_residue(q: Fraction, n: int, p: int) -> bool:
    """Brute criterion: q mod p lies in the image of x -> x^n on (Z/p)^x."""
    num, den = q.numerator, q.denominator
    if num % p == 0 or den % p == 0:
        raise ValueError("p divides q")
    val = num * pow(den, -1, p) % p
    g = math.gcd(n, p - 1)
    return pow(val, (p - 1) // g, p) == 1


def residue_check_fraction(
    qs: Sequence[Fraction], ns: Sequence[int], M: int, x: int
) -> tuple[int, int]:
    """(#p <= x with p = 1 mod M where every qs[i] is an ns[i]-th power
    residue, #such p), over the p dividing no numerator or denominator."""
    hit = total = 0
    for p in prime_list(x):
        p = int(p)
        if (p - 1) % M or any(q.numerator * q.denominator % p == 0 for q in qs):
            continue
        total += 1
        if all(is_nth_power_residue(q, n, p) for q, n in zip(qs, ns)):
            hit += 1
    return hit, total


@functools.lru_cache(maxsize=1 << 15)  # brute_scans of specs sharing an alpha
def trial_order(a: int, p: int) -> int:
    """Least divisor d of p - 1 with a^d = 1 (mod p); divisors by trial division."""
    n = p - 1
    divs = sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})
    for d in divs:
        if pow(a, d, p) == 1:
            return d
    raise ValueError(f"{a} is not a unit mod {p}")


def artin_euler_product(limit=10**6) -> float:
    """prod_{p <= limit} (1 - 1/(p(p - 1))), Artin's constant truncated."""
    prod = 1.0
    for p in prime_list(limit):
        p = float(p)
        prod *= 1.0 - 1.0 / (p * (p - 1.0))
    return prod


def block_indices(primes: np.ndarray, alphas: Sequence[FactoredRational], plans) -> np.ndarray:
    """prod_q q^min(v_q(ind), cap_q) for ind = ind_p(alpha), shape
    (len(alphas), n): the scan kernel's _q_parts on every pair of p - 1 of a
    block of consecutive primes, one q-part plan per alpha (_FULL_PLAN reads
    the whole index).  Like the scan, it passes the 2-pairs and the odd pairs
    in two stages.  Not an oracle: the kernel tests check it against
    trial-division orders."""
    stages = _two_pairs(primes), factor_p_minus_1(primes, np.arange(primes.size))
    ind = np.ones((len(alphas), primes.size), dtype=np.int64)
    for out, alpha, plan in zip(ind, alphas, plans):
        for pairs in stages:
            _q_parts(out, primes, pairs, alpha, plan, np.ones(pairs[0].size, dtype=bool))
    return ind


def brute_scan(alphas, mode: str, params, frobenius, x: int):
    """Prime-by-prime reference for scan_many with checkpoints, written from
    the definitions: (matched, considered, [(x_k, matched, considered), ...]).

    alphas are Fractions; mode is "index" (params = targets t_i), "order"
    (params = (a_i, d_i) pairs) or "indexset" (params = ("finite", values) or
    ("ap", a, d) per alpha); frobenius is None or (f, residues)."""
    # a divisor of a nonzero n is at most |n|
    nd = [abs(q.numerator * q.denominator) for q in alphas]
    bad = {p for n in nd for p in range(2, min(x, n) + 1) if n % p == 0}
    if frobenius is not None:
        bad |= {p for p in range(2, min(x, frobenius[0]) + 1) if frobenius[0] % p == 0}
    thresholds = []
    t = x // 2
    while t >= 4:
        thresholds.append(t)
        t //= 2
    thresholds = sorted(thresholds) + [x]
    rows = []  # (p, matched)
    for p in prime_list(x):
        p = int(p)
        if p in bad:
            continue
        if frobenius is not None and p % frobenius[0] not in frobenius[1]:
            rows.append((p, False))
            continue
        inds = [
            (p - 1) // trial_order(q.numerator * pow(q.denominator, -1, p) % p, p)
            for q in alphas
        ]
        if mode == "index":
            ok = all(i == t for i, t in zip(inds, params))
        elif mode == "order":
            ok = all(((p - 1) // i) % d == a % d for i, (a, d) in zip(inds, params))
        else:
            ok = all(
                i in s[1] if s[0] == "finite" else i % s[2] == s[1] % s[2]
                for i, s in zip(inds, params)
            )
        rows.append((p, ok))
    checkpoints = [
        (t, sum(ok for p, ok in rows if p <= t), sum(1 for p, _ in rows if p <= t))
        for t in thresholds
    ]
    return checkpoints[-1][1], checkpoints[-1][2], checkpoints


def full_box_relations(spec) -> set:
    """Every exponent tuple of prod range(m_i) whose radical product has the
    normal form and lies in Q(zeta_M): the relation group without the
    package's bound on where its members can be."""
    out = set()
    for e in itertools.product(*(range(mi) for mi in spec.m)):
        value = radical_product(spec.alphas, spec.m, e)
        if value is not None and lies_in_cyclotomic(value, spec.M):
            out.add(e)
    return out


@dataclass(frozen=True)
class RelationGroup:
    """Subgroup of prod Z/m_i of exponent tuples whose radical product lies in
    the cyclotomic base.  `members` maps each tuple, in lexicographic order,
    to its witnessing value; the zero tuple has no witness (None)."""

    moduli: tuple[int, ...]
    members: dict[tuple[int, ...], Optional[RadicalValue]]


def relation_group(spec) -> RelationGroup:
    """All exponent tuples whose radical product lies in Q(zeta_M), each
    nonzero one with that product as witness, read off the minor box of the
    `kummer` docstring: every call enumerates the box that `DegreeCache`
    keeps per alpha tuple."""
    two_delta = 2 * exponent_minor_gcd(spec.alphas)
    sides = tuple(math.gcd(mi, two_delta) for mi in spec.m)
    members: dict[tuple[int, ...], Optional[RadicalValue]] = {(0,) * len(sides): None}
    for k, value, cond in _abelian_box(spec.alphas, sides):
        if spec.M % cond == 0:
            members[tuple(ki * mi // g for ki, mi, g in zip(k, spec.m, sides))] = value
    return RelationGroup(spec.m, members)


# Per-unit automorphism counter, the reference for the series' array counter
# `density._one_candidate`: it walks the candidate units of one field and
# tests each on the field's witnesses.


def count_automorphisms(
    spec: FieldSpec,
    fix_level: int,
    congruences: Sequence[tuple[int, int]] = (),
    frobenius: Optional[tuple[int, frozenset[int] | set[int]]] = None,
) -> int:
    """Count units c of Z/M with c = 1 (mod fix_level), every congruence
    satisfied, c mod f in C when a Frobenius class set is given, and the
    witness of every nonzero member of the relation group fixed by sigma_c.
    No generating set is needed: sigma_c is multiplicative and fixes Q^x,
    so it fixes every member exactly when it fixes a set of generators.

    Each counted c corresponds to exactly one automorphism of the field that
    restricts to the identity on Q(zeta_fix_level, radicals).  Inconsistent
    congruence systems count zero; they are not an error.
    """
    levels = [fix_level, *(mod for _, mod in congruences)]
    if frobenius is not None:
        levels.append(frobenius[0])
    for level in levels:
        if level < 1 or spec.M % level:
            raise ValueError("spec.M must be a common multiple of all levels, each >= 1")
    witnesses = _witnesses(DEFAULT_CACHE.view(spec.alphas), spec.m, spec.M)
    return _count_units(spec.M, fix_level, congruences, frobenius, witnesses)


def _count_units(
    W: int,
    fix_level: int,
    congruences: Sequence[tuple[int, int]],
    frobenius: Optional[tuple[int, frozenset[int] | set[int]]],
    witnesses: list[RadicalValue],
) -> int:
    """`count_automorphisms` for the field of level W whose relation group has
    the given witnesses, every level already known to divide W.  The unit
    c = 1 acts as sigma_1, the identity, so it counts without a test of the
    witnesses.  sympy's `solve_congruence` merges the congruences, so the
    oracle shares no CRT code with the series."""
    from sympy.ntheory.modular import solve_congruence

    merged = solve_congruence((1, fix_level), *((r % mod, mod) for r, mod in congruences))
    if merged is None:
        return 0
    rho, mu = merged
    if math.gcd(rho, mu) != 1:
        return 0
    if frobenius is not None:
        f, classes = frobenius[0], {x % frobenius[0] for x in frobenius[1]}
    count = 0
    start = rho if rho >= 1 else mu
    for c in range(start, W + 1, mu):
        if math.gcd(c, W) != 1:
            continue
        if frobenius is not None and c % f not in classes:
            continue
        # fixed_by acts on Q(zeta_L), L = lcm(zeta order, conductor(d), W); a
        # witness's conductor divides W, so only 2 can divide L and not W
        lifted = c if c % 2 else c + W
        if lifted == 1 or all(fixed_by(lifted, w, W) for w in witnesses):
            count += 1
    return count


def brute_unit_count(spec, fix_level: int, congruences, frobenius) -> int:
    """`count_automorphisms` by walking every c in [1, M] coprime to
    M: c = 1 (mod fix_level) and each congruence are tested on their own, with
    no CRT, then the Frobenius class, then sigma_c on every witness of the
    uncached `relation_group`.  sigma_c acts on Q(zeta_L) with L the lcm of M
    and the witness's own levels; c is lifted to the first c + k M prime to
    L, which acts like c on Q(zeta_M), where the witness lies."""
    M = spec.M
    witnesses = [w for w in relation_group(spec).members.values() if w is not None]
    count = 0
    for c in range(1, M + 1):
        if math.gcd(c, M) != 1 or (c - 1) % fix_level:
            continue
        if any((c - residue) % mod for residue, mod in congruences):
            continue
        if frobenius is not None:
            f, classes = frobenius
            if all((c - x) % f for x in classes):
                continue
        fixed = True
        for w in witnesses:
            L = math.lcm(w.zeta_order, conductor(w.d), M)
            lifted = next(c + k * M for k in range(L) if math.gcd(c + k * M, L) == 1)
            fixed = fixed and fixed_by(lifted, w, M)
        count += fixed
    return count


def scalar_series(spec, nmax: int, tmax: int) -> DensityResult:
    """`density.evaluate` one term at a time, with its term log: the same
    blocks and term order, each degree phi(M) * prod(m_i) / |Rel| straight
    from `_abelian_box` and `euler_phi`, every count from `_count_units`
    (count-one blocks included), and the nonzero quotients of Python's
    int / int added by `math.fsum`, correctly rounded, independent of term
    order."""
    mode, order = spec.mode, None
    caps = (nmax, tmax)
    tail_caps = [nmax] * spec.rank
    if isinstance(mode, IndexFixed):
        blocks = [(mode.T, (), 1)]
        caps = (nmax, 0)
    elif isinstance(mode, IndexSet):
        blocks = ((T, (), 1) for T in itertools.product(*(s.upto(tmax) for s in mode.S)))
        tail_caps += [tmax for s in mode.S if s.truncated_above(tmax)]
    else:
        blocks = _order_blocks(tuple(a % d for a, d in zip(mode.a, mode.d)), mode.d, tmax)
        tail_caps += [tmax] * spec.rank
        order = mode
    grids = _tail_grids(tail_caps)
    frobenius = spec.frobenius
    f = frobenius[0] if frobenius else 1
    sf = [n for n in range(1, nmax + 1) if moebius(n)]
    if order is None:
        ns = [sf] * spec.rank
    else:
        ns = [[n for n in sf if a % math.gcd(d, n) == 0] for a, d in zip(order.a, order.d)]
    two_delta = 2 * exponent_minor_gcd(spec.alphas)
    boxes: dict = {}
    log: list = []
    b_seen = 1
    for T, congruences, extra_level in blocks:
        level = math.lcm(extra_level, f)
        for N in itertools.product(*ns):
            m = [n * t for n, t in zip(N, T)]
            v = math.lcm(*m)
            M = math.lcm(v, level)
            sides = tuple(math.gcd(mi, two_delta) for mi in m)
            if sides not in boxes:
                boxes[sides] = _abelian_box(spec.alphas, sides)
            witnesses = [value for _, value, cond in boxes[sides] if M % cond == 0]
            fail = 1 + len(witnesses)
            degree = euler_phi(M) * math.prod(m) // fail
            count = _count_units(M, v, congruences, frobenius, witnesses)
            b_seen = math.lcm(b_seen, fail)
            mu = math.prod(map(moebius, N))
            log.append({"N": N, "T": T, "mu": mu, "c": count, "degree": degree})
    value = math.fsum(row["mu"] * row["c"] / row["degree"] for row in log if row["c"])
    return DensityResult(value, len(log), caps, _scaled_tail(grids, b_seen), log)


def phi_lcm_marginal(r: int, cap: int) -> list[Fraction]:
    """H[a] for a = 0..cap as exact Fractions: the sum over n_2..n_r <= cap
    of 1 / (n_2 ... n_r * phi(lcm(a, n_2, ...))), with the tuples grouped by
    their lcm and phi taken of each lcm directly."""
    by_lcm: dict[int, Fraction] = {}
    for tup in itertools.product(range(1, cap + 1), repeat=r - 1):
        m = math.lcm(*tup)
        by_lcm[m] = by_lcm.get(m, Fraction(0)) + Fraction(1, math.prod(tup))
    return [Fraction(0)] + [
        sum(w / euler_phi(math.lcm(a, m)) for m, w in by_lcm.items())
        for a in range(1, cap + 1)
    ]


def inverse_n_phi_sum() -> float:
    """sum over n >= 1 of 1 / (n * phi(n)) as its Euler product
    prod_p (1 + p / ((p - 1)^2 (p + 1))) over the primes p <= 10^6, sieved
    here.  Each factor past the limit is below 1 + 2/p^2, so together they
    change the product by less than 5/limit."""
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    product = 1.0
    for p in itertools.compress(range(limit + 1), sieve):
        product *= 1.0 + p / ((p - 1) ** 2 * (p + 1))
    return product


# Deterministic Miller-Rabin witness set, valid far beyond 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit-scale inputs."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
