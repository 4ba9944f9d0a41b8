"""Truncated density series for primes with prescribed multiplicative order
or index conditions on a list of rationals, with truncation bookkeeping and
heuristic tail bounds.

Three condition modes on alpha_1..alpha_r independent as a whole, with no
k != 0 making prod alpha_i^(k_i) = +-1 (pairwise is not enough: 2, 3, 6):

  * OrderAP:     ord_p(alpha_i) = a_i (mod d_i) for every i,
  * IndexFixed:  ind_p(alpha_i) = t_i exactly,
  * IndexSet:    ind_p(alpha_i) lies in a set S_i (finite or a progression),

optionally refined by a Frobenius condition p mod f in C.  Each series term
is mu-weighted inclusion-exclusion over "n_i t_i divides the index" events,
evaluated through exact cyclotomic-Kummer degrees and automorphism counts.
Order conditions reduce to index conditions: ord = a (mod d) with ind = t is
the congruence p = 1 + a t (mod d t), which becomes a root-of-unity action.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .arith import FactoredRational, as_int, factorize, moebius, phi_sieve
from .eulerseries import phi_lcm_tail
from .kummer import DEFAULT_CACHE, AlphaBoxes, DegreeCache, exponent_minor_gcd, field_degree

DEFAULT_NMAX = 64
DEFAULT_TMAX = 64


# ---------------------------------------------------------------------------
# condition specifications


@dataclass(frozen=True)
class SetDescriptor:
    """A set of admissible index values: finite list or progression
    {k >= 1 : k = a (mod d)}."""

    kind: str  # "finite" | "ap"
    values: tuple[int, ...] = ()
    a: int = 0
    d: int = 1

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(as_int, self.values)))
        object.__setattr__(self, "a", as_int(self.a))
        object.__setattr__(self, "d", as_int(self.d))
        if self.kind == "finite":
            vals = self.values
            if not vals or vals[0] < 1 or any(x >= y for x, y in zip(vals, vals[1:])):
                raise ValueError("finite index set needs sorted distinct positive integers")
        elif self.kind == "ap":
            if self.d < 1:
                raise ValueError("progression modulus must be >= 1")
            if not 0 <= self.a < self.d:
                raise ValueError("progression residue must lie in [0, d)")
        else:
            raise ValueError(f"unknown index set kind {self.kind!r}")

    @staticmethod
    def finite(values: Sequence[int]) -> "SetDescriptor":
        return SetDescriptor("finite", values=tuple(sorted(set(map(as_int, values)))))

    @staticmethod
    def progression(a: int, d: int) -> "SetDescriptor":
        a, d = as_int(a), as_int(d)
        if d < 1:
            raise ValueError("progression modulus must be >= 1")
        return SetDescriptor("ap", a=a % d, d=d)

    def upto(self, tmax: int) -> list[int]:
        if self.kind == "finite":
            return [v for v in self.values if v <= tmax]
        start = self.a if self.a >= 1 else self.d
        return list(range(start, tmax + 1, self.d))

    def truncated_above(self, tmax: int) -> bool:
        if self.kind == "finite":
            return any(v > tmax for v in self.values)
        return True


@dataclass(frozen=True)
class OrderAP:
    a: tuple[int, ...]
    d: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(map(as_int, self.a)))
        object.__setattr__(self, "d", tuple(map(as_int, self.d)))


@dataclass(frozen=True)
class IndexFixed:
    T: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "T", tuple(map(as_int, self.T)))


@dataclass(frozen=True)
class IndexSet:
    S: tuple[SetDescriptor, ...]


Mode = Union[OrderAP, IndexFixed, IndexSet]


def multiplicatively_independent(alphas: Sequence[FactoredRational]) -> bool:
    """True when the alphas generate a multiplicative group of full rank."""
    return exponent_minor_gcd(tuple(alphas)) != 0


@dataclass(frozen=True)
class ConditionSpec:
    """Condition data: the alphas, the per-alpha mode, optional Frobenius
    class set (level f, residues C in (Z/f)^x)."""

    alphas: tuple[FactoredRational, ...]
    mode: Mode
    frobenius: Optional[tuple[int, frozenset[int]]] = None

    def __post_init__(self):
        r = len(self.alphas)
        if r < 1:
            raise ValueError("need at least one alpha")
        for a in self.alphas:
            if not a.factors:
                raise ValueError("alpha must not be 0 or a unit (1, -1)")
        if not multiplicatively_independent(self.alphas):
            raise ValueError("alphas must be multiplicatively independent")
        if isinstance(self.mode, OrderAP):
            if len(self.mode.a) != r or len(self.mode.d) != r:
                raise ValueError("order progression needs a_i, d_i per alpha")
            if any(d < 2 for d in self.mode.d):
                raise ValueError("order progression moduli must be >= 2")
        elif isinstance(self.mode, IndexFixed):
            if len(self.mode.T) != r or any(t < 1 for t in self.mode.T):
                raise ValueError("index targets must be positive, one per alpha")
        elif isinstance(self.mode, IndexSet):
            if len(self.mode.S) != r:
                raise ValueError("need one index set per alpha")
            if not all(isinstance(s, SetDescriptor) for s in self.mode.S):
                raise ValueError("index sets must be SetDescriptors")
        else:
            raise ValueError("unknown mode")
        if self.frobenius is not None:
            f, C = self.frobenius
            f = as_int(f)
            if f < 1 or not C:
                raise ValueError("Frobenius level must be >= 1 with nonempty classes")
            C = frozenset(as_int(c) % f for c in C)
            if any(math.gcd(c, f) != 1 for c in C):
                raise ValueError("Frobenius classes must be units mod f")
            object.__setattr__(self, "frobenius", (f, C))

    @staticmethod
    def make(alphas, mode: Mode, frobenius=None) -> "ConditionSpec":
        return ConditionSpec(tuple(map(FactoredRational.of, alphas)), mode, frobenius)

    @property
    def rank(self) -> int:
        return len(self.alphas)


@dataclass
class DensityResult:
    """Truncated series value with truncation bookkeeping."""

    value: float
    terms_evaluated: int
    caps: tuple[int, int]  # (Nmax, Tmax); Tmax = 0 for IndexFixed, whose one T has no cap
    tail_estimate: float
    per_term_log: Optional[list[dict]] = None


# ---------------------------------------------------------------------------
# tail bound


def _tail_grids(caps: Sequence[int]) -> list[float]:
    """The lcm-phi tail beyond each cap on the 4x extended grid.  ValueError
    for a cap below 1, ResourceCapError for one past phi_lcm_tail's rank-1
    cap."""
    return [phi_lcm_tail(1, cap, 4 * cap) for cap in caps]


def _scaled_tail(grids: Sequence[float], b_observed: int) -> float:
    """Heuristic bound for the mass outside the cap box: per truncated
    variable, its grid tail plus a 1/x extrapolation for the rest, times the
    observed failure bound.  Not rigorous: the O-constants are not explicit."""
    total = 0.0
    for grid in grids:
        total += b_observed * (grid + grid / 3.0)
    return total


# ---------------------------------------------------------------------------
# series evaluation


_Block = tuple[tuple[int, ...], tuple[tuple[int, int], ...], int]


def _order_blocks(a: tuple[int, ...], d: tuple[int, ...], tmax: int) -> Iterator[_Block]:
    """(T, congruences, L) for the admissible T: the r unit congruences
    c = 1 + a_i t_i (mod d_i t_i), as (residue, modulus) pairs, and their
    level L = lcm(d_i t_i).  T is admissible when no 1 + a_i t_i shares a
    prime with d_i and the system is solvable, which by the generalised CRT
    holds exactly when every two congruences agree modulo the gcd of their
    moduli; it then has one solution mod L, a unit.  The first test runs
    once per alpha and t, on the product's factors, which keeps its order."""
    choices = [
        [(t, ((1 + ai * t) % (di * t), di * t)) for t in range(1, tmax + 1)
         if math.gcd(1 + ai * t, di) == 1]
        for ai, di in zip(a, d)
    ]
    for picked in itertools.product(*choices):
        T, pairs = zip(*picked)
        if any((x - y) % math.gcd(m, n) for (x, m), (y, n) in itertools.combinations(pairs, 2)):
            continue
        yield T, pairs, math.lcm(*(m for _, m in pairs))


_CHUNK = 1024  # terms per array chunk; a rank-3 chunk peaks at about 130 KB of arrays
_EXACT = 2**53  # float64 holds every integer below this exactly


def _chunks(blocks: Iterable[_Block], size: int) -> Iterator[tuple[list[_Block], int, int]]:
    """The terms of the blocks, each block's product indices [0, size) in
    order, as runs (blocks, start, width) of at most _CHUNK terms: a run
    starts at index `start` of its first block and goes on through the
    blocks after it.  A run may hold many blocks, and a block may span many
    runs."""
    held: list[_Block] = []
    start = width = 0
    for block in blocks:
        held.append(block)
        at = 0
        while at < size:
            take = min(size - at, _CHUNK - width)
            at += take
            width += take
            if width == _CHUNK:
                yield held, start, width
                held, start, width = ([block], at, 0) if at < size else ([], 0, 0)
    if width:
        yield held, start, width


def _inverse(x, n):
    """x^-1 mod n per entry of the arrays x and n, each x prime to its n: the
    extended Euclidean algorithm on (n, x), stepped on every pair whose
    remainder is not yet zero.  It keeps a = s * x and b = t * x (mod n), so
    s * x = gcd = 1 when b reaches 0."""
    a, b = n, x % n
    s, t = np.zeros_like(n), np.ones_like(n)
    while (b != 0).any():
        step = b != 0
        q = a // np.where(step, b, 1)
        a, b = np.where(step, b, a), np.where(step, a - q * b, b)
        s, t = np.where(step, t, s), np.where(step, s - q * t, t)
    return s % n


def _one_candidate(view: AlphaBoxes, members: list, v, M, congruences: list):
    """The unit count of each term of a chunk, as int64: the units c of
    Z/M with c = 1 (mod v) that fix the values of the `members` the term
    holds, its witnesses, and meet `congruences`: pairs (classes, L),
    L an array of one modulus per term or an int, such as each of an order
    block's r progressions ([residue], d_i t_i), folded as they come, and a
    Frobenius condition (C, f).  A term's M = lcm(v, every L) is the CRT
    modulus of its congruences, so each choice of classes meets one c in
    [1, M] or none.  From c = 1 (mod v), each pair folds into c (mod mod):
    with g = gcd(mod, L) and n = L / g, c meets the class x when g | x - c, at
    c + mod * ((x - c) / g * (mod / g)^-1 % n), one inverse per pair.  Each
    candidate, made and tested one at a time, counts when it is prime to M
    and, lifted to the odd c or c + M, fixes every witness: one `view.fixes`
    gather per member, over the terms that hold it.  With no congruence the
    one candidate, c = 1, acts as sigma_1 and counts untested."""
    if not congruences:
        return np.ones(len(M), dtype=np.int64)

    def candidates(c, meets, mod, pairs):
        """(candidate, whether its classes meet) per choice of classes."""
        if not pairs:
            yield c, meets
            return
        (classes, L), *rest = pairs
        g = np.gcd(mod, L)
        n = L // g
        inverse = _inverse(mod // g, n)
        for x in classes:
            fold = c + mod * ((x - c) // g % n * inverse % n)
            yield from candidates(fold, meets & ((x - c) % g == 0), mod * n, rest)

    count = np.zeros(len(M), dtype=np.int64)
    for c, meets in candidates(1, True, v, congruences):
        meets &= np.gcd(c, M) == 1
        c = np.where(c % 2 == 1, c, c + M)
        for value, inside in members:
            meets[inside] &= view.fixes(value, c[inside])
        count += meets
    return count


def _terms(view: AlphaBoxes, blocks: Iterable[_Block], support: tuple, picks: list,
           fixed: set[int], frobenius, log: Optional[list]) -> Iterator[tuple]:
    """The (mu, count, degree, |Rel|) arrays of each run of _chunks, terms in
    block order and each block's N in itertools.product order, logged to
    `log` unless it is None.  `support` is ascending arrays of squarefree n,
    closed under divisors, with mu(n) and phi(n); alpha i takes its n_i from
    the entries picks[i], and `fixed` holds the primes every block's level
    adds to its T.  `_one_candidate` counts the units from an order block's
    r congruences, handed over as `_order_blocks` yields them, and then the
    Frobenius pair: M is the CRT modulus of a term's unit congruences, so
    each Frobenius class has at most one candidate.  A run holds int64 when
    its blocks' bound on phi(M) * prod(m_i) lies below 2^53, where float64
    converts every integer exactly, and Python ints otherwise."""
    n_of, mu_of, phi_of = support
    ns, mus = ([col[pick] for pick in picks] for col in (n_of, mu_of))
    sizes = [pick.size for pick in picks]
    size = math.prod(sizes)
    n_top = math.prod(int(ns_i.max()) for ns_i in ns)
    f = frobenius[0] if frobenius else 1
    primes: dict[int, set[int]] = {}

    def radical(T: tuple[int, ...]) -> tuple[int, int]:
        """(rad(T * level), its phi) of a block."""
        ps = set(fixed)
        for t in T:
            if t not in primes:
                primes[t] = {p for p, _ in factorize(t).factors}
            ps |= primes[t]
        return math.prod(ps), math.prod(p - 1 for p in ps)

    def columns(held: list[_Block], levels: list[int], start: int, width: int, dtype) -> tuple:
        """(block, m, mu, v, M, phi) of a run: each term's block in `held`,
        its radical indices m_i = n_i t_i, one array per alpha, its Moebius
        product, v = lcm(m), its level M = lcm(v, level) and phi(M).  The
        index arrays die on return, before the field lookup."""
        at = np.arange(start, start + width)
        block, idx = at // size, np.unravel_index(at % size, sizes)
        Ts = [T for T, _, _ in held]
        T_of = np.array(Ts, dtype=dtype)[block]
        n = [ns_i[k].astype(dtype) for ns_i, k in zip(ns, idx)]
        m = [n_i * T_of[:, i] for i, n_i in enumerate(n)]
        v = np.lcm.reduce(m)
        M = np.lcm(v, np.array(levels, dtype=dtype)[block])
        # phi(M) = M / R * phi(R) with R = rad(M) = lcm(n_1, ..., n_r,
        # rad(T * level)), as the n_i are squarefree; each step takes
        # phi(lcm(R, n)) = phi(R) phi(n / gcd(R, n)), n / gcd(R, n) in the support
        R, phi = (np.array(col, dtype=dtype)[block] for col in zip(*map(radical, Ts)))
        for n_i in n:
            g = np.gcd(R, n_i)
            phi = phi * phi_of[np.searchsorted(n_of, (n_i // g).astype(np.int64, copy=False))]
            R = R // g * n_i
        mu = math.prod(mus_i[k] for mus_i, k in zip(mus, idx))
        return block, m, mu, v, M, M // R * phi

    def run(held: list[_Block], start: int, width: int) -> tuple:
        """(mu, count, degree, |Rel|) of a run, whose terms it logs.  Its
        arrays die on return, so one run's arrays are alive at a time."""
        levels = [math.lcm(extra_level, f) for _, _, extra_level in held]
        # phi(M) * prod(m_i) <= M * prod(m_i) <= prod(m_i)^2 * level, and
        # _one_candidate multiplies two residues mod a divisor of f or of an
        # order modulus d_i t_i, and each of those divides level for any r
        top = max(
            max((n_top * math.prod(T)) ** 2, level) * level
            for (T, _, _), level in zip(held, levels)
        )
        dtype = np.int64 if top < _EXACT else object
        block, m, mu, v, M, phi = columns(held, levels, start, width, dtype)
        fail, members = view.field(m, M)
        degree = field_degree(phi, m, fail)
        pairs = []  # each order congruence of the run's blocks, then Frobenius
        for column in zip(*(congruences for _, congruences, _ in held)):
            residue, modulus = (np.array(x, dtype=dtype)[block] for x in zip(*column))
            pairs.append(([residue], modulus))
        if frobenius:
            pairs.append((frobenius[1], f))
        count = _one_candidate(view, members, v, M, pairs).astype(dtype)
        if log is not None:
            ms = zip(*(mi.tolist() for mi in m))
            rows = zip(ms, block.tolist(), mu.tolist(), count.tolist(), degree.tolist())
            for m_j, b, mu_j, c_j, deg in rows:
                T = held[b][0]
                N = tuple(x // t for x, t in zip(m_j, T))
                log.append({"N": N, "T": T, "mu": mu_j, "c": c_j, "degree": deg})
        return mu, count, degree, fail

    for held, start, width in _chunks(blocks, size):
        yield run(held, start, width)


def evaluate(
    spec: ConditionSpec,
    nmax: int = DEFAULT_NMAX,
    tmax: int = DEFAULT_TMAX,
    *,
    log_terms: bool = False,
    cache: Optional[DegreeCache] = None,
) -> DensityResult:
    """Density of primes meeting the spec's condition, summed as
    inclusion-exclusion terms over squarefree N <= nmax, block by block.

    A block (T, congruences, extra_level) fixes the index targets, the unit
    congruences and the level joined to the field level.  IndexFixed has the
    one block T; IndexSet has every T in the product of the sets up to tmax.
    OrderAP sums over T <= tmax with the r unit congruences
    c = 1 + a_i t_i (mod d_i t_i) carrying the progressions and the level
    lcm(d_i t_i); T tuples whose congruence system is unsolvable are skipped
    (they cover finitely many primes), and so are T with
    gcd(1 + a_i t_i, d_i) > 1.  The tail estimate covers N and each
    truncated T variable with the lcm of the failure ratios seen.

    `_terms` walks the squarefree n <= nmax, with mu(n) from one `moebius`
    call per n <= nmax and phi(n) read off a sieve.  Each
    run divides mu * count / degree in float64, rounded as Python's int / int
    is, and one `math.fsum` adds the quotients of nonzero counts of every run:
    the value is their correctly rounded sum, independent of term order.
    """
    mode, order = spec.mode, None
    caps = (nmax, tmax)
    tail_caps = [nmax] * spec.rank
    if isinstance(mode, IndexFixed):
        blocks: Iterable[_Block] = [(mode.T, (), 1)]
        caps = (nmax, 0)
    elif isinstance(mode, IndexSet):
        blocks = ((T, (), 1) for T in itertools.product(*(s.upto(tmax) for s in mode.S)))
        tail_caps += [tmax for s in mode.S if s.truncated_above(tmax)]
    else:
        blocks = _order_blocks(tuple(a % d for a, d in zip(mode.a, mode.d)), mode.d, tmax)
        tail_caps += [tmax] * spec.rank
        order = mode
    grids = _tail_grids(tail_caps)  # any cap error fires before the series runs
    moebius_of = np.array([0, *map(moebius, range(1, nmax + 1))], dtype=np.int64)
    sf = np.flatnonzero(moebius_of)
    support = (sf, moebius_of[sf], phi_sieve(nmax)[sf])
    if order is None:
        picks = [np.arange(sf.size)] * spec.rank
    else:
        # identity on zeta_(n_i t_i) and the progression action on
        # zeta_(d_i t_i) must agree on the overlap: a_i t_i = 0 (mod
        # gcd(d_i, n_i) t_i), that is a_i = 0 (mod gcd(d_i, n_i)) whatever
        # t_i is; filtering each factor keeps the other terms in order
        ok = [[a % math.gcd(d, n) == 0 for n in sf.tolist()] for a, d in zip(order.a, order.d)]
        picks = list(map(np.flatnonzero, ok))
    # A block's extra level is 1 or lcm(d_i t_i), so the primes of T * level
    # are those of T, of the d_i and of f
    moduli = (spec.frobenius[0] if spec.frobenius else 1, *(order.d if order else ()))
    fixed = {p for x in moduli for p, _ in factorize(x).factors}
    # the spec is validated, so each term's field Q(zeta_M, alpha_i^(1/m_i))
    # is read off the alphas' box view without building a FieldSpec
    view = (cache if cache is not None else DEFAULT_CACHE).view(spec.alphas)
    log: Optional[list] = [] if log_terms else None
    runs, terms, b_seen = _terms(view, blocks, support, picks, fixed, spec.frobenius, log), 0, 1

    def quotients() -> Iterator[list]:
        nonlocal terms, b_seen
        for mu, count, degree, fail in runs:
            b_seen = math.lcm(b_seen, *set(fail.tolist()))
            terms += mu.size
            yield (mu * count / degree)[count != 0].tolist()
            del mu, count, degree, fail  # before the next run's arrays are made

    value = math.fsum(itertools.chain.from_iterable(quotients()))
    return DensityResult(value, terms, caps, _scaled_tail(grids, b_seen), log)


# The per-mode names of the public API.  Each evaluates the spec's own mode.
index_density_fixed = index_density_set = order_density = evaluate
