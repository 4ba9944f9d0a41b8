"""Exact degrees of Q(zeta_M, alpha_1^(1/m_1), ..., alpha_r^(1/m_r)) over Q,
relation groups of radicals, automorphism counts under congruence and
Frobenius conditions, and a discriminant bound evaluator.

Degrees come from Kummer duality over F = Q(zeta_M): with L = lcm(m_i) and
Rel the subgroup of exponent tuples whose radical product already lies in F,

    [Q(zeta_M, radicals) : Q] = phi(M) * prod(m_i) / |Rel|.

Each unit c mod M that fixes the witnesses of the generators the enumeration
of Rel accepts (and so every relation witness) extends to exactly
prod(m_i)/|Rel| automorphisms of the full field, one of which acts trivially
on all radicals; that turns Galois counting into unit counting.  The duality
step is guarded by the empirical splitting consistency checks in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .arith import (
    FactoredRational,
    ResourceCapError,
    crt_merge,
    crt_pair,
    divisors,
    euler_phi,
)
from .cyclo import RadicalValue, fixed_by, lies_in_cyclotomic, radical_product

RELATION_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class FieldSpec:
    """Q(zeta_M, alpha_1^(1/m_1), ..., alpha_r^(1/m_r)) with lcm(m_i) | M."""

    alphas: tuple[FactoredRational, ...]
    m: tuple[int, ...]
    M: int

    def __post_init__(self):
        if len(self.alphas) < 1 or len(self.alphas) != len(self.m):
            raise ValueError("need r >= 1 alphas with matching radical indices")
        if any(mi < 1 for mi in self.m) or self.M < 1:
            raise ValueError("radical indices and M must be positive")
        if self.M % math.lcm(*self.m) != 0:
            raise ValueError("M must be a multiple of every radical index")
        for a in self.alphas:
            if not a.factors:
                raise ValueError("alpha in {1, -1} spans no radical")

    @staticmethod
    def make(alphas: Iterable, m: Sequence[int], M: int) -> "FieldSpec":
        fr = tuple(
            a if isinstance(a, FactoredRational) else FactoredRational.from_fraction(a)
            for a in alphas
        )
        return FieldSpec(fr, tuple(int(v) for v in m), int(M))


@dataclass(frozen=True)
class RelationGroup:
    """Subgroup of prod Z/m_i of exponent tuples whose radical product lies in
    the cyclotomic base, with the generators the enumeration accepted (each
    exponent tuple paired with its witnessing value), lexicographic order."""

    moduli: tuple[int, ...]
    members: frozenset[tuple[int, ...]]
    generators: tuple[tuple[tuple[int, ...], RadicalValue], ...]


@dataclass(frozen=True)
class KummerBound:
    """Observed bound for the failure of maximality on a parameter grid."""

    B_observed: int
    grid_description: str


def _addv(a: tuple[int, ...], b: tuple[int, ...], m: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((x + y) % mi for x, y, mi in zip(a, b, m))


def _closure(
    span: set[tuple[int, ...]], new: tuple[int, ...], m: tuple[int, ...]
) -> set[tuple[int, ...]]:
    order = math.lcm(*(mi // math.gcd(ei, mi) for ei, mi in zip(new, m)))
    out = set()
    for base in span:
        cur = base
        for _ in range(order):
            out.add(cur)
            cur = _addv(cur, new, m)
    return out


def _lattice_solutions(
    alphas: Sequence[FactoredRational], m: Sequence[int], L: int
):
    """Tuples e with prod |alpha_i|^(e_i L/m_i) of t^L d^(L/2) shape.

    These are exactly the tuples whose radical product collapses to the
    zeta * t * sqrt(d) normal form; the condition is linear on exponent
    vectors, so the last coordinate is solved as an intersection of
    arithmetic progressions instead of being enumerated.
    """
    modulus = L if L % 2 else L // 2
    if modulus == 1:
        yield from itertools.product(*(range(mi) for mi in m))
        return
    support = sorted({p for a in alphas for p in a.support()})
    weights = [L // mi for mi in m]
    vecs = [[a.exponent(p) for p in support] for a in alphas]
    r = len(m)

    def solve(idx: int, residuals: list[int], moduli: Sequence[int]) -> range:
        # e_idx with coef * w * e_idx + res = 0 (mod moduli[j]) at every
        # support prime j, intersected as arithmetic progressions
        base, step = 0, 1
        for coef, res, mod in zip(vecs[idx], residuals, moduli):
            if mod == 1:
                continue
            A = coef * weights[idx] % mod
            B = -res % mod
            g = math.gcd(A, mod)
            if B % g:
                return range(0)
            mod_k = mod // g
            e0 = (B // g) * pow(A // g, -1, mod_k) % mod_k if mod_k > 1 else 0
            merged = crt_pair(base, step, e0, mod_k)
            if merged is None:
                return range(0)
            base, step = merged
        return range(base, m[idx], step)

    full = [modulus] * len(support)
    # e_(r-2) is pruned by solvability of the last coordinate: each support
    # prime needs gcd(A_last, modulus) to divide the running residual
    last_gcds = [math.gcd(coef * weights[r - 1] % modulus, modulus) for coef in vecs[r - 1]]

    def rec(idx: int, residuals: list[int]):
        if idx == r - 1:
            for er in solve(idx, residuals, full):
                yield (er,)
            return
        source = solve(idx, residuals, last_gcds) if idx == r - 2 else range(m[idx])
        for ei in source:
            nxt = [
                (res + ei * weights[idx] * coef) % modulus
                for res, coef in zip(residuals, vecs[idx])
            ]
            for tail in rec(idx + 1, nxt):
                yield (ei,) + tail

    yield from rec(0, [0] * len(support))


def relation_group(spec: FieldSpec, cap: int = RELATION_ENUMERATION_CAP) -> RelationGroup:
    """All exponent tuples whose radical product lies in Q(zeta_M).

    Enumeration walks the rational-lattice candidates in lexicographic order,
    skipping those already in the span; each other candidate is accepted when
    the conductor of its witness divides M, and the accepted ones, with their
    witnesses, become the group's generators.  Every call enumerates;
    `DegreeCache` keeps the result per field.
    """
    total = math.prod(spec.m)
    if total > cap:
        raise ResourceCapError(f"relation group size {total} exceeds cap {cap}")
    L = math.lcm(*spec.m)
    zero = tuple([0] * len(spec.m))
    members: set[tuple[int, ...]] = {zero}
    generators: list[tuple[tuple[int, ...], RadicalValue]] = []
    for cand in _lattice_solutions(spec.alphas, spec.m, L):
        if cand in members:
            continue
        value = radical_product(spec.alphas, spec.m, cand)
        if value is None:
            continue
        if lies_in_cyclotomic(value, spec.M):
            generators.append((cand, value))
            members = _closure(members, cand, spec.m)
    return RelationGroup(spec.m, frozenset(members), tuple(generators))


# ---------------------------------------------------------------------------
# field cache


FIELD_CACHE_SIZE = 65536


class DegreeCache:
    """Each field's relation group and degree, enumerated once per field.

    Keyed by `FieldSpec`.  It holds at most FIELD_CACHE_SIZE fields; past
    that the oldest entry goes first.
    """

    def __init__(self):
        self._fields: dict[FieldSpec, tuple[RelationGroup, int]] = {}

    def lookup(self, spec: FieldSpec) -> tuple[RelationGroup, int]:
        """(relation group, degree over Q) of the field, enumerating on a miss."""
        entry = self._fields.get(spec)
        if entry is None:
            rel = relation_group(spec)
            numerator = euler_phi(spec.M) * math.prod(spec.m)
            assert numerator % len(rel.members) == 0
            entry = (rel, numerator // len(rel.members))
            if len(self._fields) >= FIELD_CACHE_SIZE:
                del self._fields[next(iter(self._fields))]
            self._fields[spec] = entry
        return entry

    def __len__(self) -> int:
        return len(self._fields)


DEFAULT_CACHE = DegreeCache()


def degree_info(spec: FieldSpec, cache: Optional[DegreeCache] = None) -> tuple[int, int]:
    """(field degree over Q, failure ratio |Rel|)."""
    rel, degree = (cache if cache is not None else DEFAULT_CACHE).lookup(spec)
    return degree, len(rel.members)


def kummer_degree(spec: FieldSpec, cache: Optional[DegreeCache] = None) -> int:
    """Exact degree [Q(zeta_M, alpha_1^(1/m_1), ...) : Q]."""
    return degree_info(spec, cache)[0]


def failure_ratio(spec: FieldSpec, cache: Optional[DegreeCache] = None) -> int:
    """Integer ratio by which the degree falls short of phi(M) * prod(m_i)."""
    return degree_info(spec, cache)[1]


# ---------------------------------------------------------------------------
# automorphism counting


def count_automorphisms(
    spec: FieldSpec,
    fix_level: int,
    congruences: Sequence[tuple[int, int]] = (),
    frobenius: Optional[tuple[int, frozenset[int] | set[int]]] = None,
    cache: Optional[DegreeCache] = None,
) -> int:
    """Count units c of Z/M with c = 1 (mod fix_level), every congruence
    satisfied, c mod f in C when a Frobenius class set is given, and every
    generator's witness fixed by sigma_c.

    Each counted c corresponds to exactly one automorphism of the field that
    restricts to the identity on Q(zeta_fix_level, radicals).  Inconsistent
    congruence systems count zero; they are not an error.  The relation
    group comes from `cache` (the shared default cache when None).
    """
    W = spec.M
    if W % fix_level != 0 or any(W % mod != 0 for _, mod in congruences):
        raise ValueError("spec.M must be a common multiple of all moduli")
    if frobenius is not None and W % frobenius[0] != 0:
        raise ValueError("spec.M must be a multiple of the Frobenius level")
    merged = crt_merge([(1, fix_level), *congruences])
    if merged is None:
        return 0
    rho, mu = merged
    if math.gcd(rho, mu) != 1:
        return 0
    rel = (cache if cache is not None else DEFAULT_CACHE).lookup(spec)[0]
    witnesses = [value for _, value in rel.generators]
    fset = None
    if frobenius is not None:
        f, classes = frobenius
        fset = (f, frozenset(x % f for x in classes))
    count = 0
    start = rho if rho >= 1 else mu
    for c in range(start, W + 1, mu):
        if math.gcd(c, W) != 1:
            continue
        if fset is not None and c % fset[0] not in fset[1]:
            continue
        # fixed_by acts on Q(zeta_L), L = lcm(zeta order, conductor(d), W); a
        # witness's conductor divides W, so only 2 can divide L and not W
        lifted = c if c % 2 else c + W
        if all(fixed_by(lifted, w, W) for w in witnesses):
            count += 1
    return count


def discriminant_bound(spec: FieldSpec) -> float:
    """Upper bound for log|disc| / (phi(M) * prod m_i) of the field.

    Evaluates log(M * prod m_i) + 2 * sum_i log|num(alpha_i) * den(alpha_i)|;
    exact discriminants are out of scope, only the bound is provided.
    """
    out = math.log(spec.M * math.prod(spec.m))
    for a in spec.alphas:
        out += 2.0 * math.log(a.numerator() * a.denominator())
    return out


# ---------------------------------------------------------------------------
# failure-of-maximality grid


def observe_failure_bound(
    alpha_pool: Sequence[int],
    m_divisor: int = 12,
    M_divisor: int = 240,
    ranks: Sequence[int] = (1, 2),
    cache: Optional[DegreeCache] = None,
) -> KummerBound:
    """lcm of failure ratios over a grid of field specs.

    Grid: alpha lists drawn from the pool (sizes in `ranks`), radical indices
    over divisors of `m_divisor`, cyclotomic levels over divisors of
    `M_divisor` compatible with the indices.
    """
    alphas = [FactoredRational.from_fraction(a) for a in alpha_pool]
    m_choices = divisors(m_divisor)
    M_choices = divisors(M_divisor)
    bound = 1
    for r in ranks:
        for combo in itertools.combinations(range(len(alphas)), r):
            for m in itertools.product(m_choices, repeat=r):
                need = math.lcm(*m)
                for M in M_choices:
                    if M % need:
                        continue
                    spec = FieldSpec(tuple(alphas[i] for i in combo), m, M)
                    bound = math.lcm(bound, failure_ratio(spec, cache))
    desc = (
        f"alphas in {list(alpha_pool)}, ranks {list(ranks)}, "
        f"m | {m_divisor}, M | {M_divisor}"
    )
    return KummerBound(bound, desc)
