import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orddensity import cli, kummer
from orddensity.arith import FactoredRational, ResourceCapError, divisors, euler_phi, factorize
from orddensity.cyclo import radical_product
from orddensity.kummer import (
    DegreeCache,
    FieldSpec,
    _witnesses,
    degree_info,
    exponent_minor_gcd,
    failure_ratio,
    field_degree,
    kummer_degree,
)

import oracles
from oracles import (
    _count_units,
    brute_unit_count,
    count_automorphisms,
    full_box_relations,
    lies_in_cyclotomic,
    relation_group,
)

GRID_ALPHAS = (2, 3, 5, -2, 8, 12)
GRID_M = (1, 2, 3, 4, 6, 12)
GRID_LEVELS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 60, 120, 240)

# hand-derived via quadratic conductors: (alphas, m, M) -> degree
KNOWN_DEGREES = [
    (((2,), (2,), 8), 4),
    (((2,), (2,), 4), 4),
    (((2, 3), (2, 2), 24), 8),
    (((2, 3), (2, 2), 12), 8),
    (((5,), (2,), 10), 4),
    (((-2,), (2,), 8), 4),
    (((8,), (4,), 8), 8),
    (((2,), (4,), 8), 8),
    (((12,), (2,), 12), 4),
    (((3, 5), (2, 2), 60), 16),
]


def fs(alphas, m, M):
    return FieldSpec.make(alphas, m, M)


def cached_degree(cache, spec):
    """`degree_info(spec)` read from `cache` instead of the default cache."""
    rel = 1 + len(_witnesses(cache.view(spec.alphas), spec.m, spec.M))
    return field_degree(euler_phi(spec.M), spec.m, rel), rel


def cached_count(cache, spec, fix, congruences=(), frobenius=None):
    """`count_automorphisms` read from `cache` instead of the default cache."""
    witnesses = _witnesses(cache.view(spec.alphas), spec.m, spec.M)
    return _count_units(spec.M, fix, congruences, frobenius, witnesses)


def test_relation_group_examples():
    assert sorted(relation_group(fs([2], (2,), 8)).members) == [(0,), (1,)]
    assert sorted(relation_group(fs([2], (2,), 4)).members) == [(0,)]
    assert sorted(relation_group(fs([2, 3], (2, 2), 24)).members) == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def test_relation_group_members_form_subgroup_with_witnesses():
    spec = fs([2, 3], (2, 2), 24)
    rg = relation_group(spec)
    for a in rg.members:
        for b in rg.members:
            s = tuple((x + y) % m for x, y, m in zip(a, b, rg.moduli))
            assert s in rg.members
    assert rg.members[(0, 0)] is None
    for e, witness in rg.members.items():
        if any(e):
            assert witness == radical_product(spec.alphas, spec.m, e)
            assert lies_in_cyclotomic(witness, spec.M)


def span(generators, moduli):
    group = {tuple(0 for _ in moduli)}
    for e in generators:
        while True:
            grown = group | {
                tuple((x + y) % m for x, y, m in zip(s, e, moduli)) for s in group
            }
            if grown == group:
                break
            group = grown
    return group


@pytest.mark.parametrize(
    "M, evaluated, generators",
    [
        # m = (2, 2) and Delta = 1 put all four tuples in the box; every one
        # of sqrt(3), sqrt(2), sqrt(6) lies in Q(zeta_24)
        (24, [(0, 1), (1, 0), (1, 1)], [(0, 1), (1, 0)]),
        # sqrt(3) and sqrt(6) are tested and rejected; sqrt(2) is accepted
        (8, [(0, 1), (1, 0), (1, 1)], [(1, 0)]),
    ],
)
def test_relation_group_computes_witnesses_only_for_candidates(
    monkeypatch, M, evaluated, generators
):
    calls = []

    def recording(alphas, m, e):
        calls.append(tuple(e))
        return radical_product(alphas, m, e)

    monkeypatch.setattr(kummer, "radical_product", recording)
    rg = relation_group(fs([2, 3], (2, 2), M))
    # one radical product per nonzero tuple of the box, in lexicographic order
    assert calls == evaluated
    assert set(rg.members) == span(generators, rg.moduli)


def test_relation_group_box_skips_non_multiples(monkeypatch):
    calls = []

    def recording(alphas, m, e):
        calls.append((tuple(m), tuple(e)))
        return radical_product(alphas, m, e)

    monkeypatch.setattr(kummer, "radical_product", recording)
    rg = relation_group(fs([2, 3], (12, 12), 24))
    # 2 and 3 have Delta = 1, so the box has sides gcd(12, 2) = 2: one radical
    # product per nonzero k of {0, 1}^2, in lexicographic order, standing for
    # e = 6k among the 144 tuples
    assert calls == [((2, 2), (0, 1)), ((2, 2), (1, 0)), ((2, 2), (1, 1))]
    assert list(rg.members) == [(0, 0), (0, 6), (6, 0), (6, 6)]


@pytest.mark.parametrize(
    "alphas, delta",
    [
        ([2], 1),
        ([64], 6),
        ([-8], 3),
        ([Fraction(3, 4)], 1),  # exponents (-2, 1)
        ([2, 3], 1),
        ([12, 18], 3),  # exponents (2, 1), (1, 2)
        ([4, 27, 5], 6),
        ([2, 8], 0),
        ([-2, 2], 0),
        ([6, 10, 15], 2),  # (1,1,0), (1,0,1), (0,1,1)
        ([6, 10, 15, 30], 0),
    ],
)
def test_exponent_minor_gcd(alphas, delta):
    spec = fs(alphas, (1,) * len(alphas), 1)
    assert exponent_minor_gcd(spec.alphas) == delta
    support = sorted({p for a in spec.alphas for p in a.support()})
    V = [[a.exponent(p) for p in support] for a in spec.alphas]
    minors = [
        round(np.linalg.det(np.array([[row[j] for j in cols] for row in V], dtype=float)))
        for cols in itertools.combinations(range(len(support)), len(V))
    ]
    assert math.gcd(*minors) == delta


def test_relation_group_matches_full_box_oracle():
    # rank 1-3 fields with prod m_i <= 576, including dependent pairs, negative
    # and fractional alphas; levels where the quadratic and zeta parts of the
    # witnesses enter and leave Q(zeta_M)
    cases = [
        ([2], (8,), (8, 16, 24)),
        ([-8], (12,), (12, 24, 36)),
        ([64], (24,), (24, 48)),
        ([Fraction(3, 4)], (12,), (12, 24)),
        ([-27], (6,), (6, 12)),
        ([2, 8], (12, 12), (12, 24)),
        ([2, 4], (8, 8), (8, 16)),
        ([-2, 2], (4, 12), (12, 24)),
        ([-3, Fraction(1, 2)], (12, 6), (12, 24)),
        ([12, 18], (6, 12), (12, 24, 36)),
        ([2, 3, 5], (4, 4, 6), (12, 60, 120)),
        ([-2, 6, Fraction(5, 3)], (2, 6, 6), (6, 12, 60)),
        ([2, 8, 3], (4, 4, 4), (4, 8, 24)),
    ]
    for alphas, m, levels in cases:
        for M in levels:
            spec = fs(alphas, m, M)
            assert set(relation_group(spec).members) == full_box_relations(spec), spec


def test_relation_group_cap():
    # dependent alphas have Delta = 0, so their box is all 4 * 10^6 tuples
    with pytest.raises(ResourceCapError):
        relation_group(fs([2, 8], (2000, 2000), 2000))
    # independent ones need only gcd(2000, 2)^2 = 4 of them; of sqrt(2),
    # sqrt(3) and sqrt(6) only sqrt(2) lies in Q(zeta_M), M = 2^8 * 5^6
    spec = fs([2, 3], (2000, 2000), 2000 * 2000)
    assert sorted(relation_group(spec).members) == [(0, 0), (1000, 0)]
    assert kummer_degree(spec) == euler_phi(2000 * 2000) * 2000 * 2000 // 2


def test_large_radical_index_has_no_cap():
    # sqrt(2) = 2^(2^19 / 2^20) lies in Q(zeta_8), and nothing else of the
    # box {0, 2^19} does: the degree is phi(2^20) * 2^20 / 2
    assert kummer_degree(fs([2], (2**20,), 2**20)) == 2**38


def test_kummer_degree_examples():
    assert kummer_degree(fs([2], (2,), 8)) == 4
    assert kummer_degree(fs([2], (2,), 4)) == 4
    assert kummer_degree(fs([2, 3], (2, 2), 12)) == 8


def test_failure_ratio_examples():
    assert failure_ratio(fs([2], (2,), 8)) == 2
    assert failure_ratio(fs([2], (2,), 4)) == 1
    assert failure_ratio(fs([2, 3], (2, 2), 24)) == 4


def test_known_degree_matrix():
    for (alphas, m, M), expected in KNOWN_DEGREES:
        assert kummer_degree(fs(alphas, m, M)) == expected, (alphas, m, M)


def test_trivial_cyclotomic_levels():
    # Q(zeta_1) = Q(zeta_2) = Q: the series' first terms live here
    assert kummer_degree(fs([2], (1,), 1)) == 1
    assert kummer_degree(fs([2], (1,), 2)) == 1
    assert kummer_degree(fs([2], (2,), 2)) == 2  # [Q(sqrt 2) : Q]
    assert kummer_degree(fs([4], (2,), 2)) == 1  # sqrt(4) is rational
    assert kummer_degree(fs([-4], (2,), 4)) == 2  # sqrt(-4) = 2i
    assert count_automorphisms(fs([2], (1,), 1), 1, ()) == 1


def test_degree_divides_generic_degree_on_grid():
    for alpha in GRID_ALPHAS:
        for m in GRID_M:
            for M in GRID_LEVELS:
                if M % m:
                    continue
                spec = fs([alpha], (m,), M)
                deg, fail = degree_info(spec)
                generic = euler_phi(M) * m
                assert generic % deg == 0
                assert deg * fail == generic


def test_tower_monotonicity():
    # enlarging M or m multiplies the degree by a positive integer
    for alpha in GRID_ALPHAS:
        for m in (1, 2, 3, 4, 6):
            for M in (12, 24, 60):
                if M % m:
                    continue
                base = kummer_degree(fs([alpha], (m,), M))
                up_m = kummer_degree(fs([alpha], (2 * m,), math.lcm(M, 2 * m)))
                up_M = kummer_degree(fs([alpha], (m,), 2 * M))
                assert up_m % base == 0
                assert up_M % base == 0


def test_failure_ratios_divide_grid_bound():
    assert cli.FAILURE_POOL == GRID_ALPHAS
    bound = cli.failure_bound(240)
    assert bound >= 1
    for alpha in GRID_ALPHAS:
        for m in GRID_M:
            for M in GRID_LEVELS:
                if M % m or 240 % M:
                    continue
                assert bound % failure_ratio(fs([alpha], (m,), M)) == 0


def test_count_automorphisms_examples():
    # identity congruence at full level
    assert count_automorphisms(fs([2], (1,), 4), 1, ((1, 4),)) == 1
    # impossible congruence class: c = 0 mod 2
    assert count_automorphisms(fs([2], (1,), 2), 1, ((0, 2),)) == 0
    # progression action c = 3 mod 4 with identity on sqrt(2)
    assert count_automorphisms(fs([2], (2,), 4), 2, ((3, 4),)) == 1


def test_count_automorphisms_brute_force_small_field():
    # Gal(Q(zeta_8, 2^(1/2))/Q) acting with c mod 8: sqrt(2) = zeta_8 + zeta_8^-1
    # forces sigma_c(sqrt 2) = chi_8(c) sqrt 2, so only c = 1, 7 fix sqrt(2).
    spec = fs([2], (2,), 8)
    assert count_automorphisms(spec, 2, ()) == 2
    assert count_automorphisms(spec, 8, ()) == 1
    # with the radical free over the base the count doubles
    spec = fs([3], (2,), 8)
    assert count_automorphisms(spec, 2, ()) == 4
    # odd levels, where each even unit c is tested as c + M: the cube roots
    # of -27 are -3 zeta_3^k, so the field is Q(zeta_3)
    spec = fs([-27], (3,), 3)
    assert kummer_degree(spec) == 2
    assert count_automorphisms(spec, 1, ()) == 1
    # (-8)^(1/3) = 2 zeta_6 lies in Q(zeta_3), which Q(zeta_15) contains
    spec = fs([-8], (3,), 15)
    assert kummer_degree(spec) == 8
    assert count_automorphisms(spec, 1, ()) == 4


def test_identity_unit_counts_without_a_witness_test(monkeypatch):
    tested = []
    fixed_by = oracles.fixed_by

    def spy(c, v, M):
        tested.append(c)
        return fixed_by(c, v, M)

    monkeypatch.setattr(oracles, "fixed_by", spy)
    # sigma_1 is the identity: c = 1 counts, and only the other units are tested
    assert count_automorphisms(fs([2], (2,), 8), 2, ()) == 2
    assert sorted(set(tested)) == [3, 5, 7]
    tested.clear()
    assert count_automorphisms(fs([-8], (3,), 15), 1, ()) == 4
    assert tested and 1 not in tested


def test_count_automorphisms_caps():
    for alphas, m, M, fix, congr, frob in [
        ((2,), (2,), 8, 2, (), None),
        ((2,), (2,), 24, 6, (), (4, frozenset({1, 3}))),
        ((2, 3), (2, 6), 24, 6, ((5, 12),), None),
        ((5,), (4,), 40, 4, ((9, 40),), (8, frozenset({1}))),
    ]:
        spec = fs(alphas, m, M)
        count = count_automorphisms(spec, fix, congr, frob)
        assert count <= euler_phi(M) // max(1, euler_phi(fix))
        if frob is not None and congr:
            assert count <= len(frob[1])


def unit_count_grid():
    """(spec, fix_level, congruences, frobenius) on a fixed grid: ranks 1-2,
    odd and even levels, fix levels 1 and above, 0-2 congruences with
    residues that are not units and pairs that are inconsistent, with and
    without a Frobenius class."""
    fields = [
        (alphas, m)
        for alphas in ([2], [-3], [-8], [12])
        for m in ((1,), (2,), (3,), (4,), (6,))
    ] + [([2, 3], m) for m in ((1, 1), (2, 2), (2, 4), (6, 2))]
    for (alphas, m), M in itertools.product(fields, (1, 3, 8, 15, 24, 40, 45, 120)):
        v = math.lcm(*m)
        if M % v:
            continue
        spec = fs(alphas, m, M)
        qs = [q for q in divisors(M) if 1 < q <= 12]
        qs = sorted(set(qs[:2] + qs[-1:]))
        systems = [()]
        systems += [((r % q, q),) for q in qs for r in sorted({0, 1, 2, q - 1})]
        systems += [
            ((1, a), (r % b, b)) for a, b in itertools.combinations(qs, 2) for r in (-1, 2)
        ]
        systems += [((1, q), (-1 % q, q)) for q in qs if q > 2]
        f = max(q for q in divisors(M) if q <= 8)
        for fix, congruences, frobenius in itertools.product(
            sorted({1, v, (qs or [1])[0]}), systems, (None, (f, {1, f - 1}))
        ):
            yield spec, fix, congruences, frobenius


def test_count_automorphisms_matches_brute_unit_count():
    cache = DegreeCache()
    counts = []
    for spec, fix, congruences, frobenius in unit_count_grid():
        want = brute_unit_count(spec, fix, congruences, frobenius)
        got = cached_count(cache, spec, fix, congruences, frobenius)
        assert got == want, (spec.alphas, spec.m, spec.M, fix, congruences, frobenius)
        counts.append(got)
    # the grid reaches zero counts, a single unit and larger counts
    assert counts.count(0) > 100 and counts.count(1) > 100 and max(counts) >= 8
    assert len(counts) > 2000


def test_vanishing_conditions_small_grid():
    # zero count whenever gcd(1 + a t, d) > 1 or gcd(d, n) does not divide a
    a2 = factorize(2)
    for a, d, n, t in itertools.product(range(4), range(2, 5), range(1, 5), range(1, 5)):
        violated = math.gcd(1 + a * t, d) > 1 or a % math.gcd(d, n) != 0
        if not violated:
            continue
        W = math.lcm(d * t, n * t)
        spec = FieldSpec((a2,), (n * t,), W)
        assert count_automorphisms(spec, n * t, (((1 + a * t) % (d * t), d * t),)) == 0


def test_count_automorphisms_validates_levels():
    spec = fs([2], (2,), 4)
    for fix_level, congruences, frobenius in [
        (3, (), None),  # 3 does not divide M = 4
        (2, ((1, 3),), None),
        (0, (), None),  # levels below 1 used to divide by zero
        (2, ((1, 0),), None),
        (2, (), (0, {1})),
    ]:
        with pytest.raises(ValueError):
            count_automorphisms(spec, fix_level, congruences, frobenius)


def test_field_spec_rejects_units_and_bad_levels():
    with pytest.raises(ValueError):
        fs([1], (2,), 4)
    with pytest.raises(ValueError):
        fs([-1], (2,), 4)
    with pytest.raises(ValueError):
        fs([2], (2,), 5)
    with pytest.raises(ValueError):
        fs([], (), 1)


def test_field_spec_built_directly_coerces_integer_indices():
    two = factorize(2)
    spec = FieldSpec((two,), (np.int64(2),), np.int64(8))
    assert spec == fs([2], (2,), 8)
    assert type(spec.m[0]) is int and type(spec.M) is int
    for m, M in [((2.0,), 8), ((2,), 8.0)]:
        with pytest.raises(ValueError):
            FieldSpec((two,), m, M)


def counting_boxes(monkeypatch) -> list:
    """Record the alphas and sides of every box enumeration."""
    calls = []
    original = kummer._abelian_box

    def counted(alphas, sides):
        calls.append((alphas, sides))
        return original(alphas, sides)

    monkeypatch.setattr(kummer, "_abelian_box", counted)
    return calls


def test_degree_cache_enumerates_each_field_once(monkeypatch):
    # each field is read from its alphas' box, enumerated once per side tuple
    spec = fs([2], (2,), 8)
    assert degree_info(spec) == (4, 2)
    assert kummer_degree(spec) == 4
    assert failure_ratio(spec) == 2
    assert count_automorphisms(spec, 2, ()) == 2
    calls = counting_boxes(monkeypatch)
    cache = DegreeCache()
    assert cached_degree(cache, spec) == (4, 2)
    assert cached_count(cache, spec, 2) == 2
    assert cached_degree(cache, fs([2], (2,), 4))[0] == 4  # same box, other level
    assert cached_degree(cache, fs([2], (6,), 24))[0] == 8 * 6 // 2  # same sides
    assert calls == [(spec.alphas, (2,))] and len(cache._alphas) == 1
    assert cached_degree(cache, fs([2], (3,), 3))[0] == 6  # sides (1,)
    assert cached_degree(cache, fs([2, 3], (2, 2), 12))[0] == 8
    assert len(calls) == 3 and len(cache._alphas) == 2


def test_degree_cache_drops_oldest_field_past_its_bound(monkeypatch):
    # the bound counts alpha tuples; a dropped tuple takes its boxes along
    monkeypatch.setattr(kummer, "CACHE_SIZE", 2)
    calls = counting_boxes(monkeypatch)
    cache = DegreeCache()
    specs = [fs([2], (2,), 8), fs([3], (2,), 12), fs([5], (2,), 10)]
    assert [cached_degree(cache, s)[0] for s in specs] == [4, 4, 4]
    assert len(cache._alphas) == 2
    cached_degree(cache, specs[2])
    cached_degree(cache, fs([3], (2,), 24))
    cached_degree(cache, specs[0])  # dropped, so enumerated again
    assert calls == [(s.alphas, (2,)) for s in specs + [specs[0]]]


def test_fields_sharing_alphas_and_sides_enumerate_one_box(monkeypatch):
    calls = []

    def recording(alphas, m, e):
        calls.append(tuple(e))
        return radical_product(alphas, m, e)

    monkeypatch.setattr(kummer, "radical_product", recording)
    cache = DegreeCache()
    # Delta = 1 for (2, 3): every m below has sides gcd(m_i, 2) = (2, 2)
    for m in [(2, 2), (6, 4), (12, 12)]:
        for M in (12, 24):
            spec = fs([2, 3], m, M)
            cached_degree(cache, spec)
            cached_count(cache, spec, 1)
    assert calls == [(0, 1), (1, 0), (1, 1)]


def test_shared_cache_matches_fresh_cache_per_field():
    pool = [(2,), (-3,), (-8,), (12,), (2, 8), (-2, 3), (2, 5), (-3, Fraction(1, 2)),
            (2, 3, 5), (-2, 6, 8)]
    grid = []
    for alphas in pool:
        for m in itertools.product((1, 2, 3, 4, 6), repeat=len(alphas)):
            if len(alphas) == 3 and max(m) > 2 * min(m):
                continue
            for mult in (1, 2, 5, 12):
                grid.append(fs(alphas, m, math.lcm(*m) * mult))
    random.Random(7).shuffle(grid)
    shared = DegreeCache()
    for spec in grid:
        fix = math.lcm(*spec.m)
        frob = (spec.M, {1, spec.M - 1})
        got = [cached_degree(shared, spec), cached_count(shared, spec, fix, (), frob)]
        fresh = DegreeCache()
        want = [cached_degree(fresh, spec), cached_count(fresh, spec, fix, (), frob)]
        assert got == want, spec
        assert got[0][1] == len(relation_group(spec).members), spec
    assert len(shared._alphas) == len(pool)


def test_degree_ignores_pair_order():
    assert kummer_degree(fs([2, 3], (2, 4), 8)) == kummer_degree(fs([3, 2], (4, 2), 8))


def test_degrees_against_minimal_polynomials():
    # independent algebraic route: degree of a primitive element of the
    # compositum computed by sympy (a non-primitive combination would show
    # up as a smaller degree, never a false pass)
    sympy = pytest.importorskip("sympy")
    from sympy import I, Rational, exp, minimal_polynomial, pi, sqrt, symbols

    x = symbols("x")
    cases = [
        (fs([2], (2,), 8), exp(2 * I * pi / 8) + sqrt(2)),
        (fs([2], (2,), 4), I + sqrt(2)),
        (fs([2], (4,), 8), exp(2 * I * pi / 8) + Rational(2) ** Rational(1, 4)),
        (fs([2, 3], (2, 2), 12), exp(2 * I * pi / 12) + sqrt(2) + sqrt(3)),
        (fs([-2], (2,), 8), exp(2 * I * pi / 8) + sqrt(-2)),
        (fs([12], (2,), 12), exp(2 * I * pi / 12) + sqrt(12)),
        (fs([8], (4,), 8), exp(2 * I * pi / 8) + Rational(8) ** Rational(1, 4)),
        (fs([5], (2,), 10), exp(2 * I * pi / 10) + sqrt(5)),
        (fs([6], (3,), 6), exp(2 * I * pi / 6) + Rational(6) ** Rational(1, 3)),
    ]
    for spec, element in cases:
        expected = sympy.degree(minimal_polynomial(element, x))
        assert kummer_degree(spec) == expected, spec


# 8 and -27 have Delta = 3, (-3, 12) Delta = 2 and the dependent (2, 8)
# Delta = 0; the big alpha is three primes near 3 * 10^6, whose square root
# has a conductor past 2^63
BIG_ALPHA = 3000017 * 3000029 * 3000047
ONE_FIELD_POOL = [(8,), (-27,), (12,), (-2,), (2, 8), (-3, 12), (BIG_ALPHA,)]


def one_field_grid():
    """(alphas, m, M) over the pool: each m with levels lcm(m) times 1, 2, 3,
    2^64 and each box entry's conductor, so that some fields hold a witness
    and some levels pass 2^63."""
    for alphas in ONE_FIELD_POOL:
        alphas = tuple(map(FactoredRational.of, alphas))
        view = DegreeCache().view(alphas)
        for m in itertools.product((1, 2, 3, 4, 6), repeat=len(alphas)):
            box = view.box(tuple(math.gcd(mi, view.two_delta) for mi in m))
            for mult in {1, 2, 3, 2**64, *(cond for _, _, cond in box)}:
                yield alphas, m, math.lcm(*m, mult)


def read_fields(view, ms, Ms) -> tuple:
    """`view.field` of the fields (ms[j], Ms[j]) on arrays of Python ints:
    (|Rel|, witnesses), where witnesses(j) lists the values of the members
    that field j holds."""
    M = np.array(Ms, dtype=object)
    rel, members = view.field([np.array(mi, dtype=object) for mi in zip(*ms)], M)

    def witnesses(j):
        return [value for value, inside in members if j in inside.tolist()]

    return rel, witnesses


def test_one_field_matches_field_on_one_element_arrays():
    scalar, arrays, shared = DegreeCache(), DegreeCache(), DegreeCache()
    seen = {"level past 2^63": 0, "witness": 0, "conductor past 2^63": 0}
    fields: dict = {}
    for alphas, m, M in one_field_grid():
        got = _witnesses(scalar.view(alphas), m, M)
        rel, witnesses = read_fields(arrays.view(alphas), [m], [M])
        assert (1 + len(got), got) == (rel[0], witnesses(0)), (alphas, m, M)
        fields.setdefault(alphas, []).append((m, M, got))
        seen["level past 2^63"] += M >= 2**63
        seen["witness"] += bool(got)
        seen["conductor past 2^63"] += any(w.conductor() >= 2**63 for w in got)
    assert all(seen.values()), seen
    # one call per alpha tuple over all of its fields, whose side tuples
    # differ, reads one box for all of them and gives each the same field
    for alphas, rows in fields.items():
        ms, Ms, want = zip(*rows)
        rel, witnesses = read_fields(shared.view(alphas), ms, Ms)
        sides = {tuple(math.gcd(mi, shared.view(alphas).two_delta) for mi in m) for m in ms}
        assert len(sides) > 1 and len(shared.view(alphas).boxes) == 1
        for j, (m, M, got) in enumerate(rows):
            assert (1 + len(got), got) == (rel[j], witnesses(j)), (alphas, m, M)


def test_field_degree_agrees_on_ints_int64_and_object_arrays():
    # the fields of one_field_grid, each with the |Rel| that `field` gives
    # it: the degree rule on Python ints, on object arrays of all the fields
    # of one rank, and on int64 arrays of those whose phi(M) * prod(m_i)
    # lies below 2^63
    cache, by_rank = DegreeCache(), {}
    for alphas, m, M in one_field_grid():
        rel, _ = read_fields(cache.view(alphas), [m], [M])
        phi = euler_phi(M)
        by_rank.setdefault(len(m), []).append((m, phi, int(rel[0])))
    seen = {"past 2^63": 0, "int64": 0, "rel > 1": 0}
    for rows in by_rank.values():
        ms, phis, rels = zip(*rows)
        want = [field_degree(phi, m, rel) for m, phi, rel in rows]
        assert all(type(d) is int for d in want)
        assert want == [phi * math.prod(m) // rel for m, phi, rel in rows]
        rel = np.array(rels, dtype=np.int64)
        m = [np.array(mi, dtype=object) for mi in zip(*ms)]
        got = field_degree(np.array(phis, dtype=object), m, rel)
        assert got.dtype == object and got.tolist() == want
        small = [phi * math.prod(m) < 2**63 for m, phi, _ in rows]
        at = np.flatnonzero(small)
        m64 = [np.array(mi, dtype=np.int64)[at] for mi in zip(*ms)]
        got = field_degree(np.array(phis, dtype=object)[at].astype(np.int64), m64, rel[at])
        assert got.dtype == np.int64 and got.tolist() == [want[j] for j in at]
        seen["past 2^63"] += small.count(False)
        seen["int64"] += at.size
        seen["rel > 1"] += int((rel > 1).sum())
    assert all(seen.values()), seen
    # the one divisibility assert, on ints and on arrays
    with pytest.raises(AssertionError):
        field_degree(euler_phi(8), (1,), 3)
    with pytest.raises(AssertionError):
        field_degree(np.array([4, 4]), [np.array([2, 1])], np.array([2, 3]))


def test_field_reads_each_field_alone_past_the_box_cap():
    # 2 Delta = 2 * 1599 = 2 * 3 * 13 * 41 for (2^40 * 3, 3^40 * 2): each
    # field's own box has at most 41 * 26 tuples, but the box with sides
    # lcm(26, 41, 6, 39) = 3198 per alpha passes the cap
    alphas = tuple(map(FactoredRational.of, (2**40 * 3, 3**40 * 2)))
    ms = [(26, 41), (41, 26), (6, 39), (39, 6), (1, 1)]
    Ms = [math.lcm(*m, mult) for m, mult in zip(ms, (1, 4, 2**64, 12, 1))]
    view = DegreeCache().view(alphas)
    assert view.two_delta == 3198 and 3198**2 > kummer.RELATION_ENUMERATION_CAP
    rel, witnesses = read_fields(view, ms, Ms)
    scalar = DegreeCache().view(alphas)
    for j, (m, M) in enumerate(zip(ms, Ms)):
        got = _witnesses(scalar, m, M)
        assert (1 + len(got), got) == (rel[j], witnesses(j))
    assert max(map(math.prod, view.boxes)) <= kummer.RELATION_ENUMERATION_CAP


def test_field_spec_functions_read_no_arrays(monkeypatch):
    def no_arrays(*args):
        raise AssertionError("a FieldSpec function read a field through arrays")

    monkeypatch.setattr(kummer.AlphaBoxes, "field", no_arrays)
    for (alphas, m, M), expected in KNOWN_DEGREES:
        spec = fs(alphas, m, M)
        assert kummer_degree(spec) == expected
        assert degree_info(spec) == (expected, euler_phi(M) * math.prod(m) // expected)
    assert failure_ratio(fs([2, 3], (2, 2), 24)) == 4
    assert count_automorphisms(fs([2], (2,), 8), 2, ()) == 2
    assert count_automorphisms(fs([-8], (3,), 15), 1, ()) == 4
