import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orddensity.arith import FactoredRational, factorize
from orddensity.density import (
    ConditionSpec,
    IndexFixed,
    IndexSet,
    OrderAP,
    SetDescriptor,
    index_density_fixed,
    index_density_set,
    multiplicatively_independent,
    order_density,
)
from orddensity import cli, density, kummer
from orddensity.eulerseries import phi_lcm_tail
from orddensity.kummer import DegreeCache, FieldSpec, kummer_degree

from oracles import _count_units, artin_euler_product, count_automorphisms, scalar_series

TWO = (FactoredRational.of(2),)  # the alphas of a spec or field built directly
EVEN = SetDescriptor.progression(0, 2)


def test_artin_constant_from_series():
    spec = ConditionSpec.make([2], IndexFixed((1,)))
    res = index_density_fixed(spec, nmax=120)
    assert abs(res.value - artin_euler_product(10**5)) < 5e-3
    assert res.terms_evaluated == sum(
        1 for n in range(1, 121) if all(n % (p * p) for p in range(2, 11))
    )


# rank 1 to 3 order progressions ord = a_i (mod d_i), a_i in [0, d_i)
progressions = st.lists(
    st.integers(2, 12).flatmap(lambda d: st.tuples(st.integers(0, d - 1), st.just(d))),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(progressions, st.integers(1, 6))
@example([(1, 2), (0, 3)], 4)  # T = (2, 4): c = 3 (mod 4) and c = 1 (mod 12) clash
def test_order_blocks_are_the_solvable_unit_systems(progression, tmax):
    # brute force over [0, lcm(d_i t_i)): T is a block exactly when some c
    # prime to every d_i meets every c = 1 + a_i t_i (mod d_i t_i)
    a, d = (tuple(col) for col in zip(*progression))
    want = {}
    for T in itertools.product(range(1, tmax + 1), repeat=len(a)):
        moduli = [di * ti for di, ti in zip(d, T)]
        c = np.arange(math.lcm(*moduli))
        meets = np.gcd(c, math.prod(d)) == 1
        for ai, ti, m in zip(a, T, moduli):
            meets &= (c - 1 - ai * ti) % m == 0
        if meets.any():
            want[T] = c.size
    blocks = list(density._order_blocks(a, d, tmax))
    assert [(T, level) for T, _, level in blocks] == list(want.items())  # in product order
    for T, congruences, _ in blocks:
        assert congruences == tuple(
            ((1 + ai * ti) % (di * ti), di * ti) for ai, di, ti in zip(a, d, T)
        )


def test_order_parity_values():
    even = order_density(ConditionSpec.make([2], OrderAP((0,), (2,))), nmax=48, tmax=48)
    odd = order_density(ConditionSpec.make([2], OrderAP((1,), (2,))), nmax=48, tmax=48)
    assert abs(even.value - 17 / 24) < 2e-2
    assert abs(even.value - 17 / 24) <= even.tail_estimate
    assert abs(odd.value - 7 / 24) < 2e-2
    assert abs(even.value + odd.value - 1.0) <= even.tail_estimate + odd.tail_estimate


def test_order_parity_negative_alpha_matches_scan():
    # negative alphas route sign through the root-of-unity bookkeeping;
    # cross-check the whole pipeline against a prime scan
    from orddensity.empirical import scan

    spec = ConditionSpec.make([-2], OrderAP((0,), (2,)))
    series = order_density(spec, nmax=48, tmax=96)
    emp = scan(spec, 10**6)
    assert abs(series.value - emp.ratio_li) / emp.ratio_li < 0.015
    # tail dominated by the t-truncation: doubling tmax moves toward the scan
    shorter = order_density(spec, nmax=48, tmax=48)
    assert shorter.value < series.value
    assert abs(series.value - emp.ratio_li) < abs(shorter.value - emp.ratio_li)


def test_fractional_alpha_index_density_matches_scan():
    from orddensity.empirical import scan

    spec = ConditionSpec.make(["3/2"], IndexFixed((1,)))
    series = index_density_fixed(spec, nmax=100)
    emp = scan(spec, 10**6)
    assert abs(series.value - emp.ratio_li) / emp.ratio_li < 0.01


def test_rank_two_order_mode_converges_to_scan():
    # both orders even: exercises the pairwise solvability filter and the
    # congruence-bearing automorphism counts at rank 2
    from orddensity.empirical import scan

    spec = ConditionSpec.make([2, 3], OrderAP((0, 0), (2, 2)))
    emp = scan(spec, 10**6)
    low = order_density(spec, nmax=12, tmax=12)
    high = order_density(spec, nmax=12, tmax=24)
    assert low.value < high.value <= emp.ratio_li * 1.02
    assert abs(high.value - emp.ratio_li) / emp.ratio_li < 0.2
    assert abs(high.value - emp.ratio_li) <= high.tail_estimate


def test_rank_three_index_density_matches_scan():
    from orddensity.empirical import scan

    spec = ConditionSpec.make([2, 3, 5], IndexFixed((1, 1, 1)))
    series = index_density_fixed(spec, nmax=12)
    emp = scan(spec, 10**6)
    assert abs(series.value - emp.ratio_li) / emp.ratio_li < 0.02


def test_frobenius_refined_index_density_matches_scan():
    # 2 as a primitive root among p = 1 (mod 4)
    from orddensity.empirical import scan

    spec = ConditionSpec.make([2], IndexFixed((1,)), frobenius=(4, {1}))
    series = index_density_fixed(spec, nmax=100)
    emp = scan(spec, 10**6)
    assert abs(series.value - emp.ratio_li) / emp.ratio_li < 0.01


def test_order_density_all_admissible_t_vanishing():
    # with d = 2, a = 1 the single admissible t = 1 has gcd(1 + t, d) = 2
    spec = ConditionSpec.make([2], OrderAP((1,), (2,)))
    res = order_density(spec, nmax=16, tmax=1)
    assert res.value == 0.0


def test_index_set_singleton_matches_fixed_term_for_term():
    fixed = index_density_fixed(
        ConditionSpec.make([2], IndexFixed((3,))), nmax=20, log_terms=True
    )
    viaset = index_density_set(
        ConditionSpec.make([2], IndexSet((SetDescriptor.finite([3]),))),
        nmax=20,
        tmax=10,
        log_terms=True,
    )
    assert fixed.per_term_log == viaset.per_term_log
    assert fixed.value == viaset.value


def test_index_set_complement_sums_to_one():
    even = index_density_set(
        ConditionSpec.make([2], IndexSet((SetDescriptor.progression(0, 2),))),
        nmax=32, tmax=48,
    )
    odd = index_density_set(
        ConditionSpec.make([2], IndexSet((SetDescriptor.progression(1, 2),))),
        nmax=32, tmax=48,
    )
    gap = abs(even.value + odd.value - 1.0)
    assert gap <= even.tail_estimate + odd.tail_estimate
    assert gap < 0.06


def test_index_set_all_k_completeness():
    res = index_density_set(
        ConditionSpec.make([2], IndexSet((SetDescriptor.progression(0, 1),))),
        nmax=32, tmax=64,
    )
    assert abs(res.value - 1.0) <= res.tail_estimate
    assert abs(res.value - 1.0) < 0.05


def test_full_frobenius_class_is_vacuous():
    plain = index_density_fixed(
        ConditionSpec.make([5], IndexFixed((1,))), nmax=24, log_terms=True
    )
    full = index_density_fixed(
        ConditionSpec.make([5], IndexFixed((1,)), frobenius=(4, {1, 3})),
        nmax=24,
        log_terms=True,
    )
    assert full.value == pytest.approx(plain.value, rel=1e-12)
    # term-for-term: the normalized ratio c/degree matches on every summand
    for row_a, row_b in zip(plain.per_term_log, full.per_term_log):
        assert row_a["N"] == row_b["N"] and row_a["T"] == row_b["T"]
        assert row_a["c"] * row_b["degree"] == row_b["c"] * row_a["degree"]
    # same invariance through the order mode, where the progression level
    # already enlarges the field
    plain_o = order_density(
        ConditionSpec.make([2], OrderAP((0,), (2,))), nmax=12, tmax=12, log_terms=True
    )
    full_o = order_density(
        ConditionSpec.make([2], OrderAP((0,), (2,)), frobenius=(3, {1, 2})),
        nmax=12, tmax=12, log_terms=True,
    )
    assert full_o.value == plain_o.value
    for row_a, row_b in zip(plain_o.per_term_log, full_o.per_term_log):
        assert row_a["c"] * row_b["degree"] == row_b["c"] * row_a["degree"]


@pytest.mark.parametrize(
    "alphas, mode, classes, small, tmax",
    [
        pytest.param([2], IndexFixed((1,)), {3}, 8, 16, id="index"),
        pytest.param([2], OrderAP((1,), (3,)), {3}, 16, 8, id="order"),
        pytest.param([2], OrderAP((0,), (2,)), {3, 5}, 16, 8, id="order-two-classes"),
    ],
)
def test_large_frobenius_level_scales_the_small_level_value(alphas, mode, classes, small, tmax):
    # every level M of these series has 2-part exactly `small`, as the n are
    # squarefree, t <= 8 and d <= 3 (t = 1 in index mode); so the condition
    # p mod 2^64 in C meets the same one candidate per class as p mod small
    # in C, and each degree grows by phi(2^64) / phi(small); the level-2^64
    # series runs on Python ints and the other on int64
    low, high = (
        density.evaluate(ConditionSpec.make(alphas, mode, frobenius=(f, classes)), 16, tmax)
        for f in (small, 2**64)
    )
    assert low.value > 0
    assert high.value == low.value / (2**64 // small)
    assert high.terms_evaluated == low.terms_evaluated


def spy_on_series(monkeypatch) -> dict[str, list]:
    """Record the box enumerations, alpha lookups, chunk widths, field
    lookups (each term's (m, M)) and FieldSpec builds of the series
    evaluator."""
    calls: dict[str, list] = {
        "enumerated": [], "views": [], "chunks": [], "looked_up": [], "built": [],
    }
    abelian_box = kummer._abelian_box
    view = DegreeCache.view
    field = kummer.AlphaBoxes.field
    post_init = FieldSpec.__post_init__

    def enumerate_(alphas, sides):
        calls["enumerated"].append(sides)
        return abelian_box(alphas, sides)

    def fetch(cache, alphas):
        calls["views"].append(alphas)
        return view(cache, alphas)

    def lookup(view, m, M):
        calls["chunks"].append(len(M))
        calls["looked_up"].extend(zip(zip(*(mi.tolist() for mi in m)), M.tolist()))
        return field(view, m, M)

    def build(field):
        calls["built"].append(field)
        post_init(field)

    monkeypatch.setattr(kummer, "_abelian_box", enumerate_)
    monkeypatch.setattr(DegreeCache, "view", fetch)
    monkeypatch.setattr(kummer.AlphaBoxes, "field", lookup)
    monkeypatch.setattr(FieldSpec, "__post_init__", build)
    return calls


def chunk_widths(terms: int) -> list[int]:
    """The widths of the chunks of a series of `terms` terms."""
    return [min(density._CHUNK, terms - i) for i in range(0, terms, density._CHUNK)]


def test_order_density_enumerates_each_field_once(monkeypatch):
    calls = spy_on_series(monkeypatch)
    spec = ConditionSpec.make([2], OrderAP((0,), (2,)))
    res = order_density(spec, nmax=24, tmax=24, cache=DegreeCache())
    # one alpha lookup per series, one field lookup per chunk and no
    # FieldSpec built
    assert calls["views"] == [spec.alphas]
    assert calls["chunks"] == chunk_widths(res.terms_evaluated)
    assert len(calls["looked_up"]) == res.terms_evaluated
    assert not calls["built"]
    # Delta = 1 for alpha = 2: every chunk holds an even m, so each chunk
    # reads the box with sides lcm(1, 2) = 2, enumerated once
    assert len(set(calls["looked_up"])) > 2 and calls["enumerated"] == [(2,)]


@pytest.mark.parametrize(
    "frobenius", [pytest.param(None, id="plain"), pytest.param((3, {2}), id="frobenius")]
)
def test_index_set_density_counts_units_only_under_a_condition(monkeypatch, frobenius):
    calls = spy_on_series(monkeypatch)
    counted = []
    one_candidate = density._one_candidate

    def count(view, members, v, M, congruences):
        out = one_candidate(view, members, v, M, congruences)
        counted.append((congruences, out))
        return out

    monkeypatch.setattr(density, "_one_candidate", count)
    spec = ConditionSpec.make([2, 5], IndexSet((EVEN, EVEN)), frobenius=frobenius)
    res = index_density_set(spec, nmax=8, tmax=16, cache=DegreeCache())
    assert res.terms_evaluated == 2304
    assert calls["views"] == [spec.alphas]
    assert calls["chunks"] == chunk_widths(res.terms_evaluated)
    assert len(calls["looked_up"]) == res.terms_evaluated
    assert not calls["built"]
    # one count per chunk; an index set adds no congruence of its own, so
    # only the Frobenius condition (C, f) makes a unit to test, and without
    # it every term counts the one unit c = 1
    assert len(counted) == len(calls["chunks"])
    if frobenius is None:
        assert all(congruences == [] and (units == 1).all() for congruences, units in counted)
    else:
        f, C = spec.frobenius
        assert all(congruences == [(C, f)] for congruences, _ in counted)
        assert any((units == 0).any() for _, units in counted)


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(ConditionSpec.make([2, 3], OrderAP((0, 1), (2, 3))), id="order"),
        pytest.param(
            ConditionSpec.make([2, 3], OrderAP((0, 1), (2, 3)), frobenius=(5, {1, 4})),
            id="order-frobenius",
        ),
        pytest.param(
            ConditionSpec.make([2, 3], IndexFixed((1, 1)), frobenius=(4, {3})), id="frobenius"
        ),
        pytest.param(ConditionSpec.make([2, 3], IndexFixed((1, 1))), id="plain"),
    ],
)
def test_chunks_ending_inside_blocks_count_the_same_terms(monkeypatch, spec):
    # chunks of 7 terms end inside blocks; every term tests its candidate
    # units, one per Frobenius class, over the chunk's arrays
    monkeypatch.setattr(density, "_CHUNK", 7)
    calls = spy_on_series(monkeypatch)
    res = density.evaluate(spec, 6, 4, cache=DegreeCache())
    assert calls["chunks"] == chunk_widths(res.terms_evaluated)
    assert len(calls["enumerated"]) == len(set(calls["enumerated"]))


# (alphas, radical index tuples, levels L of the congruence c = r (mod L)):
# 8 and -27 have Delta = 3, -3 and -4 are negative, 12 has a square factor,
# -4 = -(2^2) has the witness (-4)^(1/4) = zeta_8 * sqrt(2) = 1 + i, whose
# conductor 4 is below those of zeta_8 and sqrt(2); (2, 3) and (-3, 12) are
# rank 2; BIG_ALPHA's sqrt has a conductor past 2^63 and so a witness period
# past kummer.TABLE_CAP, and (2^40 * 3, 3^40 * 2) a shared box past the
# enumeration cap, so its fields are read one at a time
BIG_ALPHA = 3000017 * 3000029 * 3000047
SMALL_M = (1, 2, 3, 4, 6)
CANDIDATE_GRID = [
    *(((a,), [(x,) for x in SMALL_M], (2, 3, 4, 6, 8, 12, 24)) for a in (2, 8, -27, 12, -3, -4)),
    ((2, 3), list(itertools.product(SMALL_M, repeat=2)), (2, 4, 6, 12)),
    ((-3, 12), list(itertools.product(SMALL_M, repeat=2)), (2, 3, 4, 12)),
    ((BIG_ALPHA,), [(1,), (2,)], (2, 12 * BIG_ALPHA)),
    ((2**40 * 3, 3**40 * 2), [(26, 41), (41, 26), (6, 39), (39, 6), (1, 1)], (2, 12)),
]


# Frobenius class sets (f, C): f = 1 is vacuous, and 3, 4, 8 and 12 share
# primes with the radical indices and the levels above, so that some classes
# meet no candidate of a progression; f = 12 with four classes gives counts
# up to 4
FROBENIUS_SETS = [
    (1, (0,)), (3, (2,)), (4, (1, 3)), (5, (1, 4)), (8, (3, 5, 7)), (12, (1, 5, 7, 11))
]


@pytest.mark.parametrize(
    "alphas, ms, levels",
    CANDIDATE_GRID,
    ids=[*"2 8 -27 12 -3 -4 2-3 -3-12".split(), "big-alpha", "cap-fallback"],
)
def test_one_candidate_matches_count_units_term_by_term(alphas, ms, levels):
    # index blocks, with no progression, and every residue r mod L, units or
    # not, solvable or not, each with no Frobenius condition and under every
    # class set; the grid runs on Python ints, and again on int64 where its
    # levels allow
    view = DegreeCache().view(tuple(map(FactoredRational.of, alphas)))
    progressions = [
        ((r, L),)
        for L in levels
        for r in (range(L) if L <= 24 else (1, 5, 7, L // 2 + 1, L - 1))
    ]
    exercised = set()
    for frobenius in (None, *FROBENIUS_SETS):
        f, C = frobenius or (1, ())
        for blocks in ([()], progressions):
            rows = [
                (m, math.lcm(*m), math.lcm(*m, f, *(L for _, L in block)), block)
                for block in blocks
                for m in ms
            ]
            m, v, M, congruences = zip(*rows)
            for dtype in (object, np.int64)[: 1 + (max(M) < 2**26)]:
                v_, M_ = (np.array(xs, dtype=dtype) for xs in (v, M))
                mi = [np.array(column, dtype=dtype) for column in zip(*m)]
                _, members = view.field(mi, M_)
                pairs = [(C, f)] if frobenius else []
                if blocks is progressions:
                    residue, L = (
                        np.array(xs, dtype=dtype) for xs in zip(*(c for c, in congruences))
                    )
                    pairs.insert(0, ([residue], L))
                got = density._one_candidate(view, members, v_, M_, pairs)
                witnesses = [[] for _ in rows]
                for value, inside in members:
                    for j in inside.tolist():
                        witnesses[j].append(value)
                want = [
                    _count_units(M_j, v_j, block, frobenius, w)
                    for (_, v_j, M_j, block), w in zip(rows, witnesses)
                ]
                assert got.tolist() == want, (frobenius, dtype)
                unwitnessed = density._one_candidate(view, [], v_, M_, pairs)
                held = np.array([bool(w) for w in witnesses])
                if (got[held] > 0).any():
                    exercised.add(("passes", frobenius is None))
                if (unwitnessed > got).any():
                    exercised.add(("rejects", frobenius is None))
    # with and without a Frobenius condition, a witness passes some units
    # and rejects others
    assert exercised == {(x, plain) for x in ("passes", "rejects") for plain in (True, False)}


def test_series_read_totients_without_factoring_levels(monkeypatch):
    # ord_2 even and ord_2 = 1 (mod 3): a term's level is M = lcm(n t, d t),
    # and the two series share some of their levels
    specs = [
        ConditionSpec.make([2], OrderAP((0,), (2,))),
        ConditionSpec.make([2], OrderAP((1,), (3,))),
    ]
    fresh = [density.evaluate(s, 16, 16, log_terms=True, cache=DegreeCache()) for s in specs]
    levels = [
        {math.lcm(r["N"][0], s.mode.d[0]) * r["T"][0] for r in res.per_term_log}
        for s, res in zip(specs, fresh)
    ]
    assert levels[0] & levels[1]
    euler_phi, factorize = kummer.euler_phi, density.factorize
    calls, factored = [], []

    def phi(M):
        calls.append(M)
        return euler_phi(M)

    def factor(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(kummer, "euler_phi", phi)
    monkeypatch.setattr(density, "factorize", factor)
    cache = DegreeCache()
    shared = []
    for spec in specs:
        factored.clear()
        shared.append(density.evaluate(spec, 16, 16, cache=cache))
        # phi(M) comes from the support's phi(n) and the primes of f, the d_i
        # and each t, factored once per series: no level is factored
        assert not calls
        assert len(factored) <= 2 + 16
        assert max(factored) <= 16 < max(levels[0] | levels[1])
    for a, b in zip(shared, fresh):
        assert (a.value.hex(), a.terms_evaluated, a.caps, a.tail_estimate.hex()) == (
            b.value.hex(), b.terms_evaluated, b.caps, b.tail_estimate.hex()
        )
    # a failure ratio computes no phi: not one field's, nor the failure
    # bound's over the grid of `verify kummer`
    assert kummer.failure_ratio(FieldSpec(TWO, (2,), 8 * max(levels[1]))) == 2
    assert cli.failure_bound(240) == 24
    assert not calls


def finite_sum(alphas, T) -> tuple[Fraction, list[int]]:
    """(sum of mu * count / degree over the tuples of squarefree N_i | prod B,
    B) for ind_p(alpha_i) = t_i, with B the primes of 2 Delta, the alphas'
    supports and the t_i: density._terms over that support, summed exactly."""
    alphas = tuple(map(FactoredRational.of, alphas))
    top = 2 * kummer.exponent_minor_gcd(alphas) * math.prod(T)
    top *= math.prod(p for a in alphas for p in a.support())
    B = [p for p, _ in factorize(top).factors]
    subsets = [c for k in range(len(B) + 1) for c in itertools.combinations(B, k)]
    rows = sorted((math.prod(c), (-1) ** len(c), math.prod(p - 1 for p in c)) for c in subsets)
    support = tuple(np.array(col, dtype=np.int64) for col in zip(*rows))
    picks = [np.arange(len(rows))] * len(alphas)
    view = DegreeCache().view(alphas)
    total = Fraction(0)
    runs = density._terms(view, [(T, (), 1)], support, picks, set(), None, None)
    for mu, count, degree, _ in runs:
        total += sum(map(Fraction, (mu * count).tolist(), degree.tolist()), Fraction(0))
    return total, B


# The finite entangled sums of ind_p = 1 over N_i | prod B, and Hooley's
# correction factor A(g)/A = finite sum / prod_{l in B} (1 - 1/(l(l - 1)))
# for rank 1 (Hooley 1967; Moree, "Artin's primitive root conjecture - a
# survey"): 1 unless g is a power or its discriminant is 1 mod 4
FINITE_SUMS = [
    ((2,), Fraction(1, 2), Fraction(1)),
    ((3,), Fraction(5, 12), Fraction(1)),
    ((6,), Fraction(5, 12), Fraction(1)),
    ((12,), Fraction(5, 12), Fraction(1)),
    ((5,), Fraction(1, 2), Fraction(20, 19)),
    ((-3,), Fraction(1, 2), Fraction(6, 5)),
    ((-27,), Fraction(1, 2), Fraction(6, 5)),
    ((8,), Fraction(1, 4), Fraction(3, 5)),
    ((-15,), Fraction(47, 120), 1 - Fraction(1, 5 * 19)),
    ((2, 3), Fraction(13, 72), None),
    ((2, 3, 5), Fraction(35, 432), None),
]


@pytest.mark.parametrize("alphas, exact, hooley", FINITE_SUMS)
def test_term_walker_sums_entangled_densities_exactly(alphas, exact, hooley):
    total, B = finite_sum(alphas, (1,) * len(alphas))
    assert total == exact
    if hooley is not None:
        assert total / math.prod(1 - Fraction(1, p * (p - 1)) for p in B) == hooley


def test_series_memory_does_not_hold_the_term_product():
    # (2,3,5) index (1,1,1) at nmax 32 has 20^3 = 8,000 terms.  After a
    # warm-up call, the traced peak of this call, with a fresh DegreeCache,
    # is about 197 KB, so a chunk-layout change has about 60 KB to spare
    # under the bound; building the terms' product as a list took it to 2.0 MB,
    # and holding one run's arrays while the walker made the next, 230 KB
    spec = ConditionSpec.make([2, 3, 5], IndexFixed((1, 1, 1)))
    density.evaluate(spec, 32, cache=DegreeCache())
    tracemalloc.start()
    try:
        res = density.evaluate(spec, 32, cache=DegreeCache())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.terms_evaluated == 8000
    assert peak < 256 * 2**10


def test_rank_one_series_shape():
    spec = ConditionSpec.make([2], OrderAP((0,), (2,)))
    res = order_density(spec, nmax=10, tmax=4, log_terms=True)
    assert res.per_term_log
    for row in res.per_term_log:
        (n,), (t,) = row["N"], row["T"]
        assert row["mu"] in (-1, 1)
        level = math.lcm(2 * t, n * t)
        expected = kummer_degree(
            FieldSpec.make([2], (n * t,), level)
        )
        assert row["degree"] == expected


# (spec, nmax, tmax, (value.hex(), terms_evaluated, caps, tail_estimate.hex())),
# one spec per mode, recorded from the separate per-mode evaluators that
# `evaluate` replaced
PINNED_SERIES = [
    (
        ConditionSpec.make([2, 3], IndexFixed((1, 2))), 12, 12,
        ("0x1.f9f3d09083cdbp-4", 64, (12, 0), "0x1.2e028acb255a7p-1"),
    ),
    (
        ConditionSpec.make([2], IndexSet((SetDescriptor.finite([1, 3, 20]),))), 16, 12,
        ("0x1.c164735e7bb93p-2", 22, (16, 12), "0x1.0c288a7d98c27p-2"),
    ),
    (
        ConditionSpec.make([3], IndexSet((SetDescriptor.progression(1, 2),))), 16, 16,
        ("0x1.eea8013a507d4p-2", 88, (16, 16), "0x1.d49d14601854fp-3"),
    ),
    (
        ConditionSpec.make([2], OrderAP((1,), (3,)), frobenius=(5, {1, 4})), 12, 12,
        ("0x1.368f6ae94888cp-3", 48, (12, 12), "0x1.2e028acb255a7p-1"),
    ),
]


# (spec, nmax, tmax, (value.hex(), terms_evaluated, tail_estimate.hex())).
# The first four were recorded before `evaluate` read each term's field off
# the alphas' box view: Artin, ord_2 odd on p = 3 (mod 4), (2,3) index (1,1),
# (2,5) both indices even.  The last three, recorded before its term loop
# dropped the unit count where that count is 1, pin the terms that still
# count units: a Frobenius condition on a fixed index and on an index set,
# and a rank-2 order progression.  The values of index-2-3,
# index-2-3-frobenius and order-2-3 moved by 1-2 ulp when the quotients
# came to be added by `math.fsum` instead of a compensated loop, each to the
# correctly rounded sum of its logged quotients
GOLDEN_SERIES = [
    pytest.param(
        ConditionSpec.make([2], IndexFixed((1,))), 64, 64,
        ("0x1.7fbcdf5806c43p-2", 39, "0x1.ebe31daa031bbp-6"), id="artin",
    ),
    pytest.param(
        ConditionSpec.make([2], OrderAP((1,), (2,)), frobenius=(4, {3})), 16, 16,
        ("0x1.e2990295d450ep-3", 56, "0x1.d49d14601854fp-2"), id="ord2-odd-frobenius",
    ),
    pytest.param(
        ConditionSpec.make([2, 3], IndexFixed((1, 1))), 16, 64,
        ("0x1.2ddeb49c0313bp-3", 121, "0x1.d49d14601854fp-3"), id="index-2-3",
    ),
    pytest.param(
        ConditionSpec.make([2, 5], IndexSet((EVEN, EVEN))), 8, 16,
        ("0x1.71b3d9208eafep-3", 2304, "0x1.559540d542a9ep+1"), id="both-even-2-5",
    ),
    pytest.param(
        ConditionSpec.make([2, 3], IndexFixed((1, 1)), frobenius=(5, {1, 4})), 16, 64,
        ("0x1.134be18abf614p-4", 121, "0x1.d49d14601854fp-3"), id="index-2-3-frobenius",
    ),
    pytest.param(
        ConditionSpec.make([2, 5], IndexSet((EVEN, EVEN)), frobenius=(3, {2})), 8, 16,
        ("0x1.ab861c123855ap-4", 2304, "0x1.559540d542a9ep+1"), id="both-even-2-5-frobenius",
    ),
    pytest.param(
        ConditionSpec.make([2, 3], OrderAP((0, 1), (2, 3))), 8, 8,
        ("0x1.a5457ddf8539ep-3", 816, "0x1.c0dbf77a79295p+1"), id="order-2-3",
    ),
]


@pytest.mark.parametrize("spec, nmax, tmax, pinned", GOLDEN_SERIES)
def test_evaluate_matches_golden_series(spec, nmax, tmax, pinned):
    res = density.evaluate(spec, nmax, tmax, log_terms=True)
    assert (res.value.hex(), res.terms_evaluated, res.tail_estimate.hex()) == pinned
    assert len(res.per_term_log) == res.terms_evaluated
    # every logged term against the public per-field path
    frobenius = spec.frobenius
    f = frobenius[0] if frobenius else 1
    for row in res.per_term_log:
        m = [n * t for n, t in zip(row["N"], row["T"])]
        congruences, extra_level = (), 1
        if isinstance(spec.mode, OrderAP):
            mods = [d * t for d, t in zip(spec.mode.d, row["T"])]
            congruences = tuple(
                ((1 + a * t) % mod, mod) for a, t, mod in zip(spec.mode.a, row["T"], mods)
            )
            extra_level = math.lcm(*mods)
        field = FieldSpec.make(spec.alphas, m, math.lcm(*m, extra_level, f))
        assert row["degree"] == kummer_degree(field)
        assert row["c"] == count_automorphisms(field, math.lcm(*m), congruences, frobenius)


# (spec, nmax, (value.hex(), terms_evaluated, caps, tail_estimate.hex()),
# terms of degree >= 2^53), recorded before the series ran in array chunks.
# The first runs on Python ints, and its value moved by 1 ulp to the
# correctly rounded sum of `math.fsum`; the one block of the second spans
# many chunks
LARGE_SERIES = [
    pytest.param(
        ConditionSpec.make([2, 3], IndexFixed((10**5, 10**5))), 64,
        ("0x1.4cd4a745c920fp-50", 1521, (64, 0), "0x1.ebe31daa031bbp-3"), 1502,
        id="index-2-3-past-2^53",
    ),
    pytest.param(
        ConditionSpec.make([2, 3, 5], IndexFixed((1, 1, 1))), 64,
        ("0x1.1c8d287207af2p-4", 59319, (64, 0), "0x1.70ea563f8254cp-3"), 0,
        id="index-2-3-5",
    ),
]


@pytest.mark.parametrize("spec, nmax, pinned, past_exact", LARGE_SERIES)
def test_evaluate_matches_large_series(spec, nmax, pinned, past_exact):
    res = density.evaluate(spec, nmax, log_terms=True)
    assert (res.value.hex(), res.terms_evaluated, res.caps, res.tail_estimate.hex()) == pinned
    assert sum(row["degree"] >= 2**53 for row in res.per_term_log) == past_exact


# (spec, nmax, tmax): the three modes, ranks 1-3, Frobenius levels 4, 5 and
# 8, the alphas -3, 3/5, 12 and -27, two specs whose chunks run on Python
# ints, an index set whose fifth chunk holds an int64 block, T = (3000, 1),
# and a Python-int block, T = (3000, 3000), an index set with no index up
# to tmax, so no block at all, and an alpha whose box holds a conductor
# past int64
ORACLE_GRID = [
    pytest.param(ConditionSpec.make([Fraction(3, 5)], IndexFixed((1,))), 64, 64, id="3/5"),
    pytest.param(
        ConditionSpec.make([-27], IndexFixed((3,)), frobenius=(4, {1})), 48, 48,
        id="-27-frobenius-4",
    ),
    pytest.param(
        ConditionSpec.make(
            [12, -3], IndexSet((EVEN, SetDescriptor.finite([1, 3]))), frobenius=(5, {1, 4})
        ),
        12, 12, id="12-3-set-frobenius-5",
    ),
    pytest.param(
        ConditionSpec.make([-3], OrderAP((1,), (3,)), frobenius=(8, {1, 5})), 24, 24,
        id="-3-order-frobenius-8",
    ),
    pytest.param(ConditionSpec.make([2, 3, 5], IndexFixed((1, 1, 1))), 12, 12, id="2-3-5"),
    pytest.param(
        ConditionSpec.make([-3, 12, Fraction(3, 5)], OrderAP((0, 1, 0), (2, 3, 2))), 6, 3,
        id="rank-3-order",
    ),
    pytest.param(
        ConditionSpec.make([2, 3], IndexFixed((10**5, 10**5))), 16, 16, id="2-3-python-ints"
    ),
    pytest.param(
        ConditionSpec.make([-27], IndexFixed((10**9,)), frobenius=(5, {2})), 8, 8,
        id="-27-python-ints-frobenius-5",
    ),
    pytest.param(
        ConditionSpec.make([2, 3], IndexSet((SetDescriptor.finite([1, 3000]),) * 2)), 64, 3000,
        id="2-3-set-mixed-dtypes",
    ),
    pytest.param(ConditionSpec.make([2], IndexSet((EVEN,))), 12, 1, id="no-block"),
    pytest.param(
        # three primes near 3 * 10^6: the conductor of the square root, 4 times
        # their product, is past 2^63
        ConditionSpec.make([3000017 * 3000029 * 3000047], IndexFixed((2,))), 16, 16,
        id="conductor-past-int64",
    ),
]


@pytest.mark.parametrize("chunk", [None, 7], ids=["chunk-default", "chunk-7"])
@pytest.mark.parametrize("spec, nmax, tmax", ORACLE_GRID)
def test_evaluate_matches_scalar_series(monkeypatch, spec, nmax, tmax, chunk):
    if chunk is not None:
        monkeypatch.setattr(density, "_CHUNK", chunk)
    got = density.evaluate(spec, nmax, tmax, log_terms=True, cache=DegreeCache())
    want = scalar_series(spec, nmax, tmax)
    assert (got.value.hex(), got.terms_evaluated, got.caps, got.tail_estimate.hex()) == (
        want.value.hex(), want.terms_evaluated, want.caps, want.tail_estimate.hex()
    )
    assert got.per_term_log == want.per_term_log
    assert density.evaluate(spec, nmax, tmax).value.hex() == got.value.hex()


# (spec, nmax, tmax) of every pinned and oracle-checked series above
SUMMED_SERIES = [
    *(pytest.param(*p.values[:3], id=f"golden-{p.id}") for p in GOLDEN_SERIES),
    *(pytest.param(*p.values[:2], density.DEFAULT_TMAX, id=f"large-{p.id}") for p in LARGE_SERIES),
    *(pytest.param(*p.values, id=f"grid-{p.id}") for p in ORACLE_GRID),
]


@pytest.mark.parametrize("spec, nmax, tmax", SUMMED_SERIES)
def test_evaluate_is_the_correctly_rounded_sum(spec, nmax, tmax):
    # the value is the exact sum of the float64 quotients of the term log,
    # rounded once, whatever their order
    res = density.evaluate(spec, nmax, tmax, log_terms=True)
    log = res.per_term_log
    exact = sum(Fraction(row["mu"] * row["c"] / row["degree"]) for row in log if row["c"])
    assert res.value == float(exact)


@pytest.mark.parametrize("spec, nmax, tmax, pinned", PINNED_SERIES)
def test_evaluate_matches_pinned_series(spec, nmax, tmax, pinned):
    res = density.evaluate(spec, nmax, tmax)
    assert (res.value.hex(), res.terms_evaluated, res.caps, res.tail_estimate.hex()) == pinned
    # every per-mode name evaluates the spec's own mode
    for name in (index_density_fixed, index_density_set, order_density):
        assert name(spec, nmax=nmax, tmax=tmax) == res


def test_values_lie_in_unit_interval_up_to_tail():
    for spec, kw in [
        (ConditionSpec.make([2], IndexFixed((1,))), dict(nmax=32)),
        (ConditionSpec.make([3], IndexFixed((2,))), dict(nmax=32)),
        (ConditionSpec.make([2, 3], IndexFixed((1, 1))), dict(nmax=16)),
    ]:
        res = index_density_fixed(spec, **kw)
        assert 0.0 <= res.value <= 1.0 + res.tail_estimate


# sqrt(5) lies in Q(zeta_10), so the series of 5 sees the failure ratio b = 2
FIVE = ConditionSpec.make([5], IndexFixed((1,)))


def test_tail_estimate_definition():
    b = 2
    nmax = 32
    grid = phi_lcm_tail(1, nmax, 4 * nmax)
    tail = index_density_fixed(FIVE, nmax=nmax).tail_estimate
    assert tail == pytest.approx(b * (grid + grid / 3.0))


def test_tail_estimate_halves_when_cap_doubles():
    t1 = index_density_fixed(FIVE, nmax=32).tail_estimate
    t2 = index_density_fixed(FIVE, nmax=64).tail_estimate
    assert t2 < t1
    assert t1 / t2 == pytest.approx(2.0, rel=0.5)  # 1/x law within factor 3


def test_condition_spec_validation():
    with pytest.raises(ValueError):
        ConditionSpec.make([2, 4], IndexFixed((1, 1)))  # dependent: 4 = 2^2
    with pytest.raises(ValueError):
        ConditionSpec.make([2, 8], IndexFixed((1, 1)))  # dependent: 8 = 2^3
    with pytest.raises(ValueError):
        ConditionSpec.make([2], OrderAP((0,), (1,)))  # modulus < 2
    with pytest.raises(ValueError):
        ConditionSpec.make([2], IndexFixed((0,)))
    with pytest.raises(ValueError):
        ConditionSpec.make([2], IndexFixed((1,)), frobenius=(4, {2}))  # 2 not a unit
    with pytest.raises(ValueError):
        ConditionSpec.make([2], IndexFixed((1,)), frobenius=(0, {1}))  # level < 1
    with pytest.raises(ValueError):
        ConditionSpec.make([-2, 2], IndexFixed((1, 1)))  # (-2)^2 = 2^2
    # an index set given as the CLI's string, not parsed, or as a bare index
    with pytest.raises(ValueError, match="SetDescriptor"):
        ConditionSpec.make([2], IndexSet(("ap:0:2",)))
    with pytest.raises(ValueError, match="SetDescriptor"):
        ConditionSpec.make([2, 3], IndexSet((EVEN, 2)))
    ConditionSpec.make([6, 10, 15], IndexFixed((1, 1, 1)))


def test_multiplicative_independence_checker():
    mk = FactoredRational.from_fraction
    assert multiplicatively_independent([mk(2), mk(3)])
    assert not multiplicatively_independent([mk(2), mk(4)])
    assert not multiplicatively_independent([mk(6), mk(10), mk(15), mk(30)])
    assert multiplicatively_independent([mk(-2), mk(3)])
    assert not multiplicatively_independent([mk(-2), mk(2)])  # (-2)^2 = 2^2
    assert not multiplicatively_independent([mk(-2), mk(-8)])  # (-2)^3 = -8


def test_set_descriptor():
    s = SetDescriptor.finite([3, 1, 3])
    assert s.values == (1, 3)
    assert s.upto(2) == [1]
    assert not s.truncated_above(3)
    ap = SetDescriptor.progression(2, 5)
    assert ap.upto(14) == [2, 7, 12]
    assert ap.truncated_above(100)
    allk = SetDescriptor.progression(0, 1)
    assert allk.upto(4) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        SetDescriptor.finite([0, 2])


@pytest.mark.parametrize(
    "kind, kwargs",
    [
        pytest.param("ap", dict(a=1, d=0), id="ap-modulus-0"),
        pytest.param("ap", dict(a=3, d=2), id="ap-residue-past-modulus"),
        pytest.param("ap", dict(a=-1, d=2), id="ap-negative-residue"),
        pytest.param("ap", dict(a=1, d=2.0), id="ap-float-modulus"),
        pytest.param("finite", dict(values=(1.5,)), id="finite-float"),
        pytest.param("finite", dict(values=(0, 2)), id="finite-zero"),
        pytest.param("finite", dict(values=(3, 1)), id="finite-unsorted"),
        pytest.param("finite", dict(values=(1, 1)), id="finite-repeat"),
        pytest.param("finite", dict(), id="finite-empty"),
        pytest.param("range", dict(values=(1,)), id="unknown-kind"),
    ],
)
def test_set_descriptor_built_directly_is_validated(kind, kwargs):
    with pytest.raises(ValueError):
        SetDescriptor(kind, **kwargs)


def test_set_descriptor_built_directly_matches_factories():
    assert SetDescriptor("finite", (1, 3)) == SetDescriptor.finite([3, 1, 3])
    assert SetDescriptor("ap", a=3, d=4) == SetDescriptor.progression(-1, 4)
    assert type(SetDescriptor("finite", (np.int64(2),)).values[0]) is int


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: FieldSpec.make([2], (2.7,), 4), id="field-m"),
        pytest.param(lambda: FieldSpec.make([2], (2,), 4.9), id="field-M"),
        pytest.param(
            lambda: ConditionSpec.make([2], IndexFixed((1,)), frobenius=(4.5, {3})),
            id="frobenius-level",
        ),
        pytest.param(
            lambda: ConditionSpec.make([2], IndexFixed((1,)), frobenius=(4, {3.2})),
            id="frobenius-class",
        ),
        pytest.param(lambda: SetDescriptor.finite([1.5, 2]), id="finite"),
        pytest.param(lambda: SetDescriptor.progression(1.5, 2), id="progression-a"),
        pytest.param(lambda: SetDescriptor.progression(1, 2.0), id="progression-d"),
        pytest.param(lambda: SetDescriptor.finite(["3"]), id="finite-str"),
        pytest.param(lambda: ConditionSpec.make([2], IndexFixed((1.5,))), id="index-target"),
        pytest.param(lambda: ConditionSpec.make([2], IndexFixed(("1",))), id="index-target-str"),
        pytest.param(lambda: ConditionSpec.make([2], OrderAP((0.5,), (2,))), id="order-a"),
        pytest.param(lambda: ConditionSpec.make([2], OrderAP((0,), (2.5,))), id="order-d"),
        # built directly, without make
        pytest.param(lambda: ConditionSpec(TWO, IndexFixed((1.5,))), id="direct-index-target"),
        pytest.param(lambda: ConditionSpec(TWO, OrderAP((0,), (2.5,))), id="direct-order-d"),
        pytest.param(
            lambda: ConditionSpec(TWO, IndexFixed((1,)), (4.0, {3})), id="direct-frobenius-level"
        ),
        pytest.param(
            lambda: ConditionSpec(TWO, IndexFixed((1,)), (4, {3.0})), id="direct-frobenius-class"
        ),
        pytest.param(lambda: FieldSpec(TWO, (2.0,), 8), id="direct-field-m"),
        pytest.param(lambda: FieldSpec(TWO, (2,), 8.0), id="direct-field-M"),
    ],
)
def test_spec_constructors_reject_non_integers(build):
    with pytest.raises(ValueError):
        build()


def test_spec_constructors_accept_numpy_integers():
    i = np.int64
    assert FieldSpec.make([2], (i(2),), i(4)) == FieldSpec.make([2], (2,), 4)
    assert ConditionSpec.make(
        [2], IndexFixed((1,)), frobenius=(i(4), {i(3)})
    ) == ConditionSpec.make([2], IndexFixed((1,)), frobenius=(4, {3}))
    assert SetDescriptor.finite([i(2), i(1)]) == SetDescriptor.finite([1, 2])
    assert SetDescriptor.progression(i(1), i(2)) == SetDescriptor.progression(1, 2)
    assert type(SetDescriptor.progression(i(1), i(2)).a) is int
    fixed = ConditionSpec.make([2], IndexFixed((i(2),)))
    assert fixed == ConditionSpec.make([2], IndexFixed((2,)))
    assert type(fixed.mode.T[0]) is int
    order = ConditionSpec.make([2], OrderAP((i(1),), (i(2),)))
    twin = ConditionSpec.make([2], OrderAP((1,), (2,)))
    assert order == twin
    assert type(order.mode.a[0]) is int and type(order.mode.d[0]) is int
    assert order_density(order, nmax=16, tmax=16) == order_density(twin, nmax=16, tmax=16)
    direct = ConditionSpec(TWO, IndexFixed((i(1),)), (i(4), [i(7)]))
    assert direct == ConditionSpec.make([2], IndexFixed((1,)), frobenius=(4, {3}))
    assert direct.frobenius == (4, frozenset({3})) and type(direct.mode.T[0]) is int
