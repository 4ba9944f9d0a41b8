"""The vectorised per-prime index kernel against prime-by-prime references."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orddensity import arith
from orddensity.arith import (
    POWMOD_FLOAT_BOUND,
    FactoredRational,
    factorize,
    powmod,
    residues,
    segmented_primes,
)
from orddensity.density import (
    ConditionSpec,
    IndexFixed,
    IndexSet,
    OrderAP,
    SetDescriptor,
    multiplicatively_independent,
)
from orddensity import empirical
from orddensity.empirical import _FULL_PLAN, scan, scan_many

from oracles import block_indices, brute_scan, trial_order

BIG_ALPHA = 3**41 * 5  # does not fit in int64


def expected_indices(q: Fraction, primes):
    """(p - 1)/ord_p(q) by trial division, None where p divides q."""
    out = []
    for p in primes.tolist():
        if (q.numerator * q.denominator) % p == 0:
            out.append(None)
        else:
            out.append((p - 1) // trial_order(q.numerator * pow(q.denominator, -1, p) % p, p))
    return out


def check_block(alphas, lo, width):
    primes = segmented_primes(lo, lo + width)
    ind = block_indices(
        primes, [FactoredRational.from_fraction(q) for q in alphas], [_FULL_PLAN] * len(alphas)
    )
    assert ind.shape == (len(alphas), primes.size)
    # a prime dividing alpha reads it as 1, whose index is p - 1
    for q, row in zip(alphas, ind.tolist()):
        for got, want, p in zip(row, expected_indices(q, primes), primes.tolist()):
            assert got == (p - 1 if want is None else want)


nonunit = st.integers(-10**6, 10**6).filter(lambda n: n not in (-1, 0, 1))


@settings(max_examples=60, deadline=None)
@given(
    num=nonunit,
    den=st.integers(1, 1000),
    lo=st.integers(2, 10**6),
    width=st.integers(1, 3000),
)
def test_block_indices_match_trial_division_orders(num, den, lo, width):
    q = Fraction(num, den)
    assume(abs(q) != 1)
    check_block([q], lo, width)


@settings(max_examples=5, deadline=None)
@given(lo=st.integers(10**9 - 10**5, 10**9 - 600))
def test_block_indices_near_scan_cap(lo):
    # p^2 close to 2^60: the int64 products must not overflow
    check_block([Fraction(2), Fraction(-3, 7), Fraction(BIG_ALPHA)], lo, 600)


def test_residues_of_huge_numerators():
    primes = segmented_primes(2, 5000)
    for n in (BIG_ALPHA, -BIG_ALPHA, 2**200 + 1, -(10**40)):
        assert residues(n, primes).tolist() == [n % p for p in primes.tolist()]
    check_block([Fraction(BIG_ALPHA), Fraction(1, BIG_ALPHA * 7)], 2, 5000)


def test_scan_of_big_alpha_pinned():
    res = scan(ConditionSpec.make([BIG_ALPHA], OrderAP((0,), (2,))), 10**4)
    assert (res.matched, res.considered) == (812, 1227)
    assert res.excluded == (3, 5)


POOL = [Fraction(v) for v in ("2", "3", "5", "-2", "3/4", "7", "10/3", "-5/9")]

finite_set = st.lists(st.integers(1, 8), min_size=1, max_size=3)
index_set = st.one_of(
    st.builds(lambda vs: ("finite", tuple(sorted(set(vs)))), finite_set),
    st.builds(lambda a, d: ("ap", a, d), st.integers(0, 5), st.integers(1, 4)),
)


def mode_of(mode: str, params):
    """The condition mode of `oracles.brute_scan`'s (mode, params)."""
    if mode == "index":
        return IndexFixed(tuple(params))
    if mode == "order":
        return OrderAP(tuple(a for a, _ in params), tuple(d for _, d in params))
    return IndexSet(
        tuple(
            SetDescriptor.finite(s[1]) if s[0] == "finite" else SetDescriptor.progression(*s[1:])
            for s in params
        )
    )


@st.composite
def small_specs(draw):
    alphas = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=2, unique=True))
    r = len(alphas)
    mode = draw(st.sampled_from(["index", "order", "indexset"]))
    if mode == "index":
        params = draw(st.lists(st.integers(1, 6), min_size=r, max_size=r))
    elif mode == "order":
        params = draw(
            st.lists(st.tuples(st.integers(0, 5), st.integers(2, 6)), min_size=r, max_size=r)
        )
    else:
        params = draw(st.lists(index_set, min_size=r, max_size=r))
    m = mode_of(mode, params)
    frobenius = None
    if draw(st.booleans()):
        f = draw(st.integers(1, 12))
        units = [c for c in range(f) if math.gcd(c, f) == 1]
        classes = draw(st.lists(st.sampled_from(units), min_size=1, unique=True))
        frobenius = (f, frozenset(classes))
    return alphas, mode, params, m, frobenius


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(small_specs(), min_size=1, max_size=3),
    x=st.integers(2, 3000),
    segment=st.sampled_from([7, 256, 1 << 22]),
)
def test_scan_many_matches_prime_by_prime_classifier(specs, x, segment):
    for alphas, *_ in specs:
        assume(multiplicatively_independent([FactoredRational.from_fraction(q) for q in alphas]))
    built = [ConditionSpec.make(alphas, m, frob) for alphas, _, _, m, frob in specs]
    with mock.patch.object(empirical, "SEGMENT", segment):
        results = scan_many(built, x)
    for (alphas, mode, params, _, frob), res in zip(specs, results):
        matched, considered, checkpoints = brute_scan(alphas, mode, params, frob, x)
        assert (res.matched, res.considered) == (matched, considered)
        assert res.checkpoints == checkpoints


# ---------------------------------------------------------------------------
# q-part plans: the kernel reads prod q^min(v_q(ind), cap_q)


def capped(ind: int, plan) -> int:
    rest, caps = plan
    return math.prod(q ** min(v, caps.get(q, rest)) for q, v in factorize(ind).factors)


q_plan = st.tuples(
    st.sampled_from([0, 1, 2, 40]),  # 40 passes every exponent of p - 1
    st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 4), max_size=4),
)


# blocks (lo, width): narrow ones from 2 up, whose powers run in float64,
# and below the scan cap, in int64; 4,000-wide ones below POWMOD_FLOAT_BOUND,
# whose one power per alpha holds thousands of rows; and ones across 2^25
# (the first prime past it is 2^25 + 35), whose powers all run in int64
BLOCKS = st.one_of(
    st.tuples(st.integers(2, 10**6), st.integers(1, 600)),
    st.tuples(st.integers(10**9 - 10**5, 10**9 - 600), st.integers(1, 600)),
    st.tuples(st.integers(1 << 22, POWMOD_FLOAT_BOUND - 4000), st.just(4000)),
    st.builds(
        lambda below, above: (POWMOD_FLOAT_BOUND - below, below + above),
        st.integers(1, 600),
        st.integers(36, 600),
    ),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), block=BLOCKS)
def test_block_indices_read_the_capped_q_parts(data, block):
    lo, width = block
    pool = st.sampled_from(POOL + [Fraction(BIG_ALPHA)])
    alphas = data.draw(st.lists(pool, min_size=1, max_size=3, unique=True))
    plans = data.draw(st.lists(q_plan, min_size=len(alphas), max_size=len(alphas)))
    primes = segmented_primes(lo, lo + width)
    ind = block_indices(primes, [FactoredRational.from_fraction(q) for q in alphas], plans)
    for q, plan, row in zip(alphas, plans, ind.tolist()):
        for got, want in zip(row, expected_indices(q, primes)):
            assert want is None or got == capped(want, plan)


TWO, THREE_QUARTERS = Fraction(2), Fraction(3, 4)
# every plan rule, on specs that share the alpha 2
NARROW_PLANS = [
    ([TWO], "index", (4,), None),  # prime power
    ([TWO], "index", (6,), None),
    ([TWO], "indexset", [("finite", (2, 8, 9))], None),  # prime powers
    ([TWO], "indexset", [("ap", 0, 1)], None),  # d = 1
    ([TWO], "indexset", [("ap", 0, 12)], None),  # a = 0, composite d
    ([TWO], "indexset", [("ap", 1, 2)], None),  # odd index
    ([TWO], "order", [(4, 2)], None),  # d = 2 with a >= d
    ([TWO], "order", [(6, 3)], (4, frozenset({3}))),  # a = 0 (mod d), a >= d
    ([TWO], "order", [(0, 6)], None),  # composite d
    ([TWO, THREE_QUARTERS], "indexset", [("ap", 0, 2), ("finite", (1, 3))], None),
]
FULL_PLANS = [
    ([TWO], "indexset", [("ap", 2, 3)], None),
    ([TWO], "order", [(3, 4)], None),
    ([THREE_QUARTERS, TWO], "order", [(1, 3), (1, 2)], None),
]


def test_scan_many_with_shared_alpha_plans_matches_brute_scan():
    # alone, merged with narrow plans only, and merged with full plans
    x = 20000
    configs = NARROW_PLANS + FULL_PLANS
    want = [brute_scan(*cfg, x) for cfg in configs]
    built = [ConditionSpec.make(a, mode_of(m, params), frob) for a, m, params, frob in configs]
    groups = [[i] for i in range(len(built))] + [range(len(NARROW_PLANS)), range(len(built))]
    for group in groups:
        results = scan_many([built[i] for i in group], x)
        for i, res in zip(group, results):
            assert (res.matched, res.considered, res.checkpoints) == want[i], configs[i]


# moduli past int64: every scanned ord and ind is below d, so v = a (mod d)
# holds only at v = a, and a residue past the scan cap holds at no prime
HUGE = 2**64
HUGE_MODULI = [
    ([TWO], "order", [(HUGE + 11, HUGE)], None),  # ord_p(2) = 11: p = 23, 89
    ([TWO], "order", [(HUGE - 1, HUGE)], None),
    ([TWO], "indexset", [("ap", 1, HUGE)], None),
    ([TWO], "indexset", [("ap", HUGE + 2, HUGE)], (4, frozenset({1}))),
    ([TWO], "indexset", [("ap", 2**63, HUGE)], None),
    ([THREE_QUARTERS, TWO], "order", [(1, 2), (HUGE + 11, HUGE)], None),
]


def test_scan_with_moduli_past_int64_matches_brute_scan():
    x = 5000
    want = [brute_scan(*cfg, x) for cfg in HUGE_MODULI]
    assert [w[0] for w in want] == [2, 0, 255, 65, 0, 1]
    built = [ConditionSpec.make(a, mode_of(m, params), frob) for a, m, params, frob in HUGE_MODULI]
    for cfg, res, w in zip(HUGE_MODULI, scan_many(built, x), want):
        assert (res.matched, res.considered, res.checkpoints) == w, cfg


@contextmanager
def powmod_sizes():
    """The element count of every powmod call the scan makes inside the block."""
    sizes = []

    def spy(base, exp, mod):
        out = powmod(base, exp, mod)
        sizes.append(out.size)
        return out

    with mock.patch.object(empirical, "powmod", spy), mock.patch.object(arith, "powmod", spy):
        yield sizes


def test_index_even_scan_makes_no_power():
    # 2 | ind_p(5) iff 5 is a square mod p, which reciprocity reads off p mod 5
    spec = ConditionSpec.make([5], IndexSet((SetDescriptor.progression(0, 2),)))
    with powmod_sizes() as sizes:
        scan(spec, 10**5)
    assert sum(sizes) == 0


# Specs sharing the alphas 3/4, -3 and 12 across every kind of spec: fixed
# indices with 2-parts 1, 2 and 4, finite index sets with mixed 2-parts,
# order progressions and Frobenius conditions, in ranks 1 and 2 and with
# either alpha of a pair first, so the demand of one spec's stage depends
# on what the alphas before it left live.
MINUS_THREE, TWELVE = Fraction(-3), Fraction(12)
STAGED = [
    ([THREE_QUARTERS], "index", (1,), None),
    ([THREE_QUARTERS], "index", (2,), None),
    ([MINUS_THREE], "index", (4,), None),
    ([TWELVE], "index", (6,), (5, frozenset({1, 4}))),
    ([THREE_QUARTERS], "index", (12,), None),
    ([MINUS_THREE, TWELVE], "index", (1, 2), None),
    ([TWELVE, THREE_QUARTERS], "index", (1, 1), (3, frozenset({2}))),
    ([THREE_QUARTERS], "indexset", [("finite", (1, 2, 3, 8))], None),
    ([MINUS_THREE, THREE_QUARTERS], "indexset", [("finite", (2, 6)), ("finite", (1, 4, 12))], None),
    ([TWELVE], "indexset", [("ap", 0, 4)], (7, frozenset({1, 2, 4}))),
    ([MINUS_THREE], "order", [(1, 2)], (8, frozenset({3, 7}))),
    ([TWELVE], "order", [(0, 3)], None),
    ([THREE_QUARTERS, MINUS_THREE], "order", [(1, 4), (0, 2)], None),
]


def test_staged_scan_past_one_block_matches_brute_scan():
    # [2, 60000] is four windows of 2^14 integers, so four blocks; every
    # power runs in float64, whatever its size, so what needs checking is
    # that the stages raise at all: each alpha raises at most one q-part
    # power per stage and block, and 3/4 one denominator inverse with each
    x = 60000
    want = [brute_scan(*cfg, x) for cfg in STAGED]
    built = [ConditionSpec.make(a, mode_of(m, params), frob) for a, m, params, frob in STAGED]
    with mock.patch.object(empirical, "_BLOCK", 1 << 14):
        with powmod_sizes() as sizes:
            results = scan_many(built, x)
        assert 0 < len(sizes) <= 4 * 2 * (3 + 1)
        for cfg, res, w in zip(STAGED, results, want):
            assert (res.matched, res.considered, res.checkpoints) == w, cfg
        for cfg, spec, w in zip(STAGED, built, want):
            res = scan(spec, x)
            assert (res.matched, res.considered, res.checkpoints) == w, cfg


@contextmanager
def factored_primes():
    """The primes of the rows of every factor_p_minus_1 call the scan makes."""
    calls = []

    def spy(primes, rows):
        calls.append(primes[rows])
        return arith.factor_p_minus_1(primes, rows)

    with mock.patch.object(empirical, "factor_p_minus_1", spy):
        yield calls


def test_scan_factors_only_the_rows_an_odd_stage_reads():
    # [2, 2 * 10^5] is four windows of 2^16 integers, so four blocks
    x = 2 * 10**5
    # order even and both indices even read 2-parts alone: nothing is factored
    both_even = IndexSet((SetDescriptor.progression(0, 2),) * 2)
    no_odd = [ConditionSpec.make([2], OrderAP((0,), (2,))), ConditionSpec.make([2, 5], both_even)]
    with factored_primes() as calls:
        scan_many(no_odd, x)
    assert calls == []
    # index 1 reads odd q-parts only where the 2-part of ind_p(2) is 1, at
    # the non-squares of 2, p = 3, 5 (mod 8): one call per block, on them alone
    with factored_primes() as calls:
        scan(ConditionSpec.make([2], IndexFixed((1,))), x)
    assert len(calls) == 4
    primes = segmented_primes(3, x + 1)
    assert np.concatenate(calls).tolist() == primes[primes % 8 % 6 != 1].tolist()


# Spec lists whose first odd demand comes from a later alpha: 5's plan reads
# its 2-part alone, so 3's index 1 triggers the factoring; and with 2 of
# even order first, 3 index 1 either triggers it, or, with 2 index 1 too,
# must find its rows among those factored at 2's odd stage before 3's 2-part
# has pruned anything
FIVE, THREE = Fraction(5), Fraction(3)
LATE_ODD = [
    ([FIVE, THREE], "indexset", [("ap", 0, 2), ("finite", (1,))], None),
    ([TWO], "order", [(0, 2)], None),
    ([THREE], "index", (1,), None),
    ([TWO], "index", (1,), None),
]


def test_late_first_odd_demand_matches_brute_scan():
    # in one block of 2^16 integers and in five of 2^12
    x = 2 * 10**4
    want = [brute_scan(*cfg, x) for cfg in LATE_ODD]
    built = [ConditionSpec.make(a, mode_of(m, params), frob) for a, m, params, frob in LATE_ODD]
    groups = [[0], [1], [2], [3], [1, 2], [1, 2, 3]]
    for block in (1 << 16, 1 << 12):
        with mock.patch.object(empirical, "_BLOCK", block):
            for group in groups:
                results = scan_many([built[i] for i in group], x)
                for i, res in zip(group, results):
                    assert (res.matched, res.considered, res.checkpoints) == want[i], LATE_ODD[i]


def test_acceptance_scan_powmod_elements_pinned():
    # the five acceptance specs at 10^6 raise only where some spec can still
    # match: 457,182 elements when every read q-part was raised on every prime.
    # One power per stage that has rows: 16 blocks (windows of 2^16
    # integers) times the 2-part and odd stages of 2 and the odd stage of 3
    # (5's 2-part and 3's are the quadratic character alone), where an order
    # search made 296 calls over 20 blocks of 4,096 primes
    both_even = IndexSet((SetDescriptor.progression(0, 2),) * 2)
    specs = [
        ConditionSpec.make([2], IndexFixed((1,))),
        ConditionSpec.make([2], OrderAP((0,), (2,))),
        ConditionSpec.make([2, 3], IndexFixed((1, 1))),
        ConditionSpec.make([2], OrderAP((1,), (2,)), frobenius=(4, {3})),
        ConditionSpec.make([2, 5], both_even),
    ]
    with powmod_sizes() as sizes:
        results = scan_many(specs, 10**6)
    assert [r.matched for r in results] == [29341, 55550, 11578, 19669, 19579]
    assert empirical._BLOCK == 1 << 16
    assert len(sizes) == 48
    assert sum(sizes) == 193752
