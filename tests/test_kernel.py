"""The vectorised per-prime index kernel against prime-by-prime references."""

import math
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orddensity.arith import FactoredRational, residues, segmented_primes
from orddensity.density import (
    ConditionSpec,
    IndexFixed,
    IndexSet,
    OrderAP,
    SetDescriptor,
    multiplicatively_independent,
)
from orddensity import empirical
from orddensity.empirical import block_indices, scan, scan_many

from oracles import brute_scan, trial_order

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
    ind = block_indices(primes, [(q.numerator, q.denominator) for q in alphas])
    assert ind.shape == (len(alphas), primes.size)
    for q, row in zip(alphas, ind.tolist()):
        for got, want in zip(row, expected_indices(q, primes)):
            assert want is None or got == want


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


@st.composite
def small_specs(draw):
    alphas = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=2, unique=True))
    r = len(alphas)
    mode = draw(st.sampled_from(["index", "order", "indexset"]))
    if mode == "index":
        params = draw(st.lists(st.integers(1, 6), min_size=r, max_size=r))
        m = IndexFixed(tuple(params))
    elif mode == "order":
        params = draw(
            st.lists(st.tuples(st.integers(0, 5), st.integers(2, 6)), min_size=r, max_size=r)
        )
        m = OrderAP(tuple(a for a, _ in params), tuple(d for _, d in params))
    else:
        params = draw(st.lists(index_set, min_size=r, max_size=r))
        m = IndexSet(
            tuple(
                SetDescriptor.finite(s[1])
                if s[0] == "finite"
                else SetDescriptor.progression(s[1], s[2])
                for s in params
            )
        )
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
        results = scan_many(built, x, checkpoints=True)
    for (alphas, mode, params, _, frob), res in zip(specs, results):
        matched, considered, checkpoints = brute_scan(alphas, mode, params, frob, x)
        assert (res.matched, res.considered) == (matched, considered)
        assert res.checkpoints == checkpoints
