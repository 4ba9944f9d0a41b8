import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orddensity.arith import (
    POWMOD_FLOAT_BOUND,
    SCAN_X_CAP,
    FactoredRational,
    ResourceCapError,
    divisors,
    euler_phi,
    factor_p_minus_1,
    factorize,
    kronecker,
    moebius,
    multiplicative_order,
    phi_sieve,
    powmod,
    prime_list,
    segmented_primes,
    square_mask,
)

from orddensity.cyclo import quadratic_discriminant, radical_product
from orddensity.density import ConditionSpec, IndexFixed
from orddensity.empirical import _two_pairs, li, scan_many
from orddensity.kummer import FieldSpec

from oracles import abs_, is_prime, root


def trial_division_primes(lo, hi):
    out = []
    for n in range(lo, hi):
        if n < 2:
            continue
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(12).sign == 1
    assert factorize(-1) == FactoredRational(-1, ())
    assert factorize(97).factors == ((97, 1),)


def test_factorize_reconstructs():
    for n in list(range(1, 300)) + [4096, 4999, -360]:
        fr = factorize(n)
        assert fr.value() == Fraction(n)


def test_factorize_stops_at_the_trial_division_cap():
    below, above = 9999991, 10000019  # the primes next to the cap 10^7
    assert factorize(below * above).factors == ((below, 1), (above, 1))
    assert factorize(2**200 * 3).factors == ((2, 200), (3, 1))
    for n in (above * above, 2**61 - 1):  # either could be composite at the cap
        with pytest.raises(ResourceCapError):
            factorize(n)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_rejects_non_integers():
    for bad in (Fraction(3, 4), Fraction(4), 2.0, "12"):
        with pytest.raises(ValueError):
            factorize(bad)


def test_factored_rational_of():
    three_fifths = FactoredRational(1, ((3, 1), (5, -1)))
    for q in (Fraction(3, 5), "3/5", " 3/5 ", three_fifths):
        assert FactoredRational.of(q) == three_fifths
    assert FactoredRational.of(-12) == factorize(-12)
    # the denominator's primes 2, 3 sort in below the numerator's 5
    assert FactoredRational.of("-5/12") == FactoredRational(-1, ((2, -2), (3, -1), (5, 1)))
    assert FactoredRational.of("-1").value() == -1
    for bad in (0, "0", "1/0", "abc", None):
        with pytest.raises(ValueError):
            FactoredRational.of(bad)


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(8) == 4
    assert euler_phi(36) == 12


def test_divisor_sum_identities():
    # sum_{d|n} mu(d) = [n == 1] and sum_{d|n} phi(d) = n for all n <= 10^4
    N = 10**4
    mu = [0] + [moebius(n) for n in range(1, N + 1)]
    phi = [0] + [euler_phi(n) for n in range(1, N + 1)]
    mu_sum = [0] * (N + 1)
    phi_sum = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            mu_sum[m] += mu[d]
            phi_sum[m] += phi[d]
    assert mu_sum[1] == 1
    assert all(mu_sum[n] == 0 for n in range(2, N + 1))
    assert all(phi_sum[n] == n for n in range(1, N + 1))


def test_phi_sieve_matches_euler_phi():
    phi = phi_sieve(500)
    for n in range(1, 501):
        assert phi[n] == euler_phi(n)


def test_kronecker_examples():
    assert kronecker(8, 5) == -1
    assert kronecker(5, 11) == 1
    assert kronecker(-4, 7) == -1


def test_kronecker_prime_case_is_quadratic_residue_symbol():
    for p in [3, 5, 7, 11, 13, 17, 19, 23]:
        residues = {pow(x, 2, p) for x in range(1, p)}
        for a in range(-2 * p, 2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in residues else -1)
            assert kronecker(a, p) == expected


def test_kronecker_multiplicative_both_arguments():
    vals = list(range(-16, 17))
    for a in vals:
        for b in vals:
            for n in [1, 3, 5, 9, 15, 2, 8, -3, -15]:
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    for n in [1, 3, 5, 15, 2]:
        for m in [1, 3, 7, 9, 2]:
            for a in vals:
                assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


@given(
    st.integers(-(10**9), 10**9),
    st.integers(-(10**9), 10**9),
    st.integers(-(10**6), 10**6).filter(bool),
    st.integers(1, 10**6),
)
def test_kronecker_multiplicative_random(a, b, n, m):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)
    assert kronecker(a, abs(n) * m) == kronecker(a, abs(n)) * kronecker(a, m)


def test_kronecker_two_and_negative_conventions():
    assert kronecker(2, 2) == 0
    assert kronecker(1, 2) == 1
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(5, -1) == 1
    assert kronecker(-5, -1) == -1
    assert kronecker(0, 1) == 1
    assert kronecker(0, 5) == 0
    # (a|0) is 1 for the units and 0 for every other a
    assert [kronecker(a, 0) for a in (1, -1, 0, 2, -2, 3)] == [1, 1, 0, 0, 0, 0]


def test_multiplicative_order_examples():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(1, 13) == 1
    assert multiplicative_order(10, 7) == 6


def test_multiplicative_order_brute_force():
    for p in [3, 5, 7, 11, 13, 101, 257]:
        for a in range(1, min(p, 40)):
            k, acc = 1, a % p
            while acc != 1:
                acc = acc * a % p
                k += 1
            assert multiplicative_order(a, p) == k


def test_order_times_index_is_p_minus_one():
    for p in trial_division_primes(3, 500):
        for a in (2, 3, 10):
            if a % p == 0:
                continue
            o = multiplicative_order(a, p)
            ind = (p - 1) // o
            assert o * ind == p - 1


def test_multiplicative_order_rejects_divisible_base():
    with pytest.raises(ValueError):
        multiplicative_order(14, 7)


def test_segmented_primes_examples():
    assert list(segmented_primes(2, 12)) == [2, 3, 5, 7, 11]
    assert list(segmented_primes(90, 100)) == [97]


def test_segmented_primes_past_million_against_trial_division():
    got = list(segmented_primes(10**6, 10**6 + 100))
    assert got == trial_division_primes(10**6, 10**6 + 100)


# the sieve keeps flags for the odd integers of [lo, hi) only: windows whose
# lo and hi take each parity; lo in {2, 3, 4}, around the prime 2 it adds
# itself; the one-integer windows [2, 3), [3, 4) and [4, 5), the last with no
# odd integer; windows that open on a base prime's square, or whose last
# integer is one; and one closing on the scan cap
SIEVE_EDGE_WINDOWS = [
    (10, 50), (10, 51), (11, 50), (11, 51),
    (2, 30), (3, 30), (4, 30),
    (2, 3), (3, 4), (4, 5),
    (9, 30), (25, 60), (169, 200), (961, 1000), (2, 10), (150, 170),
    (SCAN_X_CAP - 500, SCAN_X_CAP + 1),
]


@pytest.mark.parametrize("lo, hi", SIEVE_EDGE_WINDOWS)
def test_segmented_primes_edge_windows_against_trial_division(lo, hi):
    got = segmented_primes(lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == trial_division_primes(lo, hi)


def test_segmented_primes_segment_below_the_cap_traces_under_4_mb():
    # one scan segment of 2^22 integers below 10^9: flags for its odd
    # integers (2 MiB) and its primes, turned from flag indices in place
    # (1.5 MiB), trace 3.5 MiB; a flag for every integer (2 MiB more) or a
    # second int64 copy of the primes (1.5 MiB more) passes 4 MiB
    hi = SCAN_X_CAP
    tracemalloc.start()
    try:
        primes = segmented_primes(hi - (1 << 22), hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes.size == 202473
    assert peak < 4 << 20


def plain_sieve(limit):
    flags = np.ones(limit + 2, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags[: limit + 1]).astype(np.int64)


def test_prime_list_matches_plain_sieve():
    # prime_list is one window of segmented_primes; this sieve shares no code
    for limit in [*range(200), 10**6]:
        got = prime_list(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, plain_sieve(limit)), limit


def test_segmented_primes_rejects_bad_range():
    with pytest.raises(ValueError):
        segmented_primes(10, 10)


TWO = FactoredRational.of(2)
SPEC_2_INDEX_1 = ConditionSpec.make([2], IndexFixed((1,)))


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: scan_many([SPEC_2_INDEX_1], 1), "x >= 2", id="scan_many-x-1"),
        pytest.param(
            lambda: scan_many([SPEC_2_INDEX_1], 100, workers=0), "workers >= 1",
            id="scan_many-workers-0",
        ),
        pytest.param(lambda: li(float("inf")), "finite x", id="li-inf"),
        pytest.param(lambda: FieldSpec((TWO,), (0,), 2), "positive", id="FieldSpec-m-0"),
        pytest.param(lambda: FieldSpec((TWO,), (2,), 0), "positive", id="FieldSpec-M-0"),
        pytest.param(
            lambda: radical_product([TWO], [2, 2], [1]), "equal length",
            id="radical_product-lengths",
        ),
        pytest.param(
            lambda: radical_product([TWO], [2], [2]), "e_i < m_i", id="radical_product-e-m"
        ),
        pytest.param(lambda: moebius(0), "n >= 1", id="moebius-0"),
        pytest.param(lambda: euler_phi(0), "n >= 1", id="euler_phi-0"),
        pytest.param(lambda: quadratic_discriminant(0), "nonzero", id="quadratic_discriminant-0"),
        pytest.param(lambda: FactoredRational(2, ()), "sign", id="FactoredRational-sign"),
        pytest.param(
            lambda: FactoredRational(1, ((3, 1), (2, 1))), "ascending",
            id="FactoredRational-unsorted",
        ),
        pytest.param(
            # 10^9 + 7 is prime
            lambda: factor_p_minus_1(np.array([SCAN_X_CAP + 7]), np.array([0])),
            "p <=", id="factor_p_minus_1-past-cap",
        ),
    ],
)
def test_library_guards_raise_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def assert_factors_p_minus_1(primes, rows):
    # int64 triples, each (row, q) once and none off the asked rows, that are
    # the odd part of the factorisation of p - 1 there; with the scan's
    # 2-pairs, v_2(p - 1) off the lowest set bit, they make all of it
    row, q, e = factor_p_minus_1(primes, rows)
    assert row.dtype == q.dtype == e.dtype == np.int64
    asked = set(rows.tolist())
    got = [dict() for _ in primes]
    for i, qi, ei in zip(row.tolist(), q.tolist(), e.tolist()):
        assert i in asked and qi not in got[i]
        got[i][qi] = ei
    _, two, v2 = _two_pairs(primes)
    assert two.dtype == v2.dtype == np.int64 and np.all(two == 2)
    for i, (p, pairs) in enumerate(zip(primes.tolist(), got)):
        want = dict(factorize(p - 1).factors)
        assert v2[i] == want.pop(2, 0), p
        assert pairs == (want if i in asked else {}), p
        assert all(is_prime(qi) for qi in pairs)


def row_subsets(primes, seed):
    # every row, none, a random half and a random twentieth, ascending
    rng = np.random.default_rng(seed)
    for share in (1.0, 0.0, 0.5, 0.05):
        yield np.flatnonzero(rng.random(primes.size) < share)


def test_factor_p_minus_1_matches_trial_division():
    # consecutive primes from 2 up; a window below the 10^9 scan cap where
    # the largest base primes and large cofactors occur; one across 2^25;
    # and windows around primes p with p - 1 = 2^16, 5 * 2^25 and 2 * 3^17,
    # rows on which the exponent loop runs longest; each on row subsets
    deep = [2**16 + 1, 5 * 2**25 + 1, 2 * 3**17 + 1]
    assert all(map(is_prime, deep))
    windows = [(2, 5000), (10**9 - 3000, 10**9), (2**25 - 2000, 2**25 + 2000)]
    for lo, hi in windows + [(p - 1000, p + 1000) for p in deep]:
        primes = segmented_primes(lo, hi)
        for rows in row_subsets(primes, lo):
            assert_factors_p_minus_1(primes, rows)


@st.composite
def prime_windows(draw):
    # widths up to a scan block's 2^16 integers, anywhere below the cap, and
    # the share of rows asked for
    w = draw(st.integers(1, 1 << 16))
    share = draw(st.sampled_from([1.0, 0.5, 0.05]))
    return draw(st.integers(2, SCAN_X_CAP - w - 1)), w, share


@settings(max_examples=20, deadline=None)
@given(prime_windows())
# from p = 2, whose p - 1 has no odd factor, and p = 3; from primes p whose
# p - 1 is the first even multiple in the window of two odd base primes: of
# 3 and 5, and of 3 and 31607, the largest below sqrt(SCAN_X_CAP); all rows,
# and the window from 3 on a random half too
@example((2, 1 << 16, 1.0))
@example((3, 5000, 1.0))
@example((3, 5000, 0.5))
@example((31, 5000, 1.0))
@example((6 * 31607 * 5245 + 1, 1 << 16, 1.0))
def test_factor_p_minus_1_on_random_windows(window):
    lo, w, share = window
    primes = segmented_primes(lo, lo + w)
    rows = np.flatnonzero(np.random.default_rng(lo).random(primes.size) < share)
    assert_factors_p_minus_1(primes, rows)


# powmod's moduli: every m below 2^11, composite ones included (only there
# can the float path's r = m case, which its final % repairs, arise), the
# primes just below and just past POWMOD_FLOAT_BOUND and those below the
# scan cap
POWMOD_MODULI = [
    np.arange(2, 1 << 11),
    segmented_primes(POWMOD_FLOAT_BOUND - 10000, POWMOD_FLOAT_BOUND),
    segmented_primes(POWMOD_FLOAT_BOUND, POWMOD_FLOAT_BOUND + 10000),
    segmented_primes(SCAN_X_CAP - 10000, SCAN_X_CAP),
]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exp_kind=st.sampled_from(["zero", "scalar", "array"]),
)
def test_powmod_matches_pow(seed, exp_kind):
    # bases 0, 1, m - 1, m - 2 and a random one (negative too) per modulus;
    # the moduli below the bound run in float64 and the others in int64, on
    # whole arrays and on 7-element slices
    rng = np.random.default_rng(seed)
    for mods in POWMOD_MODULI:
        m = np.repeat(mods, 5)
        random = rng.integers(-(2**62), 2**62, mods.size)
        base = np.stack([mods * 0, mods * 0 + 1, mods - 1, mods - 2, random], axis=1).ravel()
        exp = {
            "zero": np.int64(0),
            "scalar": rng.integers(1, 2**62),
            "array": np.concatenate([[0, 1, 2, 3], rng.integers(0, 2**62, m.size - 4)]),
        }[exp_kind]
        for part in (slice(None), slice(7)):
            b, e, n = base[part], exp if exp.ndim == 0 else exp[part], m[part]
            args = zip(b.tolist(), np.broadcast_to(e, b.shape).tolist(), n.tolist())
            want = [pow(*t) for t in args]
            got = powmod(b, e, n)
            assert got.dtype == np.int64 and got.tolist() == want


# empty moduli run in float64; one modulus past the bound runs the int64 loop
@pytest.mark.parametrize(
    "mod", [np.empty(0, dtype=np.int64), np.int64(SCAN_X_CAP - 63)], ids=["float64", "int64"]
)
def test_powmod_of_empty_arrays(mod):
    empty = np.empty(0, dtype=np.int64)
    for exp in (0, 5, empty):
        out = powmod(empty, exp, mod)
        assert out.dtype == np.int64 and out.shape == (0,)


# one alpha per rule of square_mask: sign, (2/p), the reciprocity flip,
# the largest tabled prime, the first prime past the table (Euler's
# criterion), alphas past int64 and odd powers in the denominator
SQUARE_MASK_ALPHAS = [FactoredRational.of(v) for v in (
    2, 3, 5, -2, -3, 8, 12, -27, "3/5", "-7/12", 65521, 65537, 1000003, 3**41 * 5
)] + [FactoredRational(-1, ((3, -1), (65537, -3), (2**61 - 1, 1)))]


def test_square_mask_matches_kronecker():
    # kronecker(num * den, p) = (alpha/p), and 0 where p divides alpha,
    # at which the mask reads alpha as 1
    primes = np.concatenate(
        [segmented_primes(3, 2 * 10**4 + 1), segmented_primes(10**9 - 2000, 10**9 + 1)]
    )
    for alpha in SQUARE_MASK_ALPHAS:
        v = alpha.value()
        want = [kronecker(v.numerator * v.denominator, p) >= 0 for p in primes.tolist()]
        assert square_mask(alpha, primes).tolist() == want, alpha


def test_is_prime_matches_trial_division():
    small = set(trial_division_primes(2, 3000))
    for n in range(2, 3000):
        assert is_prime(n) == (n in small)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_factored_rational_arithmetic():
    assert root(factorize(-8), 3).value() == -2
    assert root(factorize(16), 4).value() == 2
    with pytest.raises(ValueError):
        root(factorize(-4), 2)
    with pytest.raises(ValueError):
        root(factorize(8), 2)
    assert abs_(factorize(-98)).value() == 98


@given(
    st.integers(-(10**6), 10**6).filter(bool),
    st.integers(1, 10**6),
)
def test_factored_rational_round_trip(num, den):
    q = Fraction(num, den)
    assert FactoredRational.from_fraction(q).value() == q


@given(st.integers(1, 5000))
def test_divisors_matches_trial_division(n):
    assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
