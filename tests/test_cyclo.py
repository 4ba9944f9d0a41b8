import math
from fractions import Fraction

import pytest

from orddensity.arith import FactoredRational, factorize, prime_list
from orddensity.cyclo import RadicalValue, conductor, fixed_by, radical_product

from oracles import (
    FALSE_POWER_TRIPLES,
    TRUE_POWER_TRIPLES,
    _zeta_sqrt_in_cyclotomic,
    is_nth_power_residue,
    lies_in_cyclotomic,
    is_power_in_cyclotomic,
    residue_check_fraction,
    signed_squarefree_part,
)


def test_signed_squarefree_part_examples():
    s, d, sq = signed_squarefree_part(factorize(18))
    assert (s, d, sq.value()) == (1, 2, 3)
    s, d, sq = signed_squarefree_part(factorize(-12))
    assert (s, d, sq.value()) == (-1, 3, 2)
    s, d, sq = signed_squarefree_part(factorize(1))
    assert (s, d, sq.value()) == (1, 1, 1)


def test_signed_squarefree_part_reconstructs():
    for q in [Fraction(18), Fraction(-12), Fraction(5, 8), Fraction(-49, 300)]:
        s, d, sq = signed_squarefree_part(FactoredRational.from_fraction(q))
        assert s * sq.value() ** 2 * d == q


def test_quadratic_conductor():
    assert conductor(5) == 5
    assert conductor(2) == 8
    assert conductor(-3) == 3
    assert conductor(-1) == 4
    assert conductor(1) == 1
    assert conductor(-2) == 8
    assert conductor(15) == 60


def test_sqrt_in_cyclotomic_examples():
    # sqrt(d) lies in Q(zeta_M) iff conductor(d) | M
    assert 5 % conductor(5) == 0
    assert 12 % conductor(2) != 0
    assert 3 % conductor(-3) == 0


def test_sqrt_in_cyclotomic_agrees_with_power_oracle():
    squarefree = [d for d in range(2, 60) if all(d % (p * p) for p in range(2, 8))]
    radicands = [1] + squarefree[:35] + [-d for d in squarefree[:14]]
    count = 0
    for d in radicands:
        for M in (1, 3, 4, 5, 8, 12, 24, 40, 60):
            expected = is_power_in_cyclotomic(FactoredRational.from_fraction(d), 2, M)
            assert (M % conductor(d) == 0) == expected
            count += 1
    assert count >= 100


def test_is_power_examples():
    assert is_power_in_cyclotomic(factorize(2), 2, 8)
    assert is_power_in_cyclotomic(factorize(-4), 4, 4)
    assert not is_power_in_cyclotomic(factorize(2), 3, 9)
    assert is_power_in_cyclotomic(factorize(16), 8, 8)


def test_is_power_trivial_cases():
    qs = [Fraction(2), Fraction(-5), Fraction(9, 7), Fraction(-3, 4), Fraction(30)]
    for q in qs:
        fr = FactoredRational.from_fraction(q)
        for M in (1, 4, 7, 24):
            assert is_power_in_cyclotomic(fr, 1, M)
            for n in (2, 3, 4, 6):
                assert is_power_in_cyclotomic(FactoredRational.of(q**n), n, M)


def test_power_oracle_soundness_all_primes():
    # whenever the oracle says yes, q is an n-th power residue at every
    # completely split prime
    for q, n, M in TRUE_POWER_TRIPLES:
        assert is_power_in_cyclotomic(FactoredRational.from_fraction(q), n, M), (q, n, M)
        for p in prime_list(10**4):
            p = int(p)
            if (p - 1) % M or q.numerator % p == 0 or q.denominator % p == 0:
                continue
            assert is_nth_power_residue(q, n, p), (q, n, M, p)


def test_power_oracle_completeness_sampling():
    # whenever the oracle says no, the empirical residue fraction stays
    # bounded away from 1
    for q, n, M in FALSE_POWER_TRIPLES:
        assert not is_power_in_cyclotomic(FactoredRational.from_fraction(q), n, M), (q, n, M)
        hit, total = residue_check_fraction([q], [n], M, 10**6)
        assert total > 0
        assert hit / total <= 0.9, (q, n, M, hit / total)


def test_radical_product_examples():
    rv = radical_product([factorize(2), factorize(3)], (2, 2), (1, 1))
    assert (rv.zeta_order, rv.zeta_exp, rv.t.value(), rv.d) == (1, 0, 1, 6)
    rv = radical_product([factorize(8)], (2,), (1,))
    assert (rv.t.value(), rv.d) == (2, 2)
    rv = radical_product([factorize(-2)], (2,), (1,))
    assert (rv.zeta_order, rv.zeta_exp, rv.t.value(), rv.d) == (4, 1, 1, 2)


def test_radical_product_zero_exponents_give_one():
    rv = radical_product([factorize(2), factorize(-15)], (4, 6), (0, 0))
    assert rv is not None and (rv.zeta_order, rv.t.value(), rv.d) == (1, 1, 1)


def test_radical_product_none_for_genuine_higher_radicals():
    # 2^(1/3) is not of the form zeta * t * sqrt(d)
    assert radical_product([factorize(2)], (3,), (1,)) is None
    assert radical_product([factorize(2)], (4,), (1,)) is None
    # but 4^(1/4) = sqrt(2) is
    rv = radical_product([factorize(4)], (4,), (1,))
    assert rv is not None and rv.d == 2


def test_radical_product_power_consistency():
    # the L-th power of the product must reconstruct the rational product
    alphas = [factorize(-2), factorize(12)]
    m = (4, 6)
    L = math.lcm(*m)
    for e in [(1, 0), (0, 3), (2, 3), (3, 2), (2, 0)]:
        rv = radical_product(alphas, m, e)
        target = Fraction(1)
        for a, mi, ei in zip([-2, 12], m, e):
            target *= Fraction(a) ** (ei * (L // mi))
        if rv is None:
            continue
        # |value|^L = (t^2 d)^(L/2)
        assert (rv.t.value() ** 2 * rv.d) ** (L // 2) == abs(target)


def test_fixed_by_examples():
    sqrt2 = RadicalValue.make(1, 0, FactoredRational(1, ()), 2)
    assert not fixed_by(5, sqrt2, 8)
    assert fixed_by(7, sqrt2, 8)
    assert fixed_by(1, sqrt2, 8)
    i_sqrt2 = RadicalValue.make(4, 1, FactoredRational(1, ()), 2)
    assert fixed_by(1, i_sqrt2, 8)


def test_fixed_by_rejects_noncoprime():
    sqrt2 = RadicalValue.make(1, 0, FactoredRational(1, ()), 2)
    with pytest.raises(ValueError):
        fixed_by(2, sqrt2, 8)


def test_lies_in_cyclotomic_matches_conductors():
    for d in (2, 3, 5, -1, -2, -3, 6, 10):
        rv = RadicalValue.make(1, 0, FactoredRational(1, ()), d if d > 0 else -d)
        if d < 0:
            rv = RadicalValue.make(4, 1, FactoredRational(1, ()), -d)
        for M in (3, 4, 5, 8, 12, 20, 24, 40, 60, 120):
            assert lies_in_cyclotomic(rv, M) == (M % conductor(d) == 0), (d, M)


@pytest.mark.parametrize(
    "zorder, zexp, d, expected",
    [
        (8, 1, 2, 4),  # zeta_8 sqrt(2) = 1 + i
        (4, 1, 3, 3),  # i sqrt(3) = sqrt(-3)
        (2, 1, 5, 5),  # -sqrt(5)
        (8, 1, 3, 24),
        (1, 0, 2, 8),
        (6, 1, 1, 3),
        (2, 1, 1, 1),  # -1
    ],
)
def test_radical_value_conductor_examples(zorder, zexp, d, expected):
    v = RadicalValue.make(zorder, zexp, FactoredRational(1, ()), d)
    assert v.conductor() == expected
    assert lies_in_cyclotomic(v, expected)
    assert not any(lies_in_cyclotomic(v, M) for M in range(1, expected))


def test_lies_in_cyclotomic_matches_character_loop_oracle():
    # the conductor rule against the Galois character loop, for three units
    # s per root-of-unity order n (the rule does not depend on s)
    squarefree = [d for d in range(1, 61) if all(d % (p * p) for p in (2, 3, 5, 7))]
    count = inside = 0
    for n in range(1, 49):
        units = [s for s in range(n) if math.gcd(s, n) == 1]
        for s in {units[0], units[len(units) // 2], units[-1]}:
            for d in squarefree:
                v = RadicalValue.make(n, s, FactoredRational(1, ()), d)
                for M in range(1, 121):
                    got = lies_in_cyclotomic(v, M)
                    assert got == _zeta_sqrt_in_cyclotomic(n, s, d, M), (n, s, d, M)
                    count += 1
                    inside += got
    assert count == 608280 and inside == 3962


def test_power_oracle_against_cyclotomic_factorization():
    # independent algebraic route: x^n - q has a linear factor over
    # Q(zeta_M) exactly when q is an n-th power there
    sympy = pytest.importorskip("sympy")
    from sympy import I, exp, factor_list, pi, symbols

    x = symbols("x")
    cases = [
        (Fraction(2), 2, 8), (Fraction(2), 2, 4), (Fraction(-4), 4, 4),
        (Fraction(2), 3, 9), (Fraction(16), 8, 8), (Fraction(3), 2, 12),
        (Fraction(5), 2, 8), (Fraction(-3), 2, 3), (Fraction(9, 4), 2, 5),
        (Fraction(8), 3, 7), (Fraction(-2), 2, 8), (Fraction(6), 2, 24),
        (Fraction(4), 4, 8), (Fraction(12), 2, 8), (Fraction(3, 2), 2, 24),
        (Fraction(-1), 2, 3),
    ]
    for q, n, M in cases:
        factors = factor_list(x**n - q, x, extension=[exp(2 * I * pi / M)])
        has_root = any(f.as_poly(x).degree() == 1 for f, _ in factors[1])
        got = is_power_in_cyclotomic(FactoredRational.from_fraction(q), n, M)
        assert got == has_root, (q, n, M)


def test_radical_value_normal_form():
    rv = RadicalValue.make(8, 6, FactoredRational(1, ()), 3)
    assert (rv.zeta_order, rv.zeta_exp) == (4, 3)
    rv = RadicalValue.make(12, 0, FactoredRational(1, ()), 1)
    assert (rv.zeta_order, rv.zeta_exp) == (1, 0)
    with pytest.raises(ValueError):
        RadicalValue.make(4, 1, factorize(-2), 2)
