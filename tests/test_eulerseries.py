import itertools
import math
from fractions import Fraction

import pytest

from orddensity import eulerseries
from orddensity.arith import ResourceCapError, euler_phi, phi_sieve
from orddensity.cli import verify_euler
from orddensity.eulerseries import KahanSum, gcd_phi_sum, lcm_phi_sum, phi_lcm_tail

from oracles import is_squarefree, phi_lcm_marginal

ZETA_CONSTANT = 1.9435964368207592  # zeta(2) zeta(3) / zeta(6)


def brute_tail(r, x, cap, squarefree=False):
    total = Fraction(0)
    ranges = [range(x + 1, cap + 1)] + [range(1, cap + 1)] * (r - 1)
    for tup in itertools.product(*ranges):
        if squarefree and not all(is_squarefree(v) for v in tup):
            continue
        total += Fraction(1, euler_phi(math.lcm(*tup)) * math.prod(tup))
    return float(total)


def test_phi_lcm_tail_matches_brute_force():
    for r, x, cap in [(1, 3, 30), (2, 2, 14), (2, 5, 20), (3, 2, 8), (3, 3, 16)]:
        assert phi_lcm_tail(r, x, cap) == pytest.approx(brute_tail(r, x, cap), rel=1e-12)
        assert phi_lcm_tail(r, x, cap, squarefree=True) == pytest.approx(
            brute_tail(r, x, cap, squarefree=True), rel=1e-12
        )


@pytest.mark.parametrize("squarefree", [False, True])
@pytest.mark.parametrize("r, cap", [(2, 128), (3, 48)])
def test_phi_lcm_tail_matches_exact_marginal(r, cap, squarefree):
    # every tail x = cap - 1 .. 1 against suffix sums of the exact marginal
    h = phi_lcm_marginal(r, cap, squarefree, cap)
    want = Fraction(0)
    for x in range(cap - 1, 0, -1):
        if not squarefree or is_squarefree(x + 1):
            want += h[x + 1] / (x + 1)
        got = phi_lcm_tail(r, x, cap, squarefree=squarefree)
        assert abs(Fraction(got) - want) <= want / 10**15, (x, got, float(want))


@pytest.mark.parametrize("r, x, cap", [(2, 40, 64), (3, 12, 24)])
def test_lcm_phi_sum_matches_exact_marginal(r, x, cap):
    h = phi_lcm_marginal(r, cap, False, x)
    want = sum(n * h[n] for n in range(1, x + 1))
    assert abs(Fraction(lcm_phi_sum(r, x, cap)) - want) <= want / 10**15


def test_phi_tabulated_only_up_to_the_cap(monkeypatch):
    # phi(lcm) comes from phi of the arguments and their gcd, so no call
    # tabulates phi past max(x, cap)
    asked = []

    def spy(limit):
        asked.append(limit)
        return phi_sieve(limit)

    monkeypatch.setattr(eulerseries, "_MARGINAL_CACHE", {})
    monkeypatch.setattr(eulerseries, "phi_sieve", spy)
    for fn, r, x, cap in [
        (phi_lcm_tail, 2, 4, 4096),
        (phi_lcm_tail, 3, 4, 4096),
        (lcm_phi_sum, 2, 16, 1024),
    ]:
        asked.clear()
        fn(r, x, cap)
        assert asked and max(asked) <= max(x, cap), (fn.__name__, r, asked)


def test_phi_lcm_tail_single_term():
    # x = cap - 1 leaves only the last term 1/(phi(cap) * cap)
    for cap in (30, 36):  # squarefree and non-squarefree caps both count
        assert phi_lcm_tail(1, cap - 1, cap) == pytest.approx(
            1.0 / (euler_phi(cap) * cap)
        )


def test_phi_lcm_tail_anchor_constants():
    # squarefree sub-series converges to zeta(2)zeta(3)/zeta(6) - 1
    val = phi_lcm_tail(1, 1, 10**5, squarefree=True)
    assert abs(val - (ZETA_CONSTANT - 1)) < 1e-3
    # the unrestricted series converges to a strictly larger constant
    assert phi_lcm_tail(1, 1, 10**5) > 1.19


def test_phi_lcm_tail_validates_arguments():
    with pytest.raises(ValueError):
        phi_lcm_tail(4, 1, 10)
    with pytest.raises(ValueError):
        phi_lcm_tail(1, 10, 10)
    with pytest.raises(ResourceCapError):
        phi_lcm_tail(2, 10, 10**5)
    with pytest.raises(ResourceCapError):
        phi_lcm_tail(1, 10, 10**8)


def test_scaled_tails_bounded_small_grid():
    # x * tail stays within 2x its first value (the 1/x law at desk scale)
    for r in (1, 2, 3):
        xs = [4 * 2**k for k in range(6)]  # 4..128
        tails = [phi_lcm_tail(r, x, 512) for x in xs]
        scaled = [x * t for x, t in zip(xs, tails)]
        assert all(s <= 2.0 * scaled[0] for s in scaled)
        assert all(t >= 0 for t in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_multi_threshold_tail_bounded_by_max():
    # restricting every coordinate beyond its own threshold is dominated by
    # the single-threshold tail at max_i(x_i)
    cap = 16
    for xs in [(2, 4), (4, 3), (5, 5)]:
        total = Fraction(0)
        for tup in itertools.product(*(range(x + 1, cap + 1) for x in xs)):
            total += Fraction(1, euler_phi(math.lcm(*tup)) * math.prod(tup))
        assert float(total) <= phi_lcm_tail(2, max(xs), cap) + 1e-12


def test_tail_report_rows():
    # the tail rows `verify euler` reports; cap 64 puts x = 4, 8 on its grid
    rows = verify_euler(1, 64)["rows"]
    assert [row["x"] for row in rows] == [4, 8]
    assert all(row["cap"] == 64 and row["r"] == 1 for row in rows)
    assert [row["tail"] for row in rows] == [phi_lcm_tail(1, x, 64) for x in (4, 8)]
    assert rows[0]["scaled"] == pytest.approx(4 * rows[0]["tail"])


def test_cap_sensitivity():
    # `verify euler` reports the first grid tail at the cap and at half of it
    sens = verify_euler(1, 512)["cap_sensitivity"]
    assert sens == {"cap": phi_lcm_tail(1, 4, 512), "half_cap": phi_lcm_tail(1, 4, 256)}
    assert sens["cap"] > sens["half_cap"] > 0


def test_gcd_phi_sum_exact_small_case():
    # sum_{n<=10} n/phi(n) = 1 + 2 + 3/2 + 2 + 5/4 + 3 + 7/6 + 2 + 3/2 + 5/2
    expected = float(Fraction(215, 12))
    assert gcd_phi_sum(10, 1) == pytest.approx(expected, abs=1e-12)


def test_gcd_phi_sum_single_term():
    for z in (1, 7, 360):
        assert gcd_phi_sum(1, z) == 1.0


def test_gcd_phi_sum_growth_bound():
    val = gcd_phi_sum(10**4, 12)
    assert val <= 5 * 10**4 * math.sqrt(12)


def test_gcd_phi_sum_brute():
    for x, z in [(20, 6), (35, 12), (50, 30)]:
        expected = sum(
            math.gcd(n, z) * Fraction(n, euler_phi(n)) for n in range(1, x + 1)
        )
        assert gcd_phi_sum(x, z) == pytest.approx(float(expected), rel=1e-12)


def test_lcm_phi_sum_rank_one_reduction():
    assert lcm_phi_sum(1, 10) == pytest.approx(gcd_phi_sum(10, 1))


def test_lcm_phi_sum_brute():
    for r, x, cap in [(2, 6, 12), (3, 3, 6)]:
        total = Fraction(0)
        ranges = [range(1, x + 1)] + [range(1, cap + 1)] * (r - 1)
        for tup in itertools.product(*ranges):
            total += Fraction(
                tup[0], euler_phi(math.lcm(*tup)) * math.prod(tup[1:])
            )
        assert lcm_phi_sum(r, x, cap) == pytest.approx(float(total), rel=1e-12)


def test_lcm_phi_sum_linear_growth():
    cap = 256
    r16 = lcm_phi_sum(2, 16, cap) / 16
    r32 = lcm_phi_sum(2, 32, cap) / 32
    assert abs(r32 - r16) <= 0.25 * r16


def test_kahan_sum_recovers_small_terms():
    acc = KahanSum()
    acc.add(1.0)
    for _ in range(10**4):
        acc.add(1e-16)
    assert acc.value == pytest.approx(1.0 + 1e-12, rel=1e-10)
