import itertools
import math
from fractions import Fraction

import pytest

from orddensity import eulerseries
from orddensity.arith import ResourceCapError, euler_phi, phi_sieve
from orddensity.cli import verify_euler
from orddensity.eulerseries import phi_lcm_tail

from oracles import inverse_n_phi_sum, phi_lcm_marginal


def brute_tail(r, x, cap):
    total = Fraction(0)
    ranges = [range(x + 1, cap + 1)] + [range(1, cap + 1)] * (r - 1)
    for tup in itertools.product(*ranges):
        total += Fraction(1, euler_phi(math.lcm(*tup)) * math.prod(tup))
    return float(total)


def test_phi_lcm_tail_matches_brute_force():
    for r, x, cap in [(1, 3, 30), (2, 2, 14), (2, 5, 20), (3, 2, 8), (3, 3, 16)]:
        assert phi_lcm_tail(r, x, cap) == pytest.approx(brute_tail(r, x, cap), rel=1e-12)


# the ids are those of the unrestricted cases when a squarefree variant ran too
@pytest.mark.parametrize("r, cap", [(2, 128), (3, 48)], ids=["2-128-False", "3-48-False"])
def test_phi_lcm_tail_matches_exact_marginal(r, cap):
    # every tail x = cap - 1 .. 1 against suffix sums of the exact marginal
    h = phi_lcm_marginal(r, cap)
    want = Fraction(0)
    for x in range(cap - 1, 0, -1):
        want += h[x + 1] / (x + 1)
        got = phi_lcm_tail(r, x, cap)
        assert abs(Fraction(got) - want) <= want / 10**15, (x, got, float(want))


def test_phi_tabulated_only_up_to_the_cap(monkeypatch):
    # phi(lcm) comes from phi of the arguments and their gcd, so no call
    # tabulates phi past the cap
    asked = []

    def spy(limit):
        asked.append(limit)
        return phi_sieve(limit)

    monkeypatch.setattr(eulerseries, "_MARGINAL_CACHE", {})
    monkeypatch.setattr(eulerseries, "phi_sieve", spy)
    for r in (2, 3):
        asked.clear()
        phi_lcm_tail(r, 4, 4096)
        assert asked and max(asked) <= 4096, (r, asked)


def test_phi_lcm_tail_single_term():
    # x = cap - 1 leaves only the last term 1/(phi(cap) * cap)
    for cap in (30, 36):  # squarefree and non-squarefree caps both count
        assert phi_lcm_tail(1, cap - 1, cap) == pytest.approx(
            1.0 / (euler_phi(cap) * cap)
        )


def test_phi_lcm_tail_anchor_constants():
    # sum over n >= 2 of 1/(n phi(n)) = prod_p (1 + p/((p-1)^2 (p+1))) - 1;
    # the terms past the cap add about 1.9/cap
    limit = inverse_n_phi_sum() - 1
    assert abs(phi_lcm_tail(1, 1, 10**5) - limit) < 1e-4
    assert abs(phi_lcm_tail(1, 1, 10**6) - limit) < 1e-5


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


# float.hex of `verify euler`'s output at cap 512, x = 4 .. 64: the row
# tails, then scaled_bound, then cap_sensitivity's cap and half_cap
EULER_GOLDEN_512 = {
    1: (
        ["0x1.a23389cb39f15p-2", "0x1.c292f6549fc54p-3", "0x1.cb2cc93610197p-4",
         "0x1.c7b7f2e31398fp-5", "0x1.aedbe7b7f766dp-6"],
        "0x1.a23389cb39f15p+1", "0x1.a23389cb39f15p-2", "0x1.9e5470b3b2a02p-2",
    ),
    2: (
        ["0x1.0e061403e0eb6p+0", "0x1.2859424944276p-1", "0x1.300947757d0cfp-2",
         "0x1.30343a307915cp-3", "0x1.20a3f7e9ee6d3p-4"],
        "0x1.0e061403e0eb6p+3", "0x1.0e061403e0eb6p+0", "0x1.0aadd6ba6b677p+0",
    ),
    3: (
        ["0x1.69b528874e4a3p+1", "0x1.94ed7189a469cp+0", "0x1.a34b71046314fp-1",
         "0x1.a7cd8b3f488bdp-2", "0x1.94004af4bd1b0p-3"],
        "0x1.69b528874e4a3p+4", "0x1.69b528874e4a3p+1", "0x1.63d1771800a7cp+1",
    ),
}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_verify_euler_matches_golden(r):
    out = verify_euler(r, 512)
    sens = out["cap_sensitivity"]
    got = (
        [row["tail"].hex() for row in out["rows"]],
        out["scaled_bound"].hex(), sens["cap"].hex(), sens["half_cap"].hex(),
    )
    assert got == EULER_GOLDEN_512[r]
    assert out["passed"]
