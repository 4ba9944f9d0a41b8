import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest

import orddensity

from orddensity import empirical
from orddensity.arith import FactoredRational, ResourceCapError, prime_list, segmented_primes
from orddensity.cli import CHEBOTAREV_FIELDS
from orddensity.density import (
    ConditionSpec,
    DensityResult,
    IndexFixed,
    IndexSet,
    OrderAP,
    SetDescriptor,
    index_density_fixed,
    order_density,
)
from orddensity.empirical import (
    _FULL_PLAN,
    _excluded,
    compare,
    li,
    scan,
    scan_many,
    splitting_fraction_many,
)
from orddensity.kummer import FieldSpec, kummer_degree

from oracles import block_indices, residue_check_fraction


def brute_order(a, p):
    k, acc = 1, a % p
    while acc != 1:
        acc = acc * a % p
        k += 1
    return k


def brute_scan_index_one(alpha, x):
    hits = []
    for p in prime_list(x):
        p = int(p)
        if alpha % p == 0:
            continue
        if brute_order(alpha, p) == p - 1:
            hits.append(p)
    return hits


def test_scan_examples():
    spec = ConditionSpec.make([2], IndexFixed((1,)))
    res = scan(spec, 100)
    assert res.matched == 12
    assert brute_scan_index_one(2, 100) == [3, 5, 11, 13, 19, 29, 37, 53, 59, 61, 67, 83]
    assert res.excluded == (2,)

    res = scan(ConditionSpec.make([2], OrderAP((0,), (2,))), 20)
    assert (res.matched, res.considered) == (6, 7)

    res = scan(spec, 2)
    assert (res.matched, res.considered) == (0, 0)
    assert res.excluded == (2,)


def test_scan_against_brute_force():
    x = 2000
    spec = ConditionSpec.make([2], IndexFixed((1,)))
    assert scan(spec, x).matched == len(brute_scan_index_one(2, x))
    # order progressions checked against direct orders
    for a, d in [(0, 2), (1, 2), (0, 3), (2, 5)]:
        res = scan(ConditionSpec.make([3], OrderAP((a,), (d,))), x)
        expected = sum(
            1
            for p in prime_list(x)
            if int(p) != 3 and brute_order(3, int(p)) % d == a % d
        )
        assert res.matched == expected


def test_scan_fractional_alpha():
    x = 3000
    spec = ConditionSpec.make(["3/4"], IndexFixed((2,)))
    res = scan(spec, x)
    assert set(res.excluded) == {2, 3}
    expected = 0
    for p in prime_list(x):
        p = int(p)
        if p in (2, 3):
            continue
        val = 3 * pow(4, -1, p) % p
        if (p - 1) // brute_order(val, p) == 2:
            expected += 1
    assert res.matched == expected


def test_scan_frobenius_refinement_partitions():
    x = 10**5
    f = 5
    full = scan(ConditionSpec.make([2], IndexFixed((1,)), frobenius=(f, set(range(1, f)))), x)
    parts = scan_many(
        [
            ConditionSpec.make([2], IndexFixed((1,)), frobenius=(f, {c}))
            for c in range(1, f)
        ],
        x,
    )
    assert sum(p.matched for p in parts) == full.matched


def test_frobenius_level_past_int64():
    # every scanned prime p is below f = 2^64, so p mod f = p: the classes
    # 3, 5 and 2^64 - 1 hold the primes 3 and 5, both with index 1 for 2
    f = 2**64
    res = scan(ConditionSpec.make([2], IndexFixed((1,)), frobenius=(f, {3, 5, f - 1})), 1000)
    assert [p for p in brute_scan_index_one(2, 1000) if p in (3, 5, f - 1)] == [3, 5]
    assert (res.matched, res.considered, res.excluded) == (2, len(prime_list(1000)) - 1, (2,))


def test_index_partition_histogram():
    # scans on the q-part plans of fixed indices count what the full index
    # gives; a fraction's primes are excluded
    x = 10**4
    below_x = segmented_primes(2, x + 1)
    for pair, excluded in (((2, 1), [2]), ((3, 4), [2, 3])):
        primes = below_x[~np.isin(below_x, excluded)]
        alpha = FactoredRational.from_fraction(Fraction(*pair))
        hist = Counter(block_indices(primes, [alpha], [_FULL_PLAN])[0].tolist())
        for t in (1, 2, 3, 4, 6, 8):
            res = scan(ConditionSpec.make([Fraction(*pair)], IndexFixed((t,))), x)
            assert res.matched == hist.get(t, 0)
            assert res.considered == primes.size


def test_index_set_scan_matches_union_of_fixed():
    x = 10**4
    spec = ConditionSpec.make([2], IndexSet((SetDescriptor.finite([1, 4]),)))
    combined = scan(spec, x)
    singles = scan_many(
        [
            ConditionSpec.make([2], IndexFixed((1,))),
            ConditionSpec.make([2], IndexFixed((4,))),
        ],
        x,
    )
    assert combined.matched == singles[0].matched + singles[1].matched


def test_scan_worker_invariance():
    # the spy shows the workers=3 scan forks: the serial fallback would
    # give the same counts
    spec = ConditionSpec.make([2, 3], IndexFixed((1, 1)))
    with mock.patch.object(empirical, "SEGMENT", 1 << 14), mock.patch.object(
        multiprocessing, "get_context", wraps=multiprocessing.get_context
    ) as get_context:
        serial = scan(spec, 10**5, workers=1)
        get_context.assert_not_called()
        forked = scan(spec, 10**5, workers=3)
    get_context.assert_called_once_with("fork")
    assert (serial.matched, serial.considered) == (forked.matched, forked.considered)


def test_scan_memory_is_bounded_by_the_segment():
    # tracemalloc sees numpy's buffers; an O(x) table would grow 4x here, and
    # blocks of a fixed prime count, spanning count * ln p integers, 10-12%.
    # The warm-up scan fills the caches (the base primes), which would
    # otherwise move the first peak by about 2%
    both_even = IndexSet((SetDescriptor.progression(0, 2), SetDescriptor.progression(0, 2)))
    specs = [
        ConditionSpec.make([2], IndexFixed((1,))),
        ConditionSpec.make([2], OrderAP((0,), (2,))),
        ConditionSpec.make([2, 3], IndexFixed((1, 1))),
        ConditionSpec.make([2], OrderAP((1,), (2,)), frobenius=(4, {3})),
        ConditionSpec.make([2, 5], both_even),
    ]
    peaks = []
    with mock.patch.object(empirical, "SEGMENT", 1 << 16):
        scan_many(specs, 10**5)
        for x in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                scan_many(specs, x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) < 4 * 2**20
    assert peaks[1] < 1.02 * peaks[0]


def test_scan_checkpoints_monotone():
    # every scan carries its dyadic checkpoints, ending at (x, matched, considered)
    spec = ConditionSpec.make([2], IndexFixed((1,)))
    res = scan(spec, 10**4)
    xs = [c[0] for c in res.checkpoints]
    assert xs == sorted({10**4 >> k for k in range(1, 12)} | {10**4})
    matched = [c[1] for c in res.checkpoints]
    assert matched == sorted(matched)
    assert res.checkpoints[-1] == (10**4, res.matched, res.considered)


def test_scan_checkpoints_at_given_bounds():
    # a sequence of bounds adds its bounds below x to the dyadic checkpoints,
    # each with the counts a scan to that bound gives
    spec = ConditionSpec.make([2], IndexFixed((1,)))
    dyadic = scan(spec, 10**5).checkpoints
    got = scan_many([spec], 10**5, checkpoints=[10**4, 10**3, 10**5, 10**6])[0].checkpoints
    at = {bound: (bound, r.matched, r.considered) for bound in (10**3, 10**4)
          for r in [scan(spec, bound)]}
    assert got == sorted(dyadic + list(at.values()))
    assert scan_many([spec], 10**5, checkpoints=[])[0].checkpoints == dyadic


def test_scan_ratios_follow_the_counts():
    # Li(x) and the ratios are read off the counts, so a result with a
    # replaced count cannot keep the old ratios
    res = scan(ConditionSpec.make([2], IndexFixed((1,))), 10**4)
    k = res.matched + 7
    moved = dataclasses.replace(res, matched=k)
    assert moved.ratio_considered == k / res.considered
    assert moved.ratio_li == k / li(10**4) == k / moved.li_x


def test_scan_to_dict_holds_the_readme_keys():
    # the checkpoints go to --csv, not to the scan's JSON
    res = scan(ConditionSpec.make([2], IndexFixed((1,))), 10**4)
    assert res.checkpoints
    assert sorted(res.to_dict()) == ["considered", "excluded", "li_x", "matched", "ratios", "x"]


def test_scan_resource_guard():
    spec = ConditionSpec.make([2], IndexFixed((1,)))
    with pytest.raises(ResourceCapError):
        scan(spec, 10**9 + 1)


def test_excluded_primes():
    spec = ConditionSpec.make(["10/21"], IndexFixed((1,)), frobenius=(6, {1}))
    assert _excluded(spec.alphas, spec.frobenius[0], 100) == (2, 3, 5, 7)
    assert _excluded(spec.alphas, spec.frobenius[0], 6) == (2, 3, 5)
    assert scan(spec, 100).excluded == (2, 3, 5, 7)


def test_li_values():
    # int_2^10 dt/log t and int_2^100 dt/log t
    assert li(10) == pytest.approx(5.12043572, abs=1e-5)
    assert li(100) == pytest.approx(29.080978, abs=1e-4)
    assert li(2) == 0.0


def test_li_matches_mpmath():
    with mpmath.workdps(40):
        for x in [3, 10, 10**2, 10**3, 10**5, 10**6, 10**7, 10**8, 10**9]:
            exact = mpmath.li(x) - mpmath.li(2)
            assert abs((li(x) - exact) / exact) <= 4e-15, x
    assert li(2) == li(1) == 0.0


def run_fresh(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this package."""
    path = [str(Path(orddensity.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout


def test_package_runs_without_scipy():
    # a fresh interpreter: a scan, a series value and a compare load no scipy
    code = """
import sys
import orddensity, orddensity.cli
from orddensity import density, empirical
spec = density.ConditionSpec.make([2], density.IndexFixed((1,)))
res = empirical.scan(spec, 1000)
empirical.compare(density.evaluate(spec, 8), res)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert run_fresh(code).strip() == "[]"


def test_only_a_forked_walk_loads_multiprocessing():
    # a fresh interpreter: imports, a one-worker scan and a series value leave
    # the fork pool's module unloaded; a forked walk loads it and counts the same
    code = """
import sys
import orddensity, orddensity.cli
from orddensity import density, empirical
spec = density.ConditionSpec.make([2, 3], density.IndexFixed((1, 1)))
serial = empirical.scan_many([spec], 10**5)
density.evaluate(spec, 8)
print("multiprocessing" in sys.modules)
empirical.SEGMENT = 1 << 14
forked = empirical.scan_many([spec], 10**5, workers=2)
print("multiprocessing" in sys.modules, forked == serial)
"""
    assert run_fresh(code).split() == ["False", "True", "True"]


def test_star_import_binds_all():
    # a stale __all__ entry passes `import orddensity` but breaks the star import
    namespace = {}
    exec("from orddensity import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(orddensity.__all__)) == sorted(orddensity.__all__)


def test_splitting_fraction_examples():
    fs = FieldSpec.make([2], (2,), 8)
    [frac] = splitting_fraction_many([fs], 10**5)
    assert frac == pytest.approx(0.25, abs=0.02)
    trivial = FieldSpec.make([2], (1,), 1)
    assert splitting_fraction_many([trivial], 10**4) == [1.0]


def test_splitting_fraction_level_past_int64():
    # p - 1 < 2^64 for every scanned prime p, so none is 1 (mod 2^64); the
    # field of level 8 beside them keeps its fraction
    beside = FieldSpec.make([2], (2,), 8)
    past = [FieldSpec.make([2], (2,), 2**64), FieldSpec.make([3], (2**64,), 2**64)]
    [frac] = splitting_fraction_many([beside], 1000)
    assert splitting_fraction_many([*past, beside], 1000) == [0.0, 0.0, frac]


def test_splitting_fraction_times_degree_near_one():
    fields = [
        FieldSpec.make([2], (2,), 8),
        FieldSpec.make([2, 3], (2, 2), 24),
        FieldSpec.make([5], (2,), 10),
    ]
    fracs = splitting_fraction_many(fields, 10**6)
    for fs, frac in zip(fields, fracs):
        assert frac * kummer_degree(fs) == pytest.approx(1.0, abs=0.05)


# (alphas, m, M): every m in {2, 4, 6} with negative, fractional, square-
# factor and Delta > 1 alphas, a prime past the Legendre table, and fields
# of two alphas
SPLIT_GRID = [
    ((-2,), (2,), 2),
    ((-2,), (4,), 8),
    (("3/5",), (2,), 4),
    (("3/5",), (6,), 6),
    ((12,), (2,), 2),
    ((12,), (4,), 4),
    ((-27,), (2,), 2),
    ((-27,), (6,), 6),
    ((65537,), (2,), 2),
    ((65537,), (4,), 4),
    ((2, 3), (2, 2), 2),
    ((2, 3), (4, 6), 12),
    ((-2, "3/5"), (6, 2), 6),
    ((12, -27), (2, 4), 4),
]


def test_splitting_counts_match_residue_oracle_exactly():
    x = 2 * 10**4
    fields = [FieldSpec.make(a, m, M) for a, m, M in SPLIT_GRID]
    for (alphas, m, M), fs, frac in zip(SPLIT_GRID, fields, splitting_fraction_many(fields, x)):
        qs = [Fraction(a) for a in alphas]
        hit, _ = residue_check_fraction(qs, m, M, x)
        # the fraction's denominator: every p <= x prime to M and the alphas
        total = sum(
            1 for p in prime_list(x).tolist()
            if M % p and all(q.numerator * q.denominator % p for q in qs)
        )
        assert frac == hit / total, (alphas, m, M, frac * total, hit)


def test_splitting_fractions_are_segment_invariant():
    fields = [FieldSpec.make(a, m, M) for a, m, M in CHEBOTAREV_FIELDS]
    # segment 7 leaves some segments without a prime, such as [114, 121)
    assert segmented_primes(2 + 16 * 7, 2 + 17 * 7).size == 0
    fractions = []
    for segment in (7, 256, 1 << 22):
        with mock.patch.object(empirical, "SEGMENT", segment):
            fractions.append(splitting_fraction_many(fields, 10**5))
    assert fractions[0] == fractions[1] == fractions[2]


def test_walk_sieves_windows_of_segment_integers_that_tile_the_range():
    x, windows = 10**4, []

    def spy(lo, hi):
        windows.append((lo, hi))
        return segmented_primes(lo, hi)

    with mock.patch.object(empirical, "SEGMENT", 1000), \
            mock.patch.object(empirical, "segmented_primes", spy):
        res = scan(ConditionSpec.make([2], IndexFixed((1,))), x)
    assert res.considered == prime_list(x).size - 1
    assert len(windows) == -(-(x - 1) // 1000)
    assert all(hi - lo <= 1000 for lo, hi in windows)
    assert [lo for lo, _ in windows] == [2] + [hi for _, hi in windows[:-1]]
    assert windows[-1][1] == x + 1


def test_compare_report():
    spec = ConditionSpec.make([2], IndexFixed((1,)))
    theory = index_density_fixed(spec, nmax=64)
    emp = scan(spec, 10**5)
    rep = compare(theory, emp, rank=1)
    assert rep.empirical == pytest.approx(emp.matched / emp.li_x)
    assert rep.abs_gap == pytest.approx(rep.empirical - theory.value)
    assert rep.rel_gap < 0.05
    assert rep.error_scale == pytest.approx(math.log(10**5) ** -0.5)
    delta = theory.value
    assert rep.sigma == pytest.approx(math.sqrt(delta * (1 - delta) / emp.considered))
    assert rep.z == pytest.approx((emp.matched / emp.considered - delta) / rep.sigma)
    rep2 = compare(theory, emp, rank=1)
    assert rep == rep2
    # a zero series value leaves the relative gap and the z-score undefined,
    # not infinite
    zero = DensityResult(0.0, 1, (1, 0), 0.0)
    assert compare(zero, emp).rel_gap is None
    assert compare(zero, emp).sigma == 0.0 and compare(zero, emp).z is None
    # so does a negative value, which a truncated series gives at small caps
    negative = DensityResult(-0.14, 1, (3, 3), 0.0)
    assert compare(negative, emp).sigma == 0.0 and compare(negative, emp).z is None
    # and its relative gap stays a magnitude: ord_p(-3) = 0 (mod 6) truncated
    # at 3/3 sums to -0.1435
    spec = ConditionSpec.make([-3], OrderAP((0,), (6,)))
    theory = order_density(spec, nmax=3, tmax=3)
    rep = compare(theory, scan(spec, 1000))
    assert theory.value < 0
    assert rep.rel_gap == pytest.approx(abs(rep.abs_gap) / -theory.value)
    assert rep.rel_gap == pytest.approx(1.9076, abs=1e-4)
