"""The benchmark's four workloads: inputs, the package calls, and the gate.

Every workload is one closed-loop caller making the calls below through the
package's public API with workers=1.  Construction is set-up; `run` makes the
timed calls; `check` compares the outputs with `oracles` after the clock has
stopped.  One operation is one scan spec, one field or one density
evaluation; an operation fails when its call raises or its check fails.

Why these four (each names the ROADMAP item it is there to show or to
guard):
  scan-acceptance  the five acceptance specs in one scan_many at x = 10^6;
                   the per-prime loop (factor p-1, order, classify) that the
                   unified index kernel replaces.
  chebotarev       ten splitting fractions at x = 10^6 plus their degrees;
                   one power-residue test per prime with no factoring, the
                   cheap scan path that kernel must not slow.
  series-rank2     (2,3) index (1,1) and (2,5) both indices even, cold
                   caches; relation groups and automorphism counts over
                   ~38k distinct fields, mostly cache misses.
  series-rank1     Artin, ord_2 odd on p = 3 (mod 4) and 40 order
                   progressions sharing one DegreeCache; ~80% degree-cache
                   hits and the OrderAP T-loop.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import nullcontext
from time import monotonic

from orddensity import arith, density, empirical, kummer
from orddensity.cli import CHEBOTAREV_FIELDS
from orddensity.density import ConditionSpec, IndexFixed, IndexSet, OrderAP, SetDescriptor

import oracles

SCAN_X = 10**6
SAMPLE_PRIMES = 64

def acceptance_specs() -> list[ConditionSpec]:
    """The five acceptance specs, as in tests/test_acceptance.py FIVE_CONFIGS."""
    both_even = IndexSet((SetDescriptor.progression(0, 2), SetDescriptor.progression(0, 2)))
    return [
        ConditionSpec.make([2], IndexFixed((1,))),
        ConditionSpec.make([2], OrderAP((0,), (2,))),
        ConditionSpec.make([2, 3], IndexFixed((1, 1))),
        ConditionSpec.make([2], OrderAP((1,), (2,)), frobenius=(4, {3})),
        ConditionSpec.make([2, 5], both_even),
    ]


# Closed-form densities of acceptance specs 0, 1, 3 and 4.  Spec 3 is
# p = 7 (mod 8): p = 3 (mod 4) makes (p-1)/2 odd, so ord_2 is odd exactly
# when 2 is a square mod p.  Spec 4 is complete splitting in Q(sqrt2, sqrt5).
ACCEPTANCE_CLOSED_FORMS = {0: oracles.ARTIN, 1: 17 / 24, 3: 1 / 4, 4: 1 / 4}

# Every density-evaluation span the series workloads record; the traced
# report carries all of them on every workload so the metric set is fixed.
EVALUATE_SPANS = [
    "density.evaluate.artin",
    "density.evaluate.ord2_odd_p3mod4",
    "density.evaluate.order_ap",
    "density.evaluate.idx23_11",
    "density.evaluate.idx25_even",
]


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.calls: list[tuple[float, float]] = []  # (start, end), CLOCK_MONOTONIC

    def call(self, span, fn, *args, **kwargs):
        """Time one call into the package; a raise yields None (a failed op)."""
        scope = self.tracer.span(span) if self.tracer and span else nullcontext()
        start = monotonic()
        try:
            with scope:
                return fn(*args, **kwargs)
        except Exception:  # the gate counts it; the run goes on
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.calls.append((start, monotonic()))

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.calls)

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts read from the workload's own outputs."""
        return {"empirical.primes_considered": 0, "density.terms_evaluated": 0}


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / reference


def _sampled_order_failures(seed: int, alphas) -> set[int]:
    """Alphas whose package order disagrees with the brute-force order on
    some prime of the seed's sample."""
    bad = set()
    for p in oracles.sample_primes(seed, SCAN_X, SAMPLE_PRIMES):
        for alpha in alphas:
            a = alpha % p
            if a and arith.multiplicative_order(a, p) != oracles.brute_order(a, p):
                bad.add(alpha)
    return bad


class ScanAcceptance(Workload):
    name = "scan-acceptance"
    params = {"x": SCAN_X, "specs": 5, "workers": 1}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.specs = acceptance_specs()
        self.results = None

    def run(self) -> None:
        self.results = self.call(None, empirical.scan_many, self.specs, SCAN_X, workers=1)

    def check(self) -> dict:
        results = self.results
        n = len(self.specs)
        if results is None:
            return {"attempted": n, "failed": n, "max_rel_err": 1.0}
        sample_bad = _sampled_order_failures(self.seed, (2, 3, 5))
        failed = 0
        for spec, res, (matched, considered) in zip(
            self.specs, results, oracles.SCAN_COUNTS_1E6
        ):
            uses_bad = any(int(a.value()) in sample_bad for a in spec.alphas)
            if uses_bad or (res.matched, res.considered) != (matched, considered):
                failed += 1
        err = max(
            _rel(results[i].ratio_considered, ref) for i, ref in ACCEPTANCE_CLOSED_FORMS.items()
        )
        return {"attempted": n, "failed": failed, "max_rel_err": err}

    def layer_counts(self) -> dict[str, float]:
        out = super().layer_counts()
        out["empirical.primes_considered"] = sum(r.considered for r in self.results or ())
        return out


class Chebotarev(Workload):
    name = "chebotarev"
    params = {"x": SCAN_X, "fields": len(CHEBOTAREV_FIELDS)}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.fields = [kummer.FieldSpec.make(a, m, M) for a, m, M in CHEBOTAREV_FIELDS]
        self.fractions = None
        self.degrees: list = []

    def run(self) -> None:
        self.fractions = self.call(None, empirical.splitting_fraction_many, self.fields, SCAN_X)
        self.degrees = [self.call(None, kummer.kummer_degree, f) for f in self.fields]

    def check(self) -> dict:
        fractions, degrees = self.fractions, self.degrees
        n = len(self.fields)
        if fractions is None:
            return {"attempted": n, "failed": n, "max_rel_err": 1.0}
        failed = 0
        err = 0.0
        for frac, deg, (matched, considered, degree) in zip(
            fractions, degrees, oracles.SPLIT_COUNTS_1E6
        ):
            if deg is None:
                failed += 1
                continue
            product = frac * deg
            err = max(err, abs(product - 1.0))
            exact = frac == matched / considered and deg == degree
            if not (exact and 0.95 <= product <= 1.05):
                failed += 1
        return {"attempted": n, "failed": failed, "max_rel_err": err}


class SeriesWorkload(Workload):
    """Density evaluations kept by label in `values` (None when one raised)."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.values: dict = {}

    def value(self, key) -> float:
        """The series value, 0 for an evaluation that raised."""
        res = self.values[key]
        return res.value if res is not None else 0.0

    def tail(self, key) -> float:
        res = self.values[key]
        return res.tail_estimate if res is not None else 0.0

    def layer_counts(self) -> dict[str, float]:
        out = super().layer_counts()
        out["density.terms_evaluated"] = sum(
            v.terms_evaluated for v in self.values.values() if v is not None
        )
        return out


class SeriesRank1(SeriesWorkload):
    name = "series-rank1"
    params = {"artin_nmax": 200, "nmax": 64, "tmax": 64, "progressions": 40}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cache = kummer.DegreeCache()
        self.artin = ConditionSpec.make([2], IndexFixed((1,)))
        self.frob = ConditionSpec.make([2], OrderAP((1,), (2,)), frobenius=(4, {3}))
        # (alpha, d, a) for alpha in {2, 3}, 2 <= d <= 6 and every a mod d
        self.progressions = [
            (alpha, d, a, ConditionSpec.make([alpha], OrderAP((a,), (d,))))
            for alpha in (2, 3)
            for d in range(2, 7)
            for a in range(d)
        ]

    def run(self) -> None:
        self.values["artin"] = self.call(
            "density.evaluate.artin",
            density.index_density_fixed, self.artin, nmax=200, cache=self.cache,
        )
        self.values["frob"] = self.call(
            "density.evaluate.ord2_odd_p3mod4",
            density.order_density, self.frob, nmax=64, tmax=64, cache=self.cache,
        )
        for alpha, d, a, spec in self.progressions:
            self.values[alpha, d, a] = self.call(
                "density.evaluate.order_ap",
                density.order_density, spec, nmax=64, tmax=64, cache=self.cache,
            )

    def check(self) -> dict:
        failed = {k for k, v in self.values.items() if v is None}
        value, tail = self.value, self.tail
        # (label, closed form, allowed gap), at the acceptance tolerances
        gates = [("artin", oracles.ARTIN, 5e-3), ("frob", 1 / 4, 0.05 / 4)]
        gates += [
            ((alpha, 2, a), closed, min(2e-2, tail((alpha, 2, a))))
            for (alpha, a), closed in oracles.ORDER_PARITY.items()
        ]
        for key, closed, allowed in gates:
            if abs(value(key) - closed) > allowed:
                failed.add(key)
        # the progressions mod d partition the primes: the sum over a is 1
        for alpha in (2, 3):
            for d in range(2, 7):
                keys = [(alpha, d, a) for a in range(d)]
                if abs(sum(map(value, keys)) - 1.0) > sum(map(tail, keys)):
                    failed.update(keys)
        err = max(_rel(value(key), closed) for key, closed, _ in gates)
        return {"attempted": len(self.values), "failed": len(failed), "max_rel_err": err}


class SeriesRank2(SeriesWorkload):
    name = "series-rank2"
    params = {"idx23_nmax": 64, "idx25_nmax": 16, "idx25_tmax": 64}

    def __init__(self, seed: int):
        super().__init__(seed)
        self.idx23 = ConditionSpec.make([2, 3], IndexFixed((1, 1)))
        self.idx25 = ConditionSpec.make(
            [2, 5], IndexSet((SetDescriptor.progression(0, 2), SetDescriptor.progression(0, 2)))
        )

    def run(self) -> None:
        self.values["idx23"] = self.call(
            "density.evaluate.idx23_11", density.index_density_fixed, self.idx23, nmax=64
        )
        self.values["idx25"] = self.call(
            "density.evaluate.idx25_even",
            density.index_density_set, self.idx25, nmax=16, tmax=64,
        )

    def check(self) -> dict:
        # acceptance tolerance of both configs: 10% relative
        gates = [("idx23", oracles.PRIMITIVE_2_3), ("idx25", 1 / 4)]
        failed = sum(
            self.values[key] is None or _rel(self.value(key), ref) > 0.10 for key, ref in gates
        )
        err = _rel(self.value("idx25"), 1 / 4)
        return {"attempted": len(gates), "failed": failed, "max_rel_err": err}


WORKLOADS = {w.name: w for w in (ScanAcceptance, Chebotarev, SeriesRank1, SeriesRank2)}
