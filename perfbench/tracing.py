"""Per-layer tracing from outside the package.

Each public function is wrapped under the name its caller looks it up by
(`orddensity.empirical.order_from_pairs`, not `orddensity.arith.order_from_pairs`),
so the wrapper sees exactly the calls the package makes.  Calls are
aggregated into a count, a summed duration and a summed child duration per
layer name; no span is kept per call, because the per-prime layers are
called hundreds of thousands of times.  Self time is duration minus the
time covered by wrapped children, so it includes the wrappers' own cost.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer): timed wrappers
TIMED = [
    ("orddensity.empirical", "scan_many", "empirical.scan_many"),
    ("orddensity.empirical", "splitting_fraction_many", "empirical.splitting_fraction_many"),
    ("orddensity.empirical", "segmented_primes", "arith.segmented_primes"),
    ("orddensity.empirical", "shared_spf_table", "arith.spf_table"),
    ("orddensity.empirical", "order_from_pairs", "arith.order_from_pairs"),
    ("orddensity.empirical", "li", "empirical.li"),
    ("orddensity.arith", "SpfTable.factor_pairs", "arith.factor_pairs"),
    ("orddensity.density", "degree_info", "kummer.degree_info"),
    ("orddensity.kummer", "degree_info", "kummer.degree_info"),
    ("orddensity.kummer", "kummer_degree", "kummer.kummer_degree"),
    ("orddensity.density", "count_automorphisms", "kummer.count_automorphisms"),
    ("orddensity.kummer", "lies_in_cyclotomic", "cyclo.lies_in_cyclotomic"),
    ("orddensity.density", "phi_lcm_tail", "eulerseries.phi_lcm_tail"),
]

# (module, attribute, layer): count-only wrappers for the cheapest calls
COUNTED = [
    ("orddensity.kummer", "radical_product", "cyclo.radical_product"),
    ("orddensity.kummer", "fixed_by", "cyclo.fixed_by"),
    ("orddensity.cyclo", "fixed_by", "cyclo.fixed_by"),
]


def _resolve(module: str, attr: str):
    """(owner, name) of a dotted attribute, or None once the code is gone."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return (owner, name) if hasattr(owner, name) else None


class Tracer:
    """Installs wrappers, aggregates calls, and restores the originals."""

    def __init__(self):
        self.timed: dict[str, list] = {}  # layer -> [calls, seconds, child seconds]
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _open(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, entry: list, start: float) -> None:
        """Add one call to its layer and its duration to the enclosing span."""
        took = perf_counter() - start
        entry[0] += 1
        entry[1] += took
        entry[2] += self._stack.pop()
        if self._stack:
            self._stack[-1] += took

    def _timed(self, layer: str, fn, after=None):
        entry = self.timed.setdefault(layer, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            start = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(entry, start)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _counted(self, layer: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def span(self, layer: str):
        """Time a block of the benchmark's own code as a layer span."""
        entry = self.timed.setdefault(layer, [0, 0.0, 0.0])
        start = self._open()
        try:
            yield
        finally:
            self._close(entry, start)

    # -- installation ---------------------------------------------------------

    def _patch(self, module: str, attr: str, make):
        """Wrap one function; a function the package no longer has reports 0."""
        target = _resolve(module, attr)
        if target is None:
            return
        owner, name = target
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> "Tracer":
        counts = self.counts

        def scanned(primes):
            counts["empirical.primes_scanned"] += len(primes)

        def spf_bytes(table):
            counts["arith.spf_table.bytes"] = 4 * (table.limit + 1)

        def automorphisms(count):
            counts["kummer.count_automorphisms.nonzero"] += count != 0

        after = {
            "arith.segmented_primes": scanned,
            "arith.spf_table": spf_bytes,
            "kummer.count_automorphisms": automorphisms,
        }
        for module, attr, layer in TIMED:
            self._patch(module, attr, lambda fn, l=layer: self._timed(l, fn, after.get(l)))
        for module, attr, layer in COUNTED:
            self._patch(module, attr, lambda fn, l=layer: self._counted(l, fn))
        self._patch("orddensity.kummer", "relation_group", self._wrap_relation_group)
        self._patch("orddensity.kummer", "DegreeCache.get", self._wrap_cache_get)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap_relation_group(self, cached):
        """Time relation_group and count enumerations (lru_cache misses, or
        every call without the cache) and the members they produce;
        cache_info and cache_clear stay usable."""
        counts = self.counts
        info = getattr(cached, "cache_info", None)

        def enumerate_on_miss(*args, **kwargs):
            before = info().misses if info else None
            out = cached(*args, **kwargs)
            if info is None or info().misses != before:
                counts["kummer.relation_group.misses"] += 1
                counts["kummer.relation_group.members"] += len(out.members)
            return out

        wrapper = self._timed("kummer.relation_group", enumerate_on_miss)
        if info is not None:
            wrapper.cache_info = info
            wrapper.cache_clear = cached.cache_clear
        return wrapper

    def _wrap_cache_get(self, get):
        counts = self.counts

        def wrapper(cache, key):
            out = get(cache, key)
            counts["kummer.degree_cache.gets"] += 1
            counts["kummer.degree_cache.hits"] += out is not None
            return out

        return wrapper

    # -- report ---------------------------------------------------------------

    def seconds(self, layer: str) -> float:
        return self.timed.get(layer, (0, 0.0, 0.0))[1]

    def self_seconds(self, layer: str) -> float:
        _, total, child = self.timed.get(layer, (0, 0.0, 0.0))
        return total - child

    def calls(self, layer: str) -> int:
        return self.timed.get(layer, (0, 0.0, 0.0))[0]

    def layers(self, evaluate_spans: list[str]) -> dict[str, float]:
        """Every per-layer metric, zero where the workload skips the layer."""
        c = self.counts
        scanned = c["empirical.primes_scanned"]
        gets = c["kummer.degree_cache.gets"]
        autos = self.calls("kummer.count_automorphisms")
        out = {
            "arith.segmented_primes.s": self.seconds("arith.segmented_primes"),
            "arith.segmented_primes.calls": self.calls("arith.segmented_primes"),
            "arith.spf_table.s": self.seconds("arith.spf_table"),
            "arith.spf_table.bytes": c["arith.spf_table.bytes"],
            "arith.factor_pairs.s": self.seconds("arith.factor_pairs"),
            "arith.factor_pairs.calls": self.calls("arith.factor_pairs"),
            "arith.order_from_pairs.s": self.seconds("arith.order_from_pairs"),
            "arith.order_from_pairs.calls": self.calls("arith.order_from_pairs"),
            "empirical.scan_many.s": self.seconds("empirical.scan_many"),
            "empirical.scan_many.self_s": self.self_seconds("empirical.scan_many"),
            "empirical.splitting_fraction_many.s": self.seconds(
                "empirical.splitting_fraction_many"
            ),
            "empirical.splitting_fraction_many.self_s": self.self_seconds(
                "empirical.splitting_fraction_many"
            ),
            "empirical.primes_scanned": scanned,
            "empirical.orders_per_prime": (
                self.calls("arith.order_from_pairs") / scanned if scanned else 0.0
            ),
            "empirical.li.s": self.seconds("empirical.li"),
            "kummer.degree_info.s": self.seconds("kummer.degree_info"),
            "kummer.degree_info.calls": self.calls("kummer.degree_info"),
            "kummer.degree_cache.hit_ratio": c["kummer.degree_cache.hits"] / gets if gets else 0.0,
            "kummer.relation_group.s": self.seconds("kummer.relation_group"),
            "kummer.relation_group.calls": self.calls("kummer.relation_group"),
            "kummer.relation_group.misses": c["kummer.relation_group.misses"],
            "kummer.relation_group.members": c["kummer.relation_group.members"],
            "kummer.count_automorphisms.s": self.seconds("kummer.count_automorphisms"),
            "kummer.count_automorphisms.calls": autos,
            "kummer.count_automorphisms.nonzero_ratio": (
                c["kummer.count_automorphisms.nonzero"] / autos if autos else 0.0
            ),
            "kummer.kummer_degree.s": self.seconds("kummer.kummer_degree"),
            "cyclo.radical_product.calls": c["cyclo.radical_product"],
            "cyclo.lies_in_cyclotomic.s": self.seconds("cyclo.lies_in_cyclotomic"),
            "cyclo.lies_in_cyclotomic.calls": self.calls("cyclo.lies_in_cyclotomic"),
            "cyclo.fixed_by.calls": c["cyclo.fixed_by"],
            "eulerseries.phi_lcm_tail.s": self.seconds("eulerseries.phi_lcm_tail"),
            "eulerseries.phi_lcm_tail.calls": self.calls("eulerseries.phi_lcm_tail"),
            "density.accumulate.self_s": sum(self.self_seconds(s) for s in evaluate_spans),
        }
        for span in evaluate_spans:
            out[f"{span}.s"] = self.seconds(span)
        return out
