"""Segmented prime scans: multiplicative orders and indices of the alphas
modulo every prime up to x, classification against condition specs, complete
splitting fractions, and comparison against the series values.

Scans and splitting fractions share one walk over the primes, `_walk`:
data-parallel over fixed-width prime segments, with per-segment counts
merged by addition in segment order, so results are identical for any worker
count.  Every scan runs on one vectorised kernel over blocks, the primes of
windows _BLOCK wide: it reduces each alpha mod p exactly, reads v_2(p-1) off
its lowest set bit, and reads the q-parts of ind_p(alpha) off the quadratic
character (arith.square_mask) and one modular power per stage
(arith.powmod), whose rows test q^j | ind up to the cap.
A scan reads only the q-parts its specs need: each spec gives every alpha a
q-part plan (_spec_plans), specs sharing an alpha take the per-q maximum,
and each alpha raises its 2-part, then its odd q-parts, only on the primes
where some spec can still match (scan_many).  The odd part of p-1 is
factored (odd base primes <= sqrt(x) strided over the window) once per
block, only on the primes some odd stage will read.  Memory is bounded by
the widths _BLOCK and SEGMENT, not by x, and a walk whose processes would
pass WALK_BYTES_CAP stops before it starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .arith import (
    SCAN_X_CAP,
    FactoredRational,
    ResourceCapError,
    factor_p_minus_1,
    factorize,
    powmod,
    residues,
    segmented_primes,
    square_mask,
)
from .density import ConditionSpec, DensityResult, IndexFixed, OrderAP
from .kummer import FieldSpec

# Integers per segment: one sieve call, and one task of a forked walk.
SEGMENT = 1 << 22
# Largest estimated memory of a walk's processes, checked by _walk.
WALK_BYTES_CAP = 4 << 30


_GAMMA = 0.57721566490153286  # Euler's constant


def _li0(y: float) -> float:
    """li(y) = gamma + log log y + sum_{n >= 1} u^n / (n n!) with u = log y > 0.

    Every series term is positive, so math.fsum leaves only each term's own
    rounding.  The terms decrease once n > u; the sum stops at the first such
    term below 1e-17 of the running total.
    """
    u = math.log(y)
    terms = [_GAMMA, math.log(u)]
    power, n, total = 1.0, 0, 0.0  # power = u^n / n!
    while True:
        n += 1
        power *= u / n
        term = power / n
        terms.append(term)
        total += term
        if n > u and term < 1e-17 * total:
            return math.fsum(terms)


def li(x: float) -> float:
    """Logarithmic integral Li(x) = int_2^x dt/log t = li(x) - li(2), from
    the convergent series of li; 0.0 for x <= 2."""
    if x <= 2:
        return 0.0
    if not math.isfinite(x):
        raise ValueError(f"li needs a finite x, got {x!r}")
    return _li0(x) - _li0(2.0)


@dataclass
class ScanResult:
    """Empirical counts for one condition spec over primes p <= x, with the
    running counts at ascending checkpoints, the last at x.  Li(x) and both
    ratios are computed from the counts."""

    x: int
    matched: int
    considered: int
    excluded: tuple[int, ...]
    checkpoints: list[tuple[int, int, int]]  # (x_k, matched, considered)

    @property
    def li_x(self) -> float:
        return li(self.x)

    @property
    def ratio_considered(self) -> float:
        return self.matched / self.considered if self.considered else 0.0

    @property
    def ratio_li(self) -> float:
        li_x = self.li_x
        return self.matched / li_x if li_x else 0.0

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "matched": self.matched,
            "considered": self.considered,
            "excluded": list(self.excluded),
            "li_x": self.li_x,
            "ratios": {
                "matched_over_considered": self.ratio_considered,
                "matched_over_li": self.ratio_li,
            },
        }


@dataclass
class CompareReport:
    """Empirical ratio against the series value; `rel_gap` is
    |abs_gap| / |theory|, None when the series value is 0.  `sigma` is the
    binomial standard deviation of matched/considered about the series value
    delta, and `z` that ratio's distance from delta in sigmas: heuristic,
    since primes are not independent trials.  `z` is None when `sigma` is 0
    (delta 0 or 1, or no prime considered)."""

    empirical: float
    theory: float
    abs_gap: float
    rel_gap: Optional[float]
    error_scale: float
    sigma: float
    z: Optional[float]


# ---------------------------------------------------------------------------
# condition plumbing


def _kept(primes: np.ndarray, excluded: np.ndarray) -> np.ndarray:
    """Mask of a nonempty ascending array of primes, False at the excluded
    ones: one binary search per excluded prime."""
    keep = np.ones(primes.size, dtype=bool)
    at = np.minimum(np.searchsorted(primes, excluded), primes.size - 1)
    keep[at[primes[at] == excluded]] = False
    return keep


def _excluded(alphas: Sequence[FactoredRational], level: int, x: int) -> tuple[int, ...]:
    """The primes p <= x dividing a numerator or denominator of some alpha, or
    the level (the Frobenius level of a scan, the cyclotomic level M of a
    field), ascending."""
    out = {p for a in alphas for p in a.support()}
    if level > 1:
        out.update(p for p, _ in factorize(level).factors)
    return tuple(sorted(p for p in out if p <= x))


def _alpha_ok(mode, k: int, ind: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Mask of the primes at which the index `ind` of the mode's k-th alpha
    meets the mode's condition on it."""
    if isinstance(mode, IndexFixed):
        return ind == mode.T[k]
    if isinstance(mode, OrderAP):
        v, a, d = (primes - 1) // ind, mode.a[k], mode.d[k]
    else:
        # k is in S when it is one of a finite set's values or k = a (mod d);
        # indices are always >= 1, so a progression needs no k >= 1 test
        s = mode.S[k]
        if s.kind == "finite":
            return np.isin(ind, s.values)
        v, a, d = ind, s.a, s.d
    # ord and ind are below a scanned prime p <= SCAN_X_CAP: past the cap
    # v mod d = v, with no int64 reduction, and a residue past the cap
    # matches no prime
    if d > SCAN_X_CAP:
        return v == a % d if a % d <= SCAN_X_CAP else np.zeros(v.size, dtype=bool)
    return v % d == a % d


def _frobenius_ok(spec: ConditionSpec, primes: np.ndarray) -> np.ndarray:
    """Mask of the primes meeting the spec's Frobenius condition."""
    if spec.frobenius is None:
        return np.ones(primes.size, dtype=bool)
    f, C = spec.frobenius
    # a scanned prime p is at most SCAN_X_CAP: past the cap p mod f = p,
    # with no int64 reduction, and a class past the cap holds no prime
    residues = primes % f if f <= SCAN_X_CAP else primes
    return np.isin(residues, sorted(c for c in C if c <= SCAN_X_CAP))


# ---------------------------------------------------------------------------
# the per-prime kernel

# Integers per block: a block holds the primes of one window of this width,
# and its p-1 factorisations and modular powers, whatever x and SEGMENT.
_BLOCK = 1 << 16


def _alpha_residues(alpha: FactoredRational, primes: np.ndarray) -> np.ndarray:
    """num/den mod p for each prime, for alpha = num/den; 0 where p divides
    num * den."""
    v = alpha.value()
    a = residues(v.numerator, primes)
    if v.denominator != 1:
        a = a * powmod(residues(v.denominator, primes), primes - 2, primes) % primes
    return a


# A q-part plan for one alpha, (rest, caps): the kernel reads q^min(v_q(ind),
# cap_q) of ind_p(alpha), with cap_q = caps.get(q, rest).  _DEEP passes every
# exponent of p - 1 < 2^30, so _FULL_PLAN reads the whole index.
_DEEP = 32
_FULL_PLAN = (_DEEP, {})


def _merge_plans(x: tuple, y: tuple) -> tuple:
    """The per-q maximum of two plans: it reads everything either reads."""
    (rx, cx), (ry, cy) = x, y
    return max(rx, ry), {q: max(cx.get(q, rx), cy.get(q, ry)) for q in cx.keys() | cy.keys()}


def _fixed_plan(t: int) -> tuple:
    """ind = t iff v_q(ind) = v_q(t) for every q, and min(v, v_q(t) + 1) =
    v_q(t) iff v = v_q(t): so capped ind = t iff ind = t."""
    return 1, {q: e + 1 for q, e in factorize(t).factors}


def _set_plan(s) -> tuple:
    """The plan of one index set.  A finite set merges its values' fixed
    plans: each value's q-parts sit below their caps, so capped ind lies in
    the set iff ind does.  For k = a (mod d):
      d = 1: every index matches, so nothing is read;
      a = 0: d | ind iff v_q(ind) >= v_q(d) for q | d iff the capped
        ind = prod_{q | d} q^min(v_q(ind), v_q(d)) equals d, its only
        multiple of d;
      d = 2, a = 1: ind is odd iff min(v_2(ind), 1) = 0;
    any other progression reads the whole index."""
    if s.kind == "finite":
        return reduce(_merge_plans, map(_fixed_plan, s.values))
    if s.d == 1:
        return 0, {}
    if s.a == 0:
        return 0, dict(factorize(s.d).factors)
    if s.d == 2:
        return 0, {2: 1}
    return _FULL_PLAN


def _order_plan(a: int, d: int) -> tuple:
    """With c the index capped at full depth for q | d and 0 elsewhere,
    (p-1)/c = ord * (ind/c) and ind/c is prime to d: so d | ord iff
    d | (p-1)/c, and for d = 2 the two have the same parity.  Any other
    residue class of ord reads the whole index."""
    if d == 2 or a % d == 0:
        return 0, {q: _DEEP for q, _ in factorize(d).factors}
    return _FULL_PLAN


def _spec_plans(spec: ConditionSpec) -> list[tuple]:
    """One q-part plan per alpha of the spec: _alpha_ok gives the same mask on
    indices capped by it, or by any larger caps, as on the full ones."""
    mode = spec.mode
    if isinstance(mode, IndexFixed):
        return [_fixed_plan(t) for t in mode.T]
    if isinstance(mode, OrderAP):
        return [_order_plan(a, d) for a, d in zip(mode.a, mode.d)]
    return [_set_plan(s) for s in mode.S]


def _two_pairs(primes: np.ndarray) -> tuple:
    """The pairs (row, 2, v_2(p-1)), one per prime, with no factoring: log2 of
    the lowest set bit (p-1) & -(p-1) is exact, and 0 for p = 2."""
    pm1 = primes - 1
    return np.arange(pm1.size), np.full_like(pm1, 2), np.log2(pm1 & -pm1).astype(np.int64)


def _q_parts(out, primes, pairs, alpha: FactoredRational, plan: tuple, want) -> None:
    """Multiply `out` by q^min(v_q(ind), cap_q), ind = ind_p(alpha) =
    (p-1)/ord_p(alpha), for each pair (row, q, e) flagged in `want`, under the
    q-part plan (rest, caps): the 2-part stage passes a block's _two_pairs,
    the odd stage the odd pairs of factor_p_minus_1(primes, rows).

    For q^e exactly dividing p-1 and j <= e, q^j | ind iff
    alpha^((p-1)/q^j) = 1 (mod p), and the j at which it holds form an
    initial segment: so with c = min(cap_q, e), min(v_q(ind), c) is the
    number of j in [1, c] at which that power is 1.  Each pair expands into
    its rows (pair, j), and one modular power (arith.powmod) over the rows of
    every pair counts them.  On q = 2 the row j = 1 is the quadratic
    character (arith.square_mask): a non-square has no rows and 2-part 1, and
    a square's rows start at j = 2.  Pairs with c = 0 cost nothing.  A prime
    dividing a numerator or denominator reads alpha as 1, so every row is 1
    and it gets its q-parts of p-1.
    """
    row, q, e = pairs
    rest, caps = plan
    c = np.full_like(e, rest)
    for q0, cap in caps.items():
        c[q == q0] = cap
    np.minimum(c, e, out=c)
    keep = np.flatnonzero(want & (c > 0))
    r, q, c = row[keep], q[keep], c[keep]
    two = q == 2
    ones = np.zeros_like(c)  # the j counted so far: row j = 1 of a square
    ones[two] = square_mask(alpha, primes[r[two]])
    n = c - ones  # rows j = ones + 1, ..., c
    n[two & (ones == 0)] = 0
    pair = np.repeat(np.arange(c.size), n)
    if pair.size:
        j = np.arange(pair.size) - np.repeat(np.cumsum(n) - n, n) + ones[pair] + 1
        rp = r[pair]
        a = np.zeros_like(primes)
        a[rp] = 1
        at = np.flatnonzero(a)  # alpha mod p once per prime, not per row
        a[at] = _alpha_residues(alpha, primes[at])
        a = a[rp]
        a[a == 0] = 1
        p = primes[rp]
        one = powmod(a, (p - 1) // q[pair] ** j, p) == 1
        ones += np.bincount(pair[one], minlength=c.size)
    np.multiply.at(out, r, q**ones)


def check_scan_bound(x: int, workers: int = 1) -> int:
    """The number of segments of a walk to x, after ResourceCapError when x
    passes SCAN_X_CAP or the walk's min(workers, segments) processes would
    pass WALK_BYTES_CAP."""
    if x > SCAN_X_CAP:
        raise ResourceCapError(f"scan bound {x} exceeds cap {SCAN_X_CAP}")
    n_segments = (x - 1 + SEGMENT - 1) // SEGMENT
    # Each process holds the interpreter with numpy (30 MB), one segment's
    # sieve flags for odd integers and int64 primes (under 1.2 bytes per
    # integer; 2 counted) and one block's kernel arrays (under 64 bytes per
    # integer of its window; the five acceptance specs trace 21 at 10^6, 23 at
    # 3*10^7, 25 below 10^9): 42 MB; one segment below 10^9 peaks at 33 MB RSS.
    processes = min(workers, n_segments)
    need = processes * ((30 << 20) + 2 * SEGMENT + 64 * _BLOCK)
    if need > WALK_BYTES_CAP:
        raise ResourceCapError(
            f"{processes} scan processes need about {need >> 20} MB,"
            f" over the cap of {WALK_BYTES_CAP >> 20} MB"
        )
    return n_segments


# The walk's state, installed before forking so workers inherit it.
_SCAN: dict = {}


def _segment(idx: int):
    """The walk's count summed over the blocks of segment idx (0 if none)."""
    lo = 2 + idx * SEGMENT
    hi = min(lo + SEGMENT, _SCAN["x"] + 1)
    primes = segmented_primes(lo, hi)
    cuts = np.searchsorted(primes, range(lo, hi + _BLOCK, _BLOCK)).tolist()
    blocks = (primes[i:j] for i, j in zip(cuts, cuts[1:]) if j > i)
    return sum(map(_SCAN["count"], blocks))


def _walk(x: int, count, workers: int = 1):
    """Sum count(block) over the primes p <= x, one sieve call per segment
    [2 + k SEGMENT, 2 + (k + 1) SEGMENT) clipped to x + 1, and one block per
    nonempty window of _BLOCK integers from the segment's start.

    Segments are summed in order, starting from 0, so the result is the
    same for any worker count, and is count's array as segment 0 holds the
    prime 2; with workers > 1 the segments run in a fork pool whose workers
    inherit `count` through _SCAN.  ResourceCapError
    before any sieving or forking when the min(workers, segments) processes
    would pass WALK_BYTES_CAP.
    """
    n_segments = check_scan_bound(x, workers)
    if x < 2:
        raise ValueError("need x >= 2")
    if workers < 1:
        raise ValueError("need workers >= 1")
    _SCAN.clear()
    _SCAN.update({"x": x, "count": count})
    ctx = None
    if workers > 1 and n_segments > 1:
        # imported here, as only a forked walk needs it and it costs start-up
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")  # workers inherit _SCAN
        except ValueError:
            ctx = None
    if ctx is not None:
        with ctx.Pool(min(workers, n_segments)) as pool:
            return sum(pool.imap(_segment, range(n_segments)))
    return sum(map(_segment, range(n_segments)))


def scan_many(
    specs: Sequence[ConditionSpec],
    x: int,
    *,
    workers: int = 1,
    checkpoints: Sequence[int] = (),
) -> list[ScanResult]:
    """Scan all primes p <= x once, classifying against every spec, with the
    running counts at the dyadic checkpoints x // 2^k >= 4, at the given
    `checkpoints` below x and at x.

    Each distinct alpha's q-parts are raised once per prime and shared by
    the specs, on demand: live[spec] starts as the considered primes meeting
    the Frobenius condition, and each alpha in turn reads its 2-part, then
    its odd q-parts, each only where some spec whose own plan reads that
    stage is live.  After the 2-part a fixed index t keeps the primes whose
    2-part is 2^v_2(t), exact since the merged cap on 2 passes v_2(t); after
    the odd q-parts every spec keeps the primes meeting _alpha_ok, so live
    ends as the matched primes.  Results are independent of the worker count.

    A block's odd pairs come from one factor_p_minus_1 call at its first odd
    stage with demand, on the rows where some spec reading an odd q-part of
    any alpha is live: exact, since live[spec] only shrinks, so every later
    odd demand, a union of live[spec] over some of those specs, lies inside.
    A block where no such spec is live never factors.
    """
    alphas = list(dict.fromkeys(a for s in specs for a in s.alphas))
    plans = [(0, {})] * len(alphas)
    users = [[] for _ in alphas]  # (spec, alpha's place in it, (reads 2, reads odd q))
    for si, spec in enumerate(specs):
        for k, (alpha, (rest, caps)) in enumerate(zip(spec.alphas, _spec_plans(spec))):
            i = alphas.index(alpha)
            plans[i] = _merge_plans(plans[i], (rest, caps))
            odd = rest > 0 or any(c for q, c in caps.items() if q != 2)
            users[i].append((si, k, (caps.get(2, rest) > 0, odd)))
    odd_readers = sorted({si for used in users for si, _, reads in used if reads[1]})
    dyadic = {x >> k for k in range(1, x.bit_length() - 2)}
    thresholds = sorted(dyadic | {int(t) for t in checkpoints if t < x})
    bounds = np.array(thresholds, dtype=np.int64)
    excluded = [_excluded(s.alphas, s.frobenius[0] if s.frobenius else 1, x) for s in specs]
    spec_excl = [np.array(e, dtype=np.int64) for e in excluded]

    def count(primes: np.ndarray) -> np.ndarray:
        """counts[spec, 0 matched | 1 considered, checkpoint bucket]."""
        pairs = [_two_pairs(primes), None]  # the odd pairs on first demand
        considered = [_kept(primes, excl) for excl in spec_excl]
        live = [c & _frobenius_ok(spec, primes) for c, spec in zip(considered, specs)]
        for alpha, plan, used in zip(alphas, plans, users):
            ind = np.ones(primes.size, dtype=np.int64)
            for stage in (0, 1):
                demand = np.zeros(primes.size, dtype=bool)
                for si, _, reads in used:
                    if reads[stage]:
                        demand |= live[si]
                if demand.any():
                    if pairs[stage] is None:
                        readers = reduce(np.logical_or, [live[si] for si in odd_readers])
                        pairs[stage] = factor_p_minus_1(primes, np.flatnonzero(readers))
                    _q_parts(ind, primes, pairs[stage], alpha, plan, demand[pairs[stage][0]])
                for si, k, _ in used:
                    mode = specs[si].mode
                    if stage:
                        live[si] &= _alpha_ok(mode, k, ind, primes)
                    elif isinstance(mode, IndexFixed):
                        live[si] &= ind == (mode.T[k] & -mode.T[k])
        bucket = np.searchsorted(bounds, primes)
        counts = np.zeros((len(specs), 2, bounds.size + 1), dtype=np.int64)
        for si in range(len(specs)):
            counts[si, 0] = np.bincount(bucket[live[si]], minlength=bounds.size + 1)
            counts[si, 1] = np.bincount(bucket[considered[si]], minlength=bounds.size + 1)
        return counts

    totals = _walk(x, count, workers)
    out = []
    for counts, excl in zip(totals, excluded):
        ck = list(zip(thresholds + [x], *np.cumsum(counts, axis=1).tolist()))
        out.append(ScanResult(x, ck[-1][1], ck[-1][2], excl, ck))
    return out


def scan(spec: ConditionSpec, x: int, *, workers: int = 1) -> ScanResult:
    """Scan primes p <= x against one condition spec."""
    return scan_many([spec], x, workers=workers)[0]


# ---------------------------------------------------------------------------
# splitting fractions


def splitting_fraction_many(fspecs: Sequence[FieldSpec], x: int) -> list[float]:
    """Fractions of unexcluded primes p <= x splitting completely in each
    field, in one pass over the primes.

    Complete splitting for a degree-1 prime means p = 1 (mod M) and every
    alpha_i is an m_i-th power residue mod p.  No factoring: after the mask
    p = 1 (mod M), alpha_i is an m_i-th power residue exactly when
    alpha_i^((p-1)/m_i) = 1 (mod p).  For even m_i the quadratic character
    (arith.square_mask) filters first, since an m_i-th power is a square:
    at m_i = 2 that is the whole test, and at m_i >= 4 only the squares are
    raised.
    """
    data = [
        (fs.M, fs.m, fs.alphas, np.array(_excluded(fs.alphas, fs.M, x), dtype=np.int64))
        for fs in fspecs
    ]

    def count(primes: np.ndarray) -> np.ndarray:
        """counts[field, 0 split | 1 considered]."""
        counts = np.zeros((len(data), 2), dtype=np.int64)
        for k, (M, m, alphas, excl) in enumerate(data):
            keep = _kept(primes, excl)
            if M > SCAN_X_CAP:  # 0 < p - 1 < M for every scanned prime p
                counts[k] = 0, np.count_nonzero(keep)
                continue
            split = primes[keep & ((primes - 1) % M == 0)]
            for alpha, mi in zip(alphas, m):
                if mi % 2 == 0:
                    split = split[square_mask(alpha, split)]
                    if mi == 2:
                        continue
                residue = powmod(_alpha_residues(alpha, split), (split - 1) // mi, split)
                split = split[residue == 1]
            counts[k] = split.size, np.count_nonzero(keep)
        return counts

    totals = _walk(x, count)
    return [m / c if c else 0.0 for m, c in totals.tolist()]


def compare(theory: DensityResult, scan_result: ScanResult, rank: int = 1) -> CompareReport:
    """Gaps between the empirical ratio matched/li(x) and the series value,
    and the z-score of matched/considered against it."""
    delta, n = theory.value, scan_result.considered
    emp = scan_result.ratio_li
    gap = emp - delta
    rel = abs(gap) / abs(delta) if delta else None
    scale = math.log(scan_result.x) ** (-1.0 / (rank + 1))
    # a truncated series can leave [0, 1]: at small caps it can be negative
    p = min(max(delta, 0.0), 1.0)
    sigma = math.sqrt(p * (1.0 - p) / n) if n else 0.0
    z = (scan_result.ratio_considered - delta) / sigma if sigma else None
    return CompareReport(emp, delta, gap, rel, scale, sigma, z)
