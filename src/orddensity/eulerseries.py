"""Numeric verification of totient series estimates.

The target quantities are truncated multiple sums of the shape

    sum over n_1 > x, n_2..n_r <= cap  of  1 / (phi(lcm(n)) * n_1 * ... * n_r)

whose scaled values x * tail stay bounded (the 1/x law), plus the companion
sums with gcd(n, z) or n_1 in the numerator.  A finite cap replaces the
infinite series; `orddensity verify euler` reports the tail at cap/2 beside
the tail at cap, so boundedness claims are not truncation artifacts.

For r = 3 the box sum is evaluated exactly by aggregating the pair marginal
over gcd profiles: phi(lcm(a, m)) = phi(m) * Ex(a, gcd(a, m)) with Ex
depending only on a and the gcd, so grouping pairs (b, c) by divisibility of
lcm(b, c) turns the cap^3 loop into a cap^2 pass plus divisor sums.  The
rearrangement is deterministic and is cross-checked against the literal
triple loop at small caps in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import ResourceCapError, divisors, factorize, phi_sieve, prime_list

_BOX_CAP = 4096  # r >= 2 needs a phi table up to cap^2
_R1_CAP = 2 * 10**7


class KahanSum:
    """Compensated accumulator; keeps long sums reproducible to ~1 ulp."""

    __slots__ = ("_s", "_c")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self._s + y
        self._c = (t - self._s) - y
        self._s = t

    @property
    def value(self) -> float:
        return self._s


_PHI_STATE: dict = {"limit": 0, "table": None}
_MARGINAL_CACHE: dict[tuple[int, int, bool], np.ndarray] = {}


def _phi_table(limit: int) -> np.ndarray:
    # one shared table, grown on demand; any request <= limit is served by it
    if _PHI_STATE["limit"] < limit:
        _PHI_STATE["table"] = phi_sieve(limit)
        _PHI_STATE["limit"] = limit
    return _PHI_STATE["table"]


def squarefree_mask(limit: int) -> np.ndarray:
    """Boolean mask over 0..limit, True at squarefree indices (and 0)."""
    mask = np.ones(limit + 1, dtype=bool)
    for p in prime_list(math.isqrt(limit)):
        mask[p * p :: p * p] = False
    return mask


def _pair_lcm_row(b: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    c = np.arange(b, cap + 1, dtype=np.int64)
    g = np.gcd(b, c)
    return c, (c // g) * b


def _marginal_r2(cap: int, squarefree: bool) -> np.ndarray:
    """H2[a] = sum over admissible c <= cap of 1 / (c * phi(lcm(a, c)))."""
    key = (2, cap, squarefree)
    if key in _MARGINAL_CACHE:
        return _MARGINAL_CACHE[key]
    phi = _phi_table(cap * cap)
    h = np.zeros(cap + 1)
    c = np.arange(1, cap + 1, dtype=np.int64)
    if squarefree:
        c = c[squarefree_mask(cap)[1:]]
    inv_c = 1.0 / c
    for a in range(1, cap + 1):
        g = np.gcd(a, c)
        m = (c // g) * a
        h[a] = float(np.sum(inv_c / phi[m]))
    _MARGINAL_CACHE[key] = h
    return h


def _marginal_r3(cap: int, squarefree: bool) -> np.ndarray:
    """H3[a] = sum over admissible b, c <= cap of 1 / (b c phi(lcm(a, b, c)))."""
    key = (3, cap, squarefree)
    if key in _MARGINAL_CACHE:
        return _MARGINAL_CACHE[key]
    phi = _phi_table(cap * cap)
    sf = squarefree_mask(cap) if squarefree else None
    # V[m] = sum over pairs with lcm(b, c) = m of 1 / (b * c * phi(m))
    V = np.zeros(cap * cap + 1)
    for b in range(1, cap + 1):
        if sf is not None and not sf[b]:
            continue
        c, m = _pair_lcm_row(b, cap)
        w = 2.0 / (b * c * phi[m])
        w[0] *= 0.5  # diagonal pair (b, b) counted once
        if sf is not None:
            keep = sf[b:]
            c, m, w = c[keep], m[keep], w[keep]
        np.add.at(V, m, w)
    # D[e] = sum over multiples of e of V
    D = np.zeros(cap + 1)
    for e in range(1, cap + 1):
        D[e] = float(V[e::e].sum())
    h = np.zeros(cap + 1)
    for a in range(1, cap + 1):
        pairs = factorize(a).factors
        total = 0.0
        for delta in divisors(a):
            # Ex(a, delta) = phi(lcm(a, m)) / phi(m) for any m with gcd(a, m) = delta
            ex = 1
            ratios = [(1, 1)]  # squarefree e/delta with delta | e | a, and mu(e/delta)
            for p, j in pairs:
                pj = p**j
                pv = math.gcd(delta, pj)  # p^v_p(delta)
                ex *= (p - 1) * pj // p if pv == 1 else pj // pv
                if pv < pj:
                    ratios += [(r * p, -sign) for r, sign in ratios]
            # U = sum_{delta | e | a, e/delta squarefree} mu(e/delta) D[e]
            u = 0.0
            for e_ratio, sign in ratios:
                u += sign * D[delta * e_ratio]
            total += u / ex
        h[a] = total
    _MARGINAL_CACHE[key] = h
    return h


def _sum_over_range(h: np.ndarray, x: int, cap: int, squarefree: bool) -> float:
    n = np.arange(x + 1, cap + 1, dtype=np.int64)
    vals = h[x + 1 : cap + 1] / n
    if squarefree:
        vals = vals[squarefree_mask(cap)[x + 1 : cap + 1]]
    return float(np.sum(vals))


def phi_lcm_tail(r: int, x: int, cap: int, *, squarefree: bool = False) -> float:
    """sum over n_1 in (x, cap], n_2..n_r in [1, cap] of 1/(phi(lcm(n)) prod n_i).

    Deterministic evaluation; r <= 3 (cost grows like cap^r).  With
    squarefree=True every n_i is restricted to squarefree values, the
    sub-series whose r = 1 limit is zeta(2)zeta(3)/zeta(6) - 1.
    """
    if not (1 <= r <= 3):
        raise ValueError("rank must be 1, 2 or 3")
    if not (0 < x < cap):
        raise ValueError("need 0 < x < cap")
    if r == 1:
        if cap > _R1_CAP:
            raise ResourceCapError(f"cap {cap} too large for rank 1 (max {_R1_CAP})")
        phi = _phi_table(cap)
        n = np.arange(x + 1, cap + 1, dtype=np.int64)
        vals = 1.0 / (phi[x + 1 : cap + 1] * n)
        if squarefree:
            vals = vals[squarefree_mask(cap)[x + 1 : cap + 1]]
        return float(np.sum(vals))
    if cap > _BOX_CAP:
        raise ResourceCapError(f"cap {cap} too large for rank {r} (max {_BOX_CAP})")
    h = _marginal_r2(cap, squarefree) if r == 2 else _marginal_r3(cap, squarefree)
    return _sum_over_range(h, x, cap, squarefree)


def gcd_phi_sum(x: int, z: int) -> float:
    """sum_{n <= x} gcd(n, z) * n / phi(n), evaluated exactly then floated."""
    if x < 1 or z < 1:
        raise ValueError("need x, z >= 1")
    phi = phi_sieve(x)
    total = Fraction(0)
    for n in range(1, x + 1):
        total += math.gcd(n, z) * Fraction(n, int(phi[n]))
    return float(total)


def lcm_phi_sum(r: int, x: int, cap: int = 1024) -> float:
    """sum over n_1 <= x, n_2..n_r <= cap of n_1 / (phi(lcm(n)) n_2 ... n_r)."""
    if not (1 <= r <= 3):
        raise ValueError("rank must be 1, 2 or 3")
    if x < 1:
        raise ValueError("need x >= 1")
    if r == 1:
        return gcd_phi_sum(x, 1)
    if r == 2:
        if x * cap > 2**25:
            raise ResourceCapError("x * cap too large for rank 2")
        phi = _phi_table(x * cap)
        c = np.arange(1, cap + 1, dtype=np.int64)
        acc = KahanSum()
        for n1 in range(1, x + 1):
            g = np.gcd(n1, c)
            m = (c // g) * n1
            acc.add(float(np.sum(n1 / (phi[m] * c.astype(np.float64)))))
        return acc.value
    if x * cap * cap > 2**24:
        raise ResourceCapError("x * cap^2 too large for rank 3")
    phi = _phi_table(x * cap * cap)
    c = np.arange(1, cap + 1, dtype=np.int64)
    acc = KahanSum()
    for n1 in range(1, x + 1):
        for n2 in range(1, cap + 1):
            m12 = math.lcm(n1, n2)
            g = np.gcd(m12, c)
            m = (c // g) * m12
            acc.add(float(np.sum(n1 / (phi[m] * (n2 * c).astype(np.float64)))))
    return acc.value
