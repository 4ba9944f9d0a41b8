"""Numeric verification of totient series estimates.

The target quantities are truncated multiple sums of the shape

    sum over n_1 > x, n_2..n_r <= cap  of  1 / (phi(lcm(n)) * n_1 * ... * n_r)

whose scaled values x * tail stay bounded (the 1/x law).  `orddensity verify
euler` checks that law for r = 1, 2, 3, and the rank-1 sum is the density
series' heuristic tail estimate.  A finite cap replaces the infinite series;
`verify euler` reports the tail at cap/2 beside the tail at cap, so
boundedness claims are not truncation artifacts.

For r = 2, 3 the tail reads one marginal over n_2..n_r <= cap,

    H[a] = sum of 1 / (n_2 ... n_r * phi(lcm(a, n_2, ..., n_r))).

With m = lcm(n_2, ..., n_r) it rests on two identities:

    phi(lcm(a, m)) * phi(gcd(a, m)) = phi(a) * phi(m),
    phi(gcd(a, m)) = sum over e | a, e | m of J(e),  where J = mu * phi.

Together they give H[a] = sum over e | a of J(e) * D[e] / phi(a), where D[e]
sums over the multiples m of e the weight W[m] of all tuples with lcm m,
W[m] = sum of 1 / (n_2 ... n_r * phi(m)).  J is multiplicative with
J(p) = p - 2 and J(p^k) = p^(k-2) * (p - 1)^2 for k >= 2, so J >= 0 and every
sum above has nonnegative terms: nothing cancels.  For r = 3 the first
identity also gives phi(lcm(b, c)) from phi(b), phi(c) and phi(gcd(b, c)), so
phi is needed only up to cap.  The pass over pairs b <= c <= cap is
the cap^2 part; the rest are divisor sums.  The tests check H against exact
Fraction marginals.
"""

from __future__ import annotations

import numpy as np

from .arith import ResourceCapError, phi_sieve

_BOX_CAP = 4096  # r = 3 collects its pair weights in an array of size cap^2
_R1_CAP = 2 * 10**7


_MARGINAL_CACHE: dict[tuple[int, int], np.ndarray] = {}
_R1_TAIL_CACHE: dict[tuple[int, int], float] = {}  # the rank-1 tail by (x, cap)


def _marginal(r: int, cap: int) -> np.ndarray:
    """H[a] for a <= cap: the sum over n_2..n_r <= cap of
    1 / (n_2 ... n_r * phi(lcm(a, n_2, ..., n_r))), for r = 2, 3."""
    key = (r, cap)
    if key in _MARGINAL_CACHE:
        return _MARGINAL_CACHE[key]
    phi = phi_sieve(cap)
    n = np.arange(1, cap + 1, dtype=np.int64)
    if r == 2:
        W = np.zeros(cap + 1)
        W[n] = 1.0 / (n * phi[n])
    else:
        # pairs b <= c, with phi(lcm(b, c)) = phi(b) phi(c) / phi(gcd(b, c))
        W = np.zeros(cap * cap + 1)
        for i, b in enumerate(n):
            c = n[i:]
            g = np.gcd(b, c)
            w = 2.0 * phi[g] / (b * phi[b] * c * phi[c])
            w[0] *= 0.5  # diagonal pair (b, b) counted once
            np.add.at(W, c // g * b, w)
    J = phi.copy()
    for d in range(1, cap // 2 + 1):  # Moebius inversion of phi = 1 * J
        J[2 * d :: d] -= J[d]
    G = np.zeros(cap + 1)
    for e in range(1, cap + 1):  # G[a] = sum over e | a of J(e) * D[e]
        G[e::e] += J[e] * W[e::e].sum()
    h = np.zeros(cap + 1)
    h[1:] = G[1:] / phi[1:]
    _MARGINAL_CACHE[key] = h
    return h


def phi_lcm_tail(r: int, x: int, cap: int) -> float:
    """sum over n_1 in (x, cap], n_2..n_r in [1, cap] of 1/(phi(lcm(n)) prod n_i).

    Deterministic evaluation; r <= 3 (cost grows like cap^(r-1)).  Each
    rank-1 value, and each marginal of r = 2, 3, is computed once.
    """
    if not (1 <= r <= 3):
        raise ValueError("rank must be 1, 2 or 3")
    if not (0 < x < cap):
        raise ValueError("need 0 < x < cap")
    limit = _R1_CAP if r == 1 else _BOX_CAP
    if cap > limit:
        raise ResourceCapError(f"cap {cap} too large for rank {r} (max {limit})")
    if r == 1:
        key = (x, cap)
        if key not in _R1_TAIL_CACHE:
            n = np.arange(x + 1, cap + 1, dtype=np.int64)
            _R1_TAIL_CACHE[key] = float(np.sum(1.0 / (phi_sieve(cap)[x + 1 :] * n)))
        return _R1_TAIL_CACHE[key]
    return float(np.sum(_marginal(r, cap)[x + 1 :] / np.arange(x + 1, cap + 1, dtype=np.int64)))
