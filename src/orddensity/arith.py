"""Exact integer arithmetic primitives: sieves, factorization, multiplicative
functions, Kronecker symbol, multiplicative order, and the elementwise
kernels over int64 arrays the prime scans run on (residues, modular powers,
quadratic characters, odd parts of p - 1 in one strided pass).

Everything here is pure and reentrant.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np


class ResourceCapError(RuntimeError):
    """An operation would exceed its configured resource cap."""


# ---------------------------------------------------------------------------
# factored rationals


@dataclass(frozen=True)
class FactoredRational:
    """A nonzero rational as sign * prod p^e on an exponent map.

    ``factors`` is a tuple of (prime, exponent) pairs sorted by prime with
    nonzero exponents; the empty tuple with sign +1 is the number 1.  All
    arithmetic stays on the exponent maps, so huge powers such as
    prod alpha_i^(e_i*L/m_i) never materialize as integers.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        prev = 1
        for p, e in self.factors:
            if p <= prev or e == 0:  # enforces p >= 2, ascending, no repeats
                raise ValueError("factor map needs ascending primes, nonzero exponents")
            prev = p

    @staticmethod
    def from_map(sign: int, exps: dict[int, int]) -> "FactoredRational":
        items = tuple(sorted((p, e) for p, e in exps.items() if e != 0))
        return FactoredRational(sign, items)

    @staticmethod
    def from_fraction(q: Fraction | int) -> "FactoredRational":
        q = Fraction(q)
        if q == 0:
            raise ValueError("zero has no factored representation")
        num, den = factorize(q.numerator), factorize(q.denominator)
        # the two are coprime, so no prime is in both maps
        exps = {**dict(num.factors), **{p: -e for p, e in den.factors}}
        return FactoredRational.from_map(num.sign, exps)

    @staticmethod
    def of(q) -> "FactoredRational":
        """q itself when it is a FactoredRational, else the factored value of
        an int, Fraction or rational string such as '3/5'.  ValueError for
        zero and for anything that is not a rational."""
        if isinstance(q, FactoredRational):
            return q
        try:
            value = Fraction(q)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational {q!r}") from exc
        return FactoredRational.from_fraction(value)

    # -- queries ------------------------------------------------------------

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.factors:
            v *= Fraction(p) ** e
        return v


# ---------------------------------------------------------------------------
# sieves


def prime_list(limit: int) -> np.ndarray:
    """All primes <= limit (int64 array), from one window of segmented_primes."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return segmented_primes(2, limit + 1)


def segmented_primes(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi), ascending, from flags for the window's odd integers
    only (half a byte per integer), crossed off by the odd base primes <= sqrt(hi - 1)."""
    if not (2 <= lo < hi):
        raise ValueError("need 2 <= lo < hi")
    start = lo | 1  # flag i stands for start + 2i
    flags = np.ones((hi - start + 1) // 2, dtype=bool)
    for p in prime_list(math.isqrt(hi - 1))[1:].tolist():
        # every p-th flag (odd multiples 2p apart) from the first odd kp >= max(p*p, lo)
        k = max(p, -(-lo // p) | 1)
        flags[(k * p - start) // 2 :: p] = False
    primes = np.flatnonzero(flags)  # in place: no second int64 copy
    del flags  # first, so prepending 2 below holds two arrays of primes, not flags too
    primes *= 2
    primes += start
    return np.concatenate(([2], primes)) if lo <= 2 else primes


# ---------------------------------------------------------------------------
# elementwise kernels over int64 arrays of primes

SCAN_X_CAP = 10**9  # the kernels' int64 modular products need p^2 < 2^63
# Odd primes l up to this bound enter a Legendre symbol through a table of
# the squares mod l; the larger ones through one modular power.
LEGENDRE_TABLE_BOUND = 1 << 16
# powmod multiplies in float64 when every modulus is below this bound
# (products < 2^50, exact).
POWMOD_FLOAT_BOUND = 1 << 25


def residues(n: int, mods: np.ndarray) -> np.ndarray:
    """n mod m for each m in `mods` (0 < m < 2^31), exact for any Python int:
    Horner over 31-bit limbs of |n|, so n never has to fit in int64."""
    out = np.zeros_like(mods)
    for shift in reversed(range(0, max(abs(n).bit_length(), 1), 31)):
        limb = abs(n) >> shift & 0x7FFFFFFF
        out = ((out << 31) + limb) % mods
    return -out % mods if n < 0 else out


def powmod(base: np.ndarray, exp, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod `mod` (exp >= 0, 1 < mod <= 3*10^9 so every
    int64 product stays below 2^63); arguments broadcast against each other.

    Arrays whose moduli are all below POWMOD_FLOAT_BOUND = 2^25 run in
    float64, over the exponent bits from the top: square, then multiply by
    base where the bit is set, reducing each product t as
    r = t - floor(t * (1/m)) * m, and one int64 % at the end.  Anything else
    runs the int64 square-and-multiply, one int64 % per product, which is the
    only path exact for moduli up to SCAN_X_CAP.

    The float path is exact.  Its values stay in [0, m], so every product
    t <= m^2 < 2^50 is an exact float64, as are floor(...) * m <= t and
    their difference.  The computed quotient t * (1/m), rounded twice, is
    off from t/m by less than m * 2^-51 < 1/m.  When m does not divide t,
    t/m lies at least 1/m inside (floor(t/m), floor(t/m) + 1), so the floor
    is exact and r = t mod m; when m divides t the floor may fall one
    short, giving r = m in place of 0, which the final % maps to 0.
    """
    base = base % mod
    exp = np.array(exp, dtype=np.int64)
    if np.max(mod, initial=0) < POWMOD_FLOAT_BOUND:
        m = np.asarray(mod, dtype=np.float64)
        inv = 1.0 / m
        base_minus_1 = base - 1.0
        out = np.ones(np.broadcast(base, exp).shape)
        for k in reversed(range(int(np.max(exp, initial=0)).bit_length())):
            out *= out
            out -= np.floor(out * inv) * m
            out *= base_minus_1 * (exp >> k & 1) + 1
            out -= np.floor(out * inv) * m
        return out.astype(np.int64) % mod
    out = np.ones_like(base)
    while True:
        out = out * ((base - 1) * (exp & 1) + 1) % mod
        exp >>= 1
        if not exp.any():
            return out
        base = base * base % mod


@functools.cache
def _squares_mod(l: int) -> np.ndarray:
    """Flags of the squares mod l, read-only; built on first use."""
    flags = np.zeros(l, dtype=bool)
    flags[np.arange(l, dtype=np.int64) ** 2 % l] = True
    flags.setflags(write=False)
    return flags


def square_mask(alpha: FactoredRational, primes: np.ndarray) -> np.ndarray:
    """Mask of the odd primes p (<= SCAN_X_CAP) at which alpha is a square
    mod p, True where p divides alpha (alpha read as 1 there).

    For p not dividing alpha, the Legendre symbol (alpha/p) is multiplicative
    with (l/p)^2 = 1, so it sees only the primes l of odd exponent, in the
    numerator and denominator alike: it is the product of (-1/p) for a
    negative sign and of (l/p) for each such l:
      (-1/p) = (-1)^((p-1)/2), -1 exactly when p = 3 (mod 4);
      (2/p) = (-1)^((p^2-1)/8), -1 exactly when p = 3, 5 (mod 8);
      for odd l <= LEGENDRE_TABLE_BOUND, quadratic reciprocity gives
        (l/p) = (p/l) (-1)^((l-1)/2 (p-1)/2), that is (p/l) negated exactly
        when l = p = 3 (mod 4), and (p/l) is read off the squares mod l;
      the odd l past the bound enter together as their product R, through
        Euler's criterion (R/p) = R^((p-1)/2) mod p: at most one modular
        power, as Euler's criterion on alpha itself costs.
    """
    nonsquare = np.zeros(primes.size, dtype=bool)  # (alpha/p) = -1
    flip_3_mod_4 = alpha.sign < 0
    big = 1
    for l, e in alpha.factors:
        if e % 2 == 0:
            continue
        if l == 2:
            nonsquare ^= (primes % 8 == 3) | (primes % 8 == 5)
        elif l <= LEGENDRE_TABLE_BOUND:
            nonsquare ^= ~_squares_mod(l)[primes % l]
            flip_3_mod_4 ^= l % 4 == 3
        else:
            big *= l
    if flip_3_mod_4:
        nonsquare ^= primes % 4 == 3
    if big > 1:
        nonsquare ^= powmod(residues(big, primes), (primes - 1) // 2, primes) != 1
    for l in alpha.support():
        nonsquare[primes == l] = False
    return ~nonsquare


@functools.cache
def _base_primes() -> np.ndarray:
    """The primes <= sqrt(SCAN_X_CAP), read-only; sieved on first use."""
    base = prime_list(math.isqrt(SCAN_X_CAP))
    base.setflags(write=False)
    return base


def factor_p_minus_1(primes: np.ndarray, rows: np.ndarray) -> tuple:
    """The odd part of p - 1 on the given rows (ascending, distinct) of an
    ascending int64 array of primes p <= SCAN_X_CAP: flat int64 arrays
    (row, q, e), one per odd q^e exactly dividing primes[row] - 1, none on
    any other row.

    Each odd base prime q <= sqrt(max p - 1), a slice of the primes
    <= sqrt(SCAN_X_CAP) sieved once, is strided, all at once, over its even
    multiples in the window [lo, hi] of the asked p - 1, so the cost is the
    window width times sum 1/(2q); a multiple on a row not asked for finds
    no slot.  The cofactor left after the 2-part and the base primes is 1 or
    a single prime.  The multiples are int32 offsets k 2q + (first_q - lo),
    each term at most hi - lo < SCAN_X_CAP; k, and the places in the pass it
    is the difference of, are below the count of multiples, at most
    (hi - lo) sum_q 1/(2q) + pi(sqrt(hi)) < 1.1 SCAN_X_CAP < 2^31.
    """
    pm1 = primes[rows] - 1
    if not pm1.size:
        return rows, pm1, pm1
    lo, hi = int(pm1[0]), int(pm1[-1])
    if hi >= SCAN_X_CAP:
        raise ValueError(f"factor_p_minus_1 needs p <= {SCAN_X_CAP}")
    base = _base_primes()
    odd = base[1 : np.searchsorted(base, math.isqrt(hi), side="right")]
    step = 2 * odd  # p - 1 is even but for p = 2
    first = -(-lo // step) * step
    count = np.maximum((hi - first) // step + 1, 0)
    # in place, to keep the block's peak memory at a few arrays of multiples
    at = np.arange(count.sum(), dtype=np.int32)
    at -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
    at *= np.repeat(step.astype(np.int32), count)
    at += np.repeat((first - lo).astype(np.int32), count)
    slot = np.full(hi - lo + 1, -1, dtype=np.int32)  # place in rows, or -1
    slot[pm1 - lo] = np.arange(pm1.size, dtype=np.int32)
    at = np.take(slot, at)
    found = np.flatnonzero(at >= 0)
    at, q = at[found], np.repeat(odd, count)[found]
    v = pm1[at] // q
    e = np.ones_like(v)
    live = np.flatnonzero(v % q == 0)  # the pairs whose q still divides v
    while live.size:
        e[live] += 1
        v[live] //= q[live]
        live = live[v[live] % q[live] == 0]
    smooth = pm1 & -pm1  # 2^v_2(p - 1); 1 for p = 2
    np.multiply.at(smooth, at, q**e)
    cofactor = pm1 // smooth
    big = np.flatnonzero(cofactor > 1)
    row = rows[np.concatenate([at, big])]
    return row, np.concatenate([q, cofactor[big]]), np.concatenate([e, np.ones_like(big)])


def phi_sieve(limit: int) -> np.ndarray:
    """Euler phi for 0..limit as an int64 array (phi[0] = 0)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    phi[0] = 0
    for p in prime_list(limit):
        phi[p::p] -= phi[p::p] // int(p)
    return phi


# ---------------------------------------------------------------------------
# multiplicative functions


TRIAL_DIVISION_CAP = 10**7  # about 1.7 million divisor pairs, then ResourceCapError


def _prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n >= 1, p ascending:
    trial division by 2, 3 and the pairs 6k - 1, 6k + 1 below
    TRIAL_DIVISION_CAP.  ResourceCapError when the cofactor left at the cap
    may still be composite."""
    pair, f = (2, 3), -1
    # cap in the loop test: an isqrt(n) per factor slows euler_phi on smooth n
    while pair[0] * pair[0] <= n and f < TRIAL_DIVISION_CAP:
        for p in pair:
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                yield p, e
        f += 6
        pair = (f, f + 2)
    if pair[0] * pair[0] <= n:
        raise ResourceCapError(f"no prime factor of {n} below the cap {TRIAL_DIVISION_CAP}")
    if n > 1:
        yield n, 1


def as_int(v) -> int:
    """v as an int: ints and numpy integers pass, anything else (2.7, "3")
    is a ValueError rather than being truncated."""
    try:
        return operator.index(v)
    except TypeError as exc:
        raise ValueError(f"expected an integer, got {v!r}") from exc


def factorize(n: int) -> FactoredRational:
    """Factor a nonzero integer into sign and prime exponent map."""
    n = as_int(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    return FactoredRational(1 if n > 0 else -1, tuple(_prime_powers(abs(n))))


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in increasing order."""
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def moebius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(#prime factors)."""
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    out = 1
    for _, e in _prime_powers(n):
        if e > 1:
            return 0
        out = -out
    return out


def euler_phi(n: int) -> int:
    """Euler totient |(Z/n)^x|."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    out = n
    for p, _ in _prime_powers(n):
        out = out // p * (p - 1)
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) with the standard conventions for 2, -1, 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def multiplicative_order(a: int, p: int) -> int:
    """Least k >= 1 with a^k = 1 mod p (p prime, p must not divide a).

    The scalar reference for the scans' vectorised index kernel: starts at
    p-1 and strips prime factors while the power stays 1.
    """
    if a % p == 0:
        raise ValueError("p divides a, order undefined")
    o = p - 1
    for q, e in _prime_powers(p - 1):
        for _ in range(e):
            if pow(a, o // q, p) == 1:
                o //= q
            else:
                break
    return o
