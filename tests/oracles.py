"""Shared independent oracles and fixed test matrices."""

import math
from fractions import Fraction

from orddensity.arith import prime_list

# (q, n, M) triples where q is an n-th power in Q(zeta_M): rational powers,
# quadratic conductors, scaled square roots, and higher two-power radicals.
TRUE_POWER_TRIPLES = [
    (Fraction(4), 2, 1),
    (Fraction(8), 3, 1),
    (Fraction(16), 4, 3),
    (Fraction(27), 3, 4),
    (Fraction(9), 2, 5),
    (Fraction(25), 2, 7),
    (Fraction(64), 6, 5),
    (Fraction(-8), 3, 1),
    (Fraction(-27), 3, 8),
    (Fraction(-32), 5, 3),
    (Fraction(9, 4), 2, 1),
    (Fraction(8, 27), 3, 7),
    (Fraction(-1, 8), 3, 5),
    (Fraction(36), 2, 11),
    (Fraction(100), 2, 13),
    (Fraction(2), 2, 8),
    (Fraction(-2), 2, 8),
    (Fraction(3), 2, 12),
    (Fraction(-3), 2, 3),
    (Fraction(5), 2, 5),
    (Fraction(-5), 2, 20),
    (Fraction(6), 2, 24),
    (Fraction(-6), 2, 24),
    (Fraction(7), 2, 28),
    (Fraction(-7), 2, 7),
    (Fraction(10), 2, 40),
    (Fraction(-10), 2, 40),
    (Fraction(13), 2, 13),
    (Fraction(-11), 2, 11),
    (Fraction(15), 2, 60),
    (Fraction(-15), 2, 15),
    (Fraction(-1), 2, 4),
    (Fraction(-13), 2, 52),
    (Fraction(17), 2, 17),
    (Fraction(21), 2, 21),
    (Fraction(8), 2, 8),
    (Fraction(18), 2, 8),
    (Fraction(12), 2, 12),
    (Fraction(50), 2, 8),
    (Fraction(75), 2, 12),
    (Fraction(5, 4), 2, 5),
    (Fraction(2, 9), 2, 8),
    (Fraction(3, 2), 2, 24),
    (Fraction(-3, 4), 2, 3),
    (Fraction(20), 2, 5),
    (Fraction(45), 2, 5),
    (Fraction(-4), 4, 4),
    (Fraction(16), 8, 8),
    (Fraction(-16), 8, 16),
    (Fraction(4), 4, 8),
    (Fraction(64), 4, 8),
    (Fraction(256), 8, 8),
    (Fraction(1, 4), 4, 8),
    (Fraction(-64), 4, 8),
    (Fraction(81), 4, 12),
    (Fraction(16, 81), 8, 24),
]

# (q, n, M) triples where q is NOT an n-th power in Q(zeta_M)
FALSE_POWER_TRIPLES = [
    (Fraction(2), 2, 4),
    (Fraction(2), 2, 12),
    (Fraction(3), 2, 8),
    (Fraction(2), 3, 9),
    (Fraction(5), 2, 8),
    (Fraction(-2), 2, 4),
    (Fraction(7), 2, 7),
    (Fraction(6), 2, 8),
    (Fraction(-1), 2, 3),
    (Fraction(4), 4, 4),
    (Fraction(3, 2), 2, 8),
]


def is_nth_power_residue(q: Fraction, n: int, p: int) -> bool:
    """Brute criterion: q mod p lies in the image of x -> x^n on (Z/p)^x."""
    num, den = q.numerator, q.denominator
    if num % p == 0 or den % p == 0:
        raise ValueError("p divides q")
    val = num * pow(den, -1, p) % p
    g = math.gcd(n, p - 1)
    return pow(val, (p - 1) // g, p) == 1


def residue_check_fraction(q: Fraction, n: int, M: int, x: int) -> tuple[int, int]:
    """(#p <= x with p = 1 mod M where q is an n-th power residue, #such p)."""
    hit = total = 0
    for p in prime_list(x):
        p = int(p)
        if (p - 1) % M or q.numerator % p == 0 or q.denominator % p == 0:
            continue
        total += 1
        if is_nth_power_residue(q, n, p):
            hit += 1
    return hit, total


def trial_order(a: int, p: int) -> int:
    """Least divisor d of p - 1 with a^d = 1 (mod p); divisors by trial division."""
    n = p - 1
    divs = sorted({d for k in range(1, math.isqrt(n) + 1) if n % k == 0 for d in (k, n // k)})
    for d in divs:
        if pow(a, d, p) == 1:
            return d
    raise ValueError(f"{a} is not a unit mod {p}")


def brute_scan(alphas, mode: str, params, frobenius, x: int):
    """Prime-by-prime reference for scan_many with checkpoints, written from
    the definitions: (matched, considered, [(x_k, matched, considered), ...]).

    alphas are Fractions; mode is "index" (params = targets t_i), "order"
    (params = (a_i, d_i) pairs) or "indexset" (params = ("finite", values) or
    ("ap", a, d) per alpha); frobenius is None or (f, residues)."""
    bad = {p for q in alphas for p in range(2, x + 1) if (q.numerator * q.denominator) % p == 0}
    if frobenius is not None:
        bad |= {p for p in range(2, x + 1) if frobenius[0] % p == 0}
    thresholds = []
    t = x // 2
    while t >= 4:
        thresholds.append(t)
        t //= 2
    thresholds = sorted(thresholds) + [x]
    rows = []  # (p, matched)
    for p in prime_list(x):
        p = int(p)
        if p in bad:
            continue
        if frobenius is not None and p % frobenius[0] not in frobenius[1]:
            rows.append((p, False))
            continue
        inds = [
            (p - 1) // trial_order(q.numerator * pow(q.denominator, -1, p) % p, p)
            for q in alphas
        ]
        if mode == "index":
            ok = all(i == t for i, t in zip(inds, params))
        elif mode == "order":
            ok = all(((p - 1) // i) % d == a % d for i, (a, d) in zip(inds, params))
        else:
            ok = all(
                i in s[1] if s[0] == "finite" else i % s[2] == s[1] % s[2]
                for i, s in zip(inds, params)
            )
        rows.append((p, ok))
    checkpoints = [
        (t, sum(ok for p, ok in rows if p <= t), sum(1 for p, _ in rows if p <= t))
        for t in thresholds
    ]
    return checkpoints[-1][1], checkpoints[-1][2], checkpoints
