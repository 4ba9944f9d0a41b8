"""Membership of rational radicals in cyclotomic fields Q(zeta_M) and an
explicit normal form for abelian radicals.

The classification backbone: any solution of x^(2^e) = q (q rational) inside
an abelian number field has the shape (root of unity) * t * sqrt(d) with t a
positive rational and d a squarefree positive integer.  That normal form is
adopted here as an axiom of the oracle and is guarded by empirical splitting
property tests elsewhere; given it, membership in Q(zeta_M) is divisibility of
M by the value's conductor (Kronecker-Weber; Perucca-Sgobba-Tronto).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .arith import FactoredRational, kronecker


def quadratic_discriminant(d: int) -> int:
    """Field discriminant of Q(sqrt(d)) for squarefree d (1 for d = 1)."""
    if d == 0:
        raise ValueError("d must be a nonzero squarefree integer")
    return d if d % 4 == 1 else 4 * d


def conductor(d: int) -> int:
    """Conductor of Q(sqrt(d)): sqrt(d) lies in Q(zeta_M) iff conductor | M."""
    return abs(quadratic_discriminant(d))


# ---------------------------------------------------------------------------
# explicit radicals


@dataclass(frozen=True)
class RadicalValue:
    """The exact value zeta_(zeta_order)^(zeta_exp) * t * sqrt(d).

    Normal form: t positive rational, d squarefree >= 1, gcd(zeta_exp,
    zeta_order) reduced away.  With those constraints the representation is
    unique, so equality of values is equality of fields.
    """

    zeta_order: int
    zeta_exp: int
    t: FactoredRational
    d: int

    @staticmethod
    def make(zorder: int, zexp: int, t: FactoredRational, d: int) -> "RadicalValue":
        if zorder < 1 or d < 1 or t.sign != 1:
            raise ValueError("need positive zeta order, t > 0 and d >= 1")
        zexp %= zorder
        g = math.gcd(zexp, zorder)  # gcd(0, n) = n collapses trivial zeta
        return RadicalValue(zorder // g, zexp // g, t, d)

    def conductor(self) -> int:
        """The least M with the value in Q(zeta_M)."""
        n, D = self.zeta_order, conductor(self.d)
        a, b = ((k & -k).bit_length() - 1 for k in (n, D))  # 2-adic valuations
        # zeta and sqrt(d) generating the same quadratic field lower the
        # 2-part by one, as in zeta_8 * sqrt(2) = 1 + i
        e = a - 1 if a == b >= 2 else max(a, b)
        odd = math.lcm(n >> a, D >> b)
        return odd << e if e >= 2 else odd


def radical_product(
    alphas: Sequence[FactoredRational],
    m: Sequence[int],
    e: Sequence[int],
) -> Optional[RadicalValue]:
    """The exact value prod_i (alpha_i^(1/m_i))^(e_i), when it is abelian.

    Principal roots: alpha^(1/m) is the positive real root for alpha > 0 and
    |alpha|^(1/m) * zeta_(2m) for alpha < 0.  The product collapses to the
    normal form zeta * t * sqrt(d) exactly when its positive-real part P
    satisfies P^L in t^L * d^(L/2) form; otherwise the value generates a
    radical of degree > 2 over the roots-of-unity field and None is returned.
    """
    if not (len(alphas) == len(m) == len(e)):
        raise ValueError("alphas, m, e must have equal length")
    if any(not (0 <= ei < mi) for ei, mi in zip(e, m)):
        raise ValueError("exponents must satisfy 0 <= e_i < m_i")
    L = math.lcm(*m)
    s = 0
    exps: dict[int, int] = {}
    for ai, mi, ei in zip(alphas, m, e):
        w = ei * (L // mi)
        if ai.sign < 0:
            s += w
        for p, pe in ai.factors:
            exps[p] = exps.get(p, 0) + pe * w
    # |product| = prod p^(k_p / 2) with k_p = 2 pe / L: abelian exactly when
    # every k_p is an integer, and then |product| = t sqrt(d) with
    # t = prod p^floor(k_p / 2) and d the product of the p of odd k_p
    k: dict[int, int] = {}
    for p, pe in exps.items():
        k[p], r = divmod(2 * pe, L)
        if r:
            return None
    t = FactoredRational.from_map(1, {p: kp // 2 for p, kp in k.items()})
    return RadicalValue.make(2 * L, s, t, math.prod(p for p, kp in k.items() if kp % 2))


def fixed_by(c: int, v: RadicalValue, M: int) -> bool:
    """Does sigma_c (zeta -> zeta^c on Q(zeta_L), L = lcm(zeta_order,
    conductor(d), M)) fix v?

    sigma_c(zeta^s t sqrt(d)) = zeta^(s c) * chi_d(c) * t * sqrt(d), so the
    value is fixed iff zeta^(s(c-1)) * kronecker(disc(d), c) = 1.
    """
    L = math.lcm(v.zeta_order, conductor(v.d), M)
    if math.gcd(c, L) != 1:
        raise ValueError(f"c = {c} not coprime to the acting level {L}")
    disc = quadratic_discriminant(v.d)
    z = v.zeta_exp * (c - 1) % v.zeta_order
    chi = kronecker(disc, c)
    return (z == 0 and chi == 1) or (2 * z == v.zeta_order and chi == -1)

