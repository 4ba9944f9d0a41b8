"""Exact degrees of Q(zeta_M, alpha_1^(1/m_1), ..., alpha_r^(1/m_r)) over Q,
relation groups of radicals and the witness tests behind automorphism counts.

Degrees come from Kummer duality over F = Q(zeta_M): with Rel the subgroup of
exponent tuples e in prod Z/m_i whose radical product prod alpha_i^(e_i/m_i)
already lies in F,

    [Q(zeta_M, radicals) : Q] = phi(M) * prod(m_i) / |Rel|.

Rel lies in a box fixed by the alphas, not by M or the size of m.  Let V be
the r x |supp| matrix of exponents v_p(alpha_i) and Delta the gcd of its r x r
minors.  A member's value has the shape zeta * t * sqrt(d), so its square
has rational absolute value: sum_i v_p(alpha_i) * x_i is an integer at every
prime p, with x_i = 2 e_i / m_i.  The vector x thus pairs integrally with
the lattice spanned by the columns of V.  That lattice has index Delta in
Z^r, so it contains Delta * Z^r and every Delta * x_i is an integer: e_i is
a multiple of m_i / gcd(m_i, 2 Delta).  The box holds prod gcd(m_i, 2 Delta)
tuples, at most 4 for the alphas (2, 5) whatever m is.  Dependent alphas have
Delta = 0, and gcd(m_i, 0) = m_i makes the box all of prod Z/m_i.

With sides g_i = gcd(m_i, 2 Delta), a box tuple is e_i = k_i * m_i / g_i for k
in prod Z/g_i, and its radical product is prod alpha_i^(k_i/g_i).  So Rel
depends on m only through g and on M only through the test that a product's
conductor divides M: `DegreeCache` enumerates a box once per (alphas, g).
It hands out one `AlphaBoxes` view per alpha tuple, holding 2 Delta, that
tuple's boxes, each looked up by `AlphaBoxes.box`, and the witness tables of
`AlphaBoxes.fixes`.  `AlphaBoxes.field` reads arrays of fields and returns
their |Rel| and the members of their relation groups off one box with sides
lcm_j g_ij.  A series looks its alphas up once and then pays, per chunk of
terms, one array test per box entry; the FieldSpec functions below read one
field of the shared `DEFAULT_CACHE` on Python ints, from the same boxes.
Every degree, of a chunk or of one field, comes from |Rel| by
`field_degree`.

Each unit c mod M that fixes the witnesses of all members of Rel extends to
exactly prod(m_i)/|Rel| automorphisms of the full field, one of which acts
trivially on all radicals; that turns Galois counting into unit counting.
`density._one_candidate` counts the units of a chunk of series terms.  A
term has at most one candidate unit per Frobenius class, each tested over
arrays: whether sigma_c fixes a witness depends only on c modulo a small
period, so `AlphaBoxes.fixes` reads it off a table built once per witness.
The tests' empirical splitting consistency checks guard the duality step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arith import FactoredRational, ResourceCapError, as_int, euler_phi
from .cyclo import RadicalValue, conductor, fixed_by, radical_product

RELATION_ENUMERATION_CAP = 10**6
TABLE_CAP = 2**16  # residues in one witness table; a longer period asks fixed_by per unit


@dataclass(frozen=True)
class FieldSpec:
    """Q(zeta_M, alpha_1^(1/m_1), ..., alpha_r^(1/m_r)) with lcm(m_i) | M."""

    alphas: tuple[FactoredRational, ...]
    m: tuple[int, ...]
    M: int

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(map(as_int, self.m)))
        object.__setattr__(self, "M", as_int(self.M))
        if len(self.alphas) < 1 or len(self.alphas) != len(self.m):
            raise ValueError("need r >= 1 alphas with matching radical indices")
        if any(mi < 1 for mi in self.m) or self.M < 1:
            raise ValueError("radical indices and M must be positive")
        if math.lcm(self.M, *self.m) != self.M:
            raise ValueError("M must be a multiple of every radical index")
        for a in self.alphas:
            if not a.factors:
                raise ValueError("alpha in {1, -1} spans no radical")

    @staticmethod
    def make(alphas: Iterable, m: Sequence[int], M: int) -> "FieldSpec":
        return FieldSpec(tuple(map(FactoredRational.of, alphas)), m, M)


def exponent_minor_gcd(alphas: tuple[FactoredRational, ...]) -> int:
    """Delta: the gcd of the r x r minors of the matrix (v_p(alpha_i)).

    Delta is the index in Z^r of the lattice spanned by the matrix's columns
    (one vector (v_p(alpha_i))_i per prime p), which column Euclid steps
    triangularise without changing the lattice; it is 0 when the lattice has
    rank < r.  That happens exactly when the alphas are multiplicatively
    dependent: a relation prod alpha_i^(k_i) = +-1 squares to one with +1.
    """
    support = sorted({p for a in alphas for p in a.support()})
    cols = [[a.exponent(p) for a in alphas] for p in support]
    index = 1
    for i in range(len(alphas)):
        pivot, rest = [0] * len(alphas), []
        for col in cols:
            while col[i]:
                q = pivot[i] // col[i]
                pivot, col = col, [x - q * y for x, y in zip(pivot, col)]
            if any(col):
                rest.append(col)
        if pivot[i] == 0:
            return 0
        index *= abs(pivot[i])
        cols = rest
    return index


def _abelian_box(alphas: tuple[FactoredRational, ...], sides: tuple[int, ...]) -> list:
    """(k, prod alpha_i^(k_i/g_i), its conductor) for every nonzero k in the
    box prod Z/g_i, in lexicographic order, whose radical product has the
    zeta * t * sqrt(d) form.  One radical product per nonzero tuple."""
    size = math.prod(sides)
    if size > RELATION_ENUMERATION_CAP:
        raise ResourceCapError(
            f"relation box size {size} exceeds cap {RELATION_ENUMERATION_CAP}"
        )
    box = itertools.product(*map(range, sides))
    next(box)  # the zero tuple is always a member and has no witness
    values = ((k, radical_product(alphas, sides, k)) for k in box)
    return [(k, v, v.conductor()) for k, v in values if v is not None]


# ---------------------------------------------------------------------------
# box cache


CACHE_SIZE = 1024


class AlphaBoxes:
    """The boxes of one alpha tuple: 2 Delta, `_abelian_box(alphas, g)` per
    side tuple g and `tables`, the witness table of `fixes` per value, each
    filled on first use."""

    __slots__ = ("alphas", "two_delta", "boxes", "tables")

    def __init__(self, alphas: tuple[FactoredRational, ...]):
        self.alphas = alphas
        self.two_delta = 2 * exponent_minor_gcd(alphas)
        self.boxes: dict[tuple[int, ...], list] = {}
        self.tables: dict[RadicalValue, object] = {}

    def box(self, g: tuple[int, ...]) -> list:
        """`_abelian_box(alphas, g)`, enumerated on first use."""
        box = self.boxes.get(g)
        if box is None:
            box = self.boxes[g] = _abelian_box(self.alphas, g)
        return box

    def field(self, m: Sequence, M) -> tuple:
        """(|Rel|, members) of the fields Q(zeta_M, alpha_i^(1/m_i)), one
        field per entry of the arrays: `m` holds one array of radical
        indices per alpha and `M` one level per field, int64 or Python ints
        (dtype=object).  |Rel| is an int64 array.  `members` lists the
        nonzero members of the fields' relation groups as pairs (value,
        inside): the member's radical value and the int64 array of the
        fields whose group holds it, in the lexicographic order of the box
        below, so that field j's witnesses are the values whose `inside`
        holds j.

        All the fields read one box, with sides G_i = lcm_j g_ij, where
        g_ij = gcd(m_ij, 2 Delta) are the sides of field j's own box.  As G_i
        divides 2 Delta, gcd(m_ij, G_i) = g_ij, so m_ij / g_ij is prime to
        G_i / g_ij and k -> k * G / g maps field j's box one to one onto the
        entries k of the shared box with G_i | k_i * m_ij for every i.  The
        map keeps the radical product, as (k_i G_i / g_ij) / G_i = k_i / g_ij,
        and the lexicographic order.  Field j's relation group is thus made
        of those entries whose conductor divides M_j, and one array test per
        entry gives its membership in every field.  The shared box may pass
        RELATION_ENUMERATION_CAP when no field's own box does; then each
        field reads its own box, so that the cap fires only as it does for
        one field, and each of its entries joins the member at its image
        k * G / g."""
        sides = tuple(math.lcm(*set(np.gcd(mi, self.two_delta).tolist())) for mi in m)
        rel = np.ones(len(M), dtype=np.int64)
        members = []
        if math.prod(sides) > RELATION_ENUMERATION_CAP:
            found: dict[tuple[int, ...], tuple] = {}
            for j, (mj, Mj) in enumerate(zip(zip(*(mi.tolist() for mi in m)), M.tolist())):
                g = [math.gcd(x, self.two_delta) for x in mj]
                for k, value, cond in self.box(tuple(g)):
                    if Mj % cond == 0:
                        image = tuple(ki * G // gi for ki, G, gi in zip(k, sides, g))
                        found.setdefault(image, (value, []))[1].append(j)
                        rel[j] += 1
            members = [(value, np.array(js)) for _, (value, js) in sorted(found.items())]
        else:
            top = int(M.max())
            for k, value, cond in self.box(sides):
                # G_i | k_i * m_ij exactly when q_i = G_i / gcd(k_i, G_i)
                # divides m_ij, a divisor of M_j: an entry whose conductor or
                # some q_i passes the largest level lies in no field
                qs = [G // math.gcd(ki, G) for ki, G in zip(k, sides)]
                if max(cond, *qs) <= top:
                    inside = M % cond == 0
                    for mi, q in zip(m, qs):
                        if q > 1:
                            inside &= mi % q == 0
                    rel += inside
                    members.append((value, np.flatnonzero(inside)))
        return rel, members

    def fixes(self, value: RadicalValue, c):
        """Whether sigma_c fixes the value, per entry of the array c of odd
        positive units prime to the value's conductor.  By `fixed_by` that
        is zeta^(s (c - 1)) * chi_D(c) = 1, where s/n is the value's zeta
        exponent and D the discriminant of sqrt(d); for odd c > 0 it depends
        only on c modulo P = lcm(n, |D|, 2).  So the answer is a gather from
        a table over the residues mod P, built with fixed_by on first use
        (the residues that share a prime with P, which no such c meets, are
        False).  A P past TABLE_CAP asks fixed_by for each c."""
        period = math.lcm(value.zeta_order, conductor(value.d), 2)
        if period > TABLE_CAP:
            return np.array([fixed_by(x, value, period) for x in c.tolist()], dtype=bool)
        table = self.tables.get(value)
        if table is None:
            fixed = (
                math.gcd(r, period) == 1 and fixed_by(r, value, period) for r in range(period)
            )
            table = self.tables[value] = np.fromiter(fixed, dtype=bool, count=period)
        return table[(c % period).astype(np.int64)]


class DegreeCache:
    """Relation boxes, each enumerated once.  Keyed by the alpha tuple, an
    entry is that tuple's `AlphaBoxes` view.  It holds at most CACHE_SIZE
    alpha tuples; past that the oldest goes first.  A caller that evaluates
    many fields of one alpha tuple fetches the view once with `view`.
    """

    def __init__(self):
        self._alphas: dict[tuple[FactoredRational, ...], AlphaBoxes] = {}

    def view(self, alphas: tuple[FactoredRational, ...]) -> AlphaBoxes:
        """The view of one alpha tuple, created on first use."""
        view = self._alphas.get(alphas)
        if view is None:
            if len(self._alphas) >= CACHE_SIZE:
                del self._alphas[next(iter(self._alphas))]
            view = self._alphas[alphas] = AlphaBoxes(alphas)
        return view


DEFAULT_CACHE = DegreeCache()


def field_degree(phi, m: Sequence, rel):
    """[Q(zeta_M, alpha_i^(1/m_i)) : Q] = phi(M) * prod(m_i) / |Rel|, given
    phi(M), the radical indices m_i and |Rel|, on Python ints or on arrays
    with one entry per field, int64 or Python ints (dtype=object).  The
    degrees take the dtype of phi(M) * prod(m_i): an int64 caller keeps that
    below 2^63, and `density._terms` keeps it below 2^53, so that each
    degree converts to float64 exactly, and otherwise passes Python ints.
    The divisibility of phi(M) * prod(m_i) by |Rel| is asserted for every
    field."""
    numerator = phi * math.prod(m)
    assert not np.any(numerator % rel)
    return numerator // rel


def _witnesses(view: AlphaBoxes, m: Sequence[int], M: int) -> list[RadicalValue]:
    """The witnesses of the one field (m, M), read on Python ints: the
    values of its box entries whose conductor divides M, that is the values
    `view.field` lists for that field, in the same order."""
    box = view.box(tuple([math.gcd(mi, view.two_delta) for mi in m]))
    return [value for _, value, cond in box if M % cond == 0]


def degree_info(spec: FieldSpec) -> tuple[int, int]:
    """(field degree over Q, failure ratio |Rel|)."""
    rel = failure_ratio(spec)
    return field_degree(euler_phi(spec.M), spec.m, rel), rel


def kummer_degree(spec: FieldSpec) -> int:
    """Exact degree [Q(zeta_M, alpha_1^(1/m_1), ...) : Q]."""
    return degree_info(spec)[0]


def failure_ratio(spec: FieldSpec) -> int:
    """Integer ratio |Rel| by which the degree falls short of phi(M) * prod(m_i)."""
    return 1 + len(_witnesses(DEFAULT_CACHE.view(spec.alphas), spec.m, spec.M))
