"""Harmonic polynomial spaces on R^4 = C^2 and on R^3.

H^{p,q} is the (p+q+1)-dimensional space of polynomials of bidegree (p, q)
in (z1, z2, zb1, zb2) annihilated by the flat R^4 Laplacian; restricted to
S^3 these are the building blocks of the degree-(p+q) eigenspaces.  The
Laplacian preserves the weight 2l = (a - b) - (c - d) of a monomial
z1^a z2^b zb1^c zb2^d, and within a weight sector it links each monomial
(a, c) only to its neighbour (a - 1, c - 1).  Each sector therefore holds
exactly one harmonic element, with the closed-form coefficients
(-1)^c C(p, a) C(q, c); the basis takes one element per sector, ordered by
ascending l, divided by its signed content (`sector_contents`).  All
coefficients are exact integers.  The ladder coordinates follow from the
contents alone (operators._ladder), so a space is just its bidegree and
its vectors are built on first read, each checked harmonic.

`rotorspec verify` proves this basis in integers: each sector kernel is
one line (its weight-sector certificate), and each sector vector, being
harmonic, has content 1 and a positive first coefficient, which picks the
one vector of that line the null-space construction would return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .polynomial import Polynomial, _valid, laplacian_r3, laplacian_r4
from .rational_linalg import nullspace


def _normalize_integer(vec) -> list[int]:
    """Scale a rational vector (ints or Fractions) to integer entries with
    content 1 and a positive leading (first nonzero) entry, in ints: each
    entry is numerator * (lcm // denominator), lcm that of the denominators."""
    denom = math.lcm(*(f.denominator for f in vec))
    ints = [f.numerator * (denom // f.denominator) for f in vec]
    g = math.gcd(*ints)
    sign = 1 if next(v for v in ints if v) > 0 else -1
    return [sign * v // g for v in ints]


def _sector_monomials(p: int, q: int, weight2: int) -> list[tuple[int, int, int, int]]:
    """Bidegree-(p, q) monomials (a, b, c, d) with (a - b) - (c - d) =
    weight2, in descending lexicographic order: the weight is 2 (a - c) - p
    + q, so the sector is empty unless s = (weight2 + p - q) / 2 is an
    integer, and then a runs from min(p, q + s) down to max(0, s), c = a - s."""
    if (weight2 + p - q) % 2:
        return []
    s = (weight2 + p - q) // 2
    return [(a, p - a, a - s, q - a + s) for a in range(min(p, q + s), max(0, s) - 1, -1)]


class BidegreeSpace:
    """Ordered harmonic basis of bidegree (p, q); dimension p + q + 1.

    Basis element k spans the weight sector with l = l_values[k]; l runs
    from -j to j in integer steps, j = (p + q) / 2.  sectors[k] is its
    integer vector as ((exponent, coefficient), ...) pairs and basis[k] the
    same element as a Polynomial; both are built on first read.  A plain
    class, so those two can be cached on the instance, but p and q cannot
    be assigned; two spaces are equal when their bidegrees are.
    """

    def __init__(self, p: int, q: int):
        self.__dict__.update(p=p, q=q)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a BidegreeSpace is immutable")

    def __repr__(self) -> str:
        return f"BidegreeSpace(p={self.p}, q={self.q})"

    def __eq__(self, other):
        return (self.p, self.q) == (other.p, other.q) if type(other) is BidegreeSpace else NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    @cached_property
    def sectors(self) -> tuple[tuple[tuple[tuple[int, int, int, int], int], ...], ...]:
        """The sector vectors u_k / n_k, each checked harmonic on its integer
        terms: their R^4 Laplacian (polynomial.laplacian_r4) must be empty."""
        p, q = self.p, self.q
        out = []
        for k, content in enumerate(sector_contents(p, q)):
            two_l = 2 * k - p - q
            monos = _sector_monomials(p, q, two_l)
            vec = [(-1) ** c * math.comb(p, a) * math.comb(q, c) // content for a, _, c, _ in monos]
            terms = {m: v for m, v in zip(monos, vec) if v}
            if laplacian_r4(_valid(4, terms)).terms:
                raise AssertionError(f"sector (p={p}, q={q}, 2l={two_l}) element is not harmonic")
            out.append(tuple(terms.items()))
        return tuple(out)

    @cached_property
    def basis(self) -> tuple[Polynomial, ...]:
        return tuple(_valid(4, dict(sector)) for sector in self.sectors)

    @property
    def dim(self) -> int:
        return self.p + self.q + 1

    @property
    def l_values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(2 * k - self.p - self.q, 2) for k in range(self.dim))

    def coordinates(self, poly: Polynomial) -> list[int | Fraction] | None:
        """Exact coordinates of a polynomial in the basis, or None if it
        lies outside the span.

        Exploits the weight grading: every monomial has a definite weight
        2l = (a - b) - (c - d) and each weight sector of the space is
        one-dimensional, so the coordinate on basis[k] is a proportionality
        ratio within that sector, divided exactly: an int where the basis
        coefficient divides it, else a Fraction.
        """
        if poly.nvars != 4:
            return None
        sectors: dict[int, dict[tuple, int | Fraction]] = {}
        for exp, c in poly.terms.items():
            if (exp[0] + exp[1], exp[2] + exp[3]) != (self.p, self.q):
                return None
            sectors.setdefault((exp[0] - exp[1]) - (exp[2] - exp[3]), {})[exp] = c
        coords = [0] * self.dim
        offset = self.p + self.q  # index of l in the basis is l + j
        for weight2, terms in sectors.items():
            k2 = weight2 + offset
            if k2 % 2 or not 0 <= k2 // 2 < self.dim:
                return None
            k = k2 // 2
            ref = self.basis[k].terms
            exp0, c0 = next(iter(ref.items()))
            if exp0 not in terms:
                return None
            top = terms[exp0]
            if type(top) is int and not top % c0:
                ratio = top // c0
            else:
                ratio = Fraction(top, c0)
            if len(terms) != len(ref) or any(
                terms.get(e, 0) != c * ratio for e, c in ref.items()
            ):
                return None
            coords[k] = ratio
        return coords


@lru_cache(maxsize=None)
def sector_contents(p: int, q: int) -> tuple[int, ...]:
    """The signed contents n_0..n_(p+q) of the sector kernels u_k of H^{p,q}:
    the gcd of the coefficients (-1)^c C(p, a) C(q, c), a - c = k - q, with
    the sign of the first one in descending lexicographic order (largest
    a).  From binomials alone; no monomial list is built."""
    out = []
    for k in range(p + q + 1):
        low, high = max(0, k - q), min(p, k)
        g = math.gcd(*(math.comb(p, a) * math.comb(q, a - k + q) for a in range(low, high + 1)))
        out.append(-g if (high - k + q) % 2 else g)
    return tuple(out)


@lru_cache(maxsize=None)
def harmonic_basis(p: int, q: int) -> BidegreeSpace:
    """Exact basis of H^{p,q}, one element per weight sector.

    The sector element is the closed-form kernel of the Laplacian,
    (-1)^c C(p, a) C(q, c) on z1^a z2^b zb1^c zb2^d, scaled to content 1
    and a positive first coefficient (monomials in descending
    lexicographic order).  The sector kernel is one-dimensional, so this
    is the vector the null-space construction returns; `rotorspec verify`
    checks both facts in integers.
    """
    if p < 0 or q < 0:
        raise ValueError("bidegree must be nonnegative")
    return BidegreeSpace(p, q)


class R3HarmonicSpace(NamedTuple):
    """Harmonic homogeneous polynomials of one degree on R^3; dim 2*degree+1."""

    degree: int
    basis: tuple[Polynomial, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


@lru_cache(maxsize=None)
def harmonic_basis_r3(degree: int) -> R3HarmonicSpace:
    """Kernel of the R^3 Laplacian on degree-`degree` monomials."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    monos = [
        (i, j, degree - i - j)
        for i in range(degree, -1, -1)
        for j in range(degree - i, -1, -1)
    ]
    target = [
        (i, j, degree - 2 - i - j)
        for i in range(degree - 2, -1, -1)
        for j in range(degree - 2 - i, -1, -1)
    ]
    t_index = {m: i for i, m in enumerate(target)}
    rows = [[0] * len(monos) for _ in target]
    for col, (i, j, k) in enumerate(monos):
        if i >= 2:
            rows[t_index[(i - 2, j, k)]][col] += i * (i - 1)
        if j >= 2:
            rows[t_index[(i, j - 2, k)]][col] += j * (j - 1)
        if k >= 2:
            rows[t_index[(i, j, k - 2)]][col] += k * (k - 1)
    basis = []
    for vec in nullspace(rows or [[0] * len(monos)]):  # a zero row: no target monomial
        vec = _normalize_integer(vec)
        basis.append(Polynomial(3, {m: c for m, c in zip(monos, vec) if c}))
    space = R3HarmonicSpace(degree=degree, basis=tuple(basis))
    assert space.dim == 2 * degree + 1, f"dim H_{degree} = {space.dim}"
    for b in space.basis:
        assert not laplacian_r3(b)
    return space
