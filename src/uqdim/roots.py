"""Root systems built from their Dynkin diagrams, and the Weyl character
formula on the Weyl line.

Each family is its Dynkin diagram in Bourbaki numbering (*Lie Groups and Lie
Algebras*, ch. VI, plates): the squared lengths of the simple roots, as
integers times one per-family rational scale that gives long roots square
length 2, and the bonds between them.  Roots, rho, theta and sigma are stored
in simple-root coordinates, so the invariant form is the diagram's integer
form times that scale and all arithmetic is exact.  The positive roots are
generated by height from root strings.  A weight is stored as its Dynkin
labels.  The character of the highest-weight module ``lambda`` restricted to
the Weyl line ``x * rho`` is

    prod over positive roots mu of  sinh((x/2)(mu, lambda+rho)) / sinh((x/2)(mu, rho))

which :func:`weyl_qdim_product` builds as a :class:`~uqdim.series.SinhProduct`
and :func:`weyl_qdim` expands as an exact series.  This module is the
independent oracle the universal formulas are validated against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvalidRank, LengthMismatch
from .series import DEFAULT_ORDER, PowerSeries, SinhProduct

Root = tuple[int, ...]
Vector = tuple[Fraction, ...]


def _vec(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _integers(values) -> tuple[int, ...]:
    values = _vec(values)
    if any(v.denominator != 1 for v in values):
        raise ValueError("vector is not an integral weight")
    return tuple(int(v) for v in values)


class DynkinDiagram(NamedTuple):
    """A Dynkin diagram in Bourbaki numbering.  Simple root i has
    (alpha_i, alpha_i) = scale * lengths[i]; a bond (i, j) gives
    (alpha_i, alpha_j) = -scale * max(lengths[i], lengths[j]) / 2, and
    distinct simple roots without a bond are orthogonal."""

    lengths: tuple[int, ...]
    bonds: tuple[tuple[int, int], ...]
    scale: Fraction

    def form(self, v) -> list:
        """(alpha_i, v) / scale for every simple root alpha_i, with v in
        simple-root coordinates; integers when v is integral."""
        out = [length * c for length, c in zip(self.lengths, v)]
        for i, j in self.bonds:
            bond = max(self.lengths[i], self.lengths[j]) // 2
            out[i] -= bond * v[j]
            out[j] -= bond * v[i]
        return out

    def gram(self, u, v) -> Fraction:
        """Invariant scalar product, normalised so long roots have square 2.
        Raises ValueError unless both vectors have one entry per simple root."""
        if not len(u) == len(v) == len(self.lengths):
            raise ValueError("weight vector has wrong dimension")
        return self.scale * _dot(u, self.form(v))


def _diagram(family: str, n: int) -> DynkinDiagram:
    lengths, scale = {
        "B": ([4] * (n - 1) + [2], Fraction(1, 2)),
        "C": ([2] * (n - 1) + [4], Fraction(1, 2)),
        "F": ([4, 4, 2, 2], Fraction(1, 2)),
        "G": ([2, 6], Fraction(1, 3)),  # the short root first
    }.get(family, ([2] * n, Fraction(1)))
    bonds = [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        bonds[-1] = (n - 3, n - 1)  # alpha_{n-2} branches to alpha_{n-1}, alpha_n
    elif family == "E":
        bonds = [(0, 2), (1, 3)] + bonds[2:]  # alpha_2 hangs on alpha_4
    return DynkinDiagram(tuple(lengths), tuple(bonds), scale)


class Weight(NamedTuple):
    """A dominant integral weight, stored as its Dynkin labels
    (lambda, alpha_i^vee), non-negative integers in Bourbaki order.
    Construct through :meth:`RootSystem.weight` or :func:`weight_from_dynkin`
    so integrality and dominance are validated."""

    labels: tuple[int, ...]


class RootSystem(NamedTuple):
    """A root system and its Dynkin diagram.  Every vector is in simple-root
    coordinates: the positive roots are integer tuples ordered by height,
    starting with the simple roots in Bourbaki order; rho has half-integer
    entries."""

    family: str
    rank: int
    diagram: DynkinDiagram
    positive_roots: tuple[Root, ...]
    rho: Vector
    theta: Root
    sigma: Root | None

    def weight(self, vector) -> Weight:
        """The weight with these simple-root coordinates; it must be
        integral and dominant."""
        return weight_from_dynkin(self, self.dynkin_labels(vector))

    def dynkin_labels(self, vector) -> tuple[int, ...]:
        """(vector, alpha_i^vee) = 2 (alpha_i, vector) / (alpha_i, alpha_i)
        for every simple root alpha_i.  Raises ValueError unless the vector
        has one entry per simple root and its labels are integers."""
        vec = _vec(vector)
        if len(vec) != self.rank:
            raise ValueError("weight vector has wrong dimension")
        form = self.diagram.form(vec)
        return _integers(Fraction(2 * f, length) for f, length in zip(form, self.diagram.lengths))


_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _shift(root: Root, i: int, k: int) -> Root:
    """root + k alpha_i."""
    return root[:i] + (root[i] + k,) + root[i + 1:]


def _positive_roots(diagram: DynkinDiagram, count: int) -> list[Root]:
    """The positive roots by height.  beta + alpha_i is a root exactly when
    p > (beta, alpha_i^vee), where p is the largest k such that
    beta - k alpha_i is a root.  Generation stops once more than the
    expected count are found, since a diagram that is not of finite type
    has infinitely many roots."""
    n = len(diagram.lengths)
    roots = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known = set(roots)
    layer = roots
    while layer and len(roots) <= count:
        taller = []
        for beta in layer:
            form = diagram.form(beta)
            for i, length in enumerate(diagram.lengths):
                p = 0
                while _shift(beta, i, -p - 1) in known:
                    p += 1
                if p > 2 * form[i] // length:
                    up = _shift(beta, i, 1)
                    if up not in known:
                        known.add(up)
                        taller.append(up)
        roots += taller
        layer = taller
    return roots


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of the given family and rank.

    Raises :class:`InvalidRank` outside A>=1, B>=2, C>=2, D>=3, E in 6..8,
    F=4, G=2.  Construction runs an exhaustive self-check: positive-root
    count, (theta, theta) = 2, and (rho, mu^vee) = 1 for every simple mu.
    """
    family = family.upper()
    valid = {"A": rank >= 1, "B": rank >= 2, "C": rank >= 2, "D": rank >= 3,
             "E": rank in (6, 7, 8), "F": rank == 4, "G": rank == 2}
    if family not in valid:
        raise InvalidRank(f"unknown family {family!r}")
    if not valid[family]:
        raise InvalidRank(f"rank {rank} is not valid for family {family}")

    diagram = _diagram(family, rank)
    lengths = diagram.lengths
    count = _POSITIVE_COUNT[family](rank)
    positive = _positive_roots(diagram, count)
    assert len(positive) == count

    rho = tuple(Fraction(sum(column), 2) for column in zip(*positive))

    # (rho, alpha_i^vee) = 1, so 2 (alpha_i, rho) = scale * lengths[i]: the
    # integer mu . lengths is (rho, mu) up to the positive factor 2 / scale,
    # and a weight's Dynkin labels give its Weyl arguments.
    assert [2 * f for f in diagram.form(rho)] == list(lengths)

    # Non-simply-laced systems have one dominant root per root length; the
    # highest root is the dominant one of maximal height.
    dominant = [mu for mu in positive if all(x >= 0 for x in diagram.form(mu))]
    assert 1 <= len(dominant) <= 2, f"unexpected dominant roots: {dominant}"
    theta = max(dominant, key=lambda mu: _dot(mu, lengths))
    assert all(_dot(mu, lengths) < _dot(theta, lengths) for mu in dominant if mu != theta)
    assert diagram.gram(theta, theta) == 2

    # Highest root of the subsystem orthogonal to theta: the positive root mu
    # with (theta, mu) = 0 maximising (rho, mu), ties broken lexicographically
    # for determinism (the maximiser is unique whenever the orthogonal
    # subsystem is simple).
    theta_form = diagram.form(theta)
    orthogonal = [mu for mu in positive if _dot(mu, theta_form) == 0]
    sigma = max(orthogonal, key=lambda mu: (_dot(mu, lengths), mu), default=None)

    return RootSystem(family, rank, diagram, tuple(positive), rho, theta, sigma)


def weight_from_dynkin(rs: RootSystem, labels: Sequence[int]) -> Weight:
    """The weight with these Dynkin labels; they must be non-negative
    integers, one per simple root."""
    if len(labels) != rs.rank:
        raise LengthMismatch(f"expected {rs.rank} Dynkin labels, got {len(labels)}")
    labels = _integers(labels)
    if min(labels) < 0:
        raise ValueError(f"vector is not a dominant weight: Dynkin labels {labels}")
    return Weight(labels)


def weyl_qdim_product(rs: RootSystem, lam: Weight) -> SinhProduct:
    """The Weyl-line character of lam as a product of sinh ratios, one per
    positive root mu in order.  With scale = p/q, 2 (alpha_i, lam + rho) is
    p lengths[i] (a_i + 1) / q for the labels a of lam, and 2 (alpha_i, rho)
    is p lengths[i] / q, so both arguments of mu are integer dot products
    over q."""
    p, q = rs.diagram.scale.numerator, rs.diagram.scale.denominator
    upper = [p * length * (a + 1) for length, a in zip(rs.diagram.lengths, lam.labels)]
    lower = [p * length for length in rs.diagram.lengths]
    factors = [(_dot(mu, upper), _dot(mu, lower), f"2*(rho, {mu})") for mu in rs.positive_roots]
    return SinhProduct(factors, q, 1, f"weyl[{rs.family}{rs.rank}]")


def weyl_qdim(rs: RootSystem, lam: Weight, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Exact series of the character of lam restricted to the Weyl line."""
    return weyl_qdim_product(rs, lam).series(order)


def weyl_dim(rs: RootSystem, lam: Weight) -> Fraction:
    """Classical Weyl dimension of the irreducible module with highest
    weight lam (the x -> 0 value of the Weyl-line character)."""
    return weyl_qdim_product(rs, lam).dim()
