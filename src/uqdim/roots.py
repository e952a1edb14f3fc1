"""Root systems built from their Dynkin diagrams, and the Weyl character
formula on the Weyl line.

Each family is its Dynkin diagram in Bourbaki numbering (*Lie Groups and Lie
Algebras*, ch. VI, plates): the squared lengths of the simple roots, as
integers times one per-family rational scale that gives long roots square
length 2, and the bonds between them.  Every vector -- roots, rho, theta,
sigma, weights -- is stored in simple-root coordinates, so the invariant form
is the diagram's integer form times that scale and all arithmetic is exact.
The positive roots are generated by height from root strings.  The character
of the highest-weight module ``lambda`` restricted to the Weyl line
``x * rho`` is

    prod over positive roots mu of  sinh((x/2)(mu, lambda+rho)) / sinh((x/2)(mu, rho))

which :func:`weyl_qdim` expands as an exact series.  This module is the
independent oracle the universal formulas are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyOrthogonalSubsystem, InvalidRank, LengthMismatch
from .series import DEFAULT_ORDER, PowerSeries, SinhProduct

Root = tuple[int, ...]
Vector = tuple[Fraction, ...]


def _vec(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse of an exact rational matrix."""
    n = len(matrix)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class DynkinDiagram:
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
        """Invariant scalar product, normalised so long roots have square 2."""
        return self.scale * sum(a * b for a, b in zip(u, self.form(v)))


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


@dataclass(frozen=True)
class Weight:
    """A dominant integral weight, stored in the simple-root coordinates of
    its root system.  Construct through :meth:`RootSystem.weight` or
    :func:`weight_from_dynkin` so dominance is validated."""

    vector: Vector


@dataclass(frozen=True)
class RootSystem:
    """A root system and its Dynkin diagram.  Every vector is in simple-root
    coordinates: the positive roots are integer tuples ordered by height,
    starting with the simple roots in Bourbaki order; rho and the
    fundamental weights have rational entries."""

    family: str
    rank: int
    diagram: DynkinDiagram
    positive_roots: tuple[Root, ...]
    rho: Vector
    theta: Root
    sigma: Root | None
    fundamental_weights: tuple[Vector, ...]

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        return self.positive_roots[:self.rank]

    def gram(self, u, v) -> Fraction:
        """Invariant scalar product, normalised so (theta, theta) = 2."""
        return self.diagram.gram(u, v)

    def coroot_pairing(self, lam, root) -> Fraction:
        """(lam, root^vee) = 2 (lam, root) / (root, root)."""
        return 2 * self.gram(lam, root) / self.gram(root, root)

    def weight(self, vector) -> Weight:
        """Validate dominance and integrality against the simple coroots."""
        vec = _vec(vector)
        if len(vec) != self.rank:
            raise ValueError("weight vector has wrong dimension")
        labels = self.dynkin_labels(vec)
        if min(labels) < 0:
            raise ValueError(f"vector is not a dominant weight: Dynkin labels {labels}")
        return Weight(vec)

    def dynkin_labels(self, vector) -> tuple[int, ...]:
        """(vector, alpha_i^vee) for every simple root alpha_i."""
        labels = [self.coroot_pairing(_vec(vector), alpha) for alpha in self.simple_roots]
        if any(label.denominator != 1 for label in labels):
            raise ValueError("vector is not an integral weight")
        return tuple(int(label) for label in labels)


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
    gram = diagram.gram
    count = _POSITIVE_COUNT[family](rank)
    positive = _positive_roots(diagram, count)
    simple = positive[:rank]
    assert len(positive) == count

    rho = tuple(Fraction(sum(column), 2) for column in zip(*positive))

    # Non-simply-laced systems have one dominant root per root length; the
    # highest root is the dominant one of maximal height.
    dominant = [mu for mu in positive if all(x >= 0 for x in diagram.form(mu))]
    assert 1 <= len(dominant) <= 2, f"unexpected dominant roots: {dominant}"
    theta = max(dominant, key=lambda mu: gram(rho, mu))
    assert all(gram(rho, mu) < gram(rho, theta) for mu in dominant if mu != theta)
    assert gram(theta, theta) == 2

    for mu in simple:
        assert 2 * gram(rho, mu) / gram(mu, mu) == 1

    # Highest root of the subsystem orthogonal to theta: the positive root mu
    # with (theta, mu) = 0 maximising (rho, mu), ties broken lexicographically
    # for determinism (the maximiser is unique whenever the orthogonal
    # subsystem is simple).
    orthogonal = [mu for mu in positive if gram(theta, mu) == 0]
    sigma = max(orthogonal, key=lambda mu: (gram(rho, mu), mu), default=None)

    # omega_j is column j of the inverse Gram matrix of the simple roots,
    # times (alpha_j, alpha_j) / 2; the scale cancels.
    inverse = _invert([[Fraction(x) for x in diagram.form(mu)] for mu in simple])
    fundamental = tuple(
        tuple(row[j] * length / 2 for row in inverse)
        for j, length in enumerate(diagram.lengths)
    )

    return RootSystem(family, rank, diagram, tuple(positive), rho, theta, sigma, fundamental)


def compute_sigma(rs: RootSystem) -> Root:
    """Highest root of the subsystem orthogonal to theta, as found by
    :func:`build_root_system`; raises when that subsystem is empty."""
    if rs.sigma is None:
        raise EmptyOrthogonalSubsystem(
            f"no positive root of {rs.family}{rs.rank} is orthogonal to the highest root"
        )
    return rs.sigma


def weight_from_dynkin(rs: RootSystem, labels: Sequence[int]) -> Weight:
    """The dominant weight sum_i labels_i * omega_i from its Dynkin labels."""
    if len(labels) != rs.rank:
        raise LengthMismatch(f"expected {rs.rank} Dynkin labels, got {len(labels)}")
    return rs.weight(
        sum(label * omega[k] for label, omega in zip(labels, rs.fundamental_weights))
        for k in range(rs.rank)
    )


def weyl_qdim_product(rs: RootSystem, lam: Weight) -> SinhProduct:
    """The Weyl-line character of lam as a product of sinh ratios."""
    shifted = [a + b for a, b in zip(lam.vector, rs.rho)]
    # 2 (alpha_i, lam + rho) and 2 (alpha_i, rho), once per simple root
    # alpha_i, as integers over the lcm q of their denominators.
    upper = [2 * rs.gram(alpha, shifted) for alpha in rs.simple_roots]
    lower = [2 * rs.gram(alpha, rs.rho) for alpha in rs.simple_roots]
    q = math.lcm(*(a.denominator for a in upper + lower))
    upper = [a.numerator * (q // a.denominator) for a in upper]
    lower = [a.numerator * (q // a.denominator) for a in lower]
    factors = [(sum(m * a for m, a in zip(mu, upper)), sum(m * a for m, a in zip(mu, lower)),
                f"2*(rho, {mu})") for mu in rs.positive_roots]
    return SinhProduct(factors, q, 1, f"weyl[{rs.family}{rs.rank}]")


def weyl_qdim(rs: RootSystem, lam: Weight, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Exact series of the character of lam restricted to the Weyl line."""
    return weyl_qdim_product(rs, lam).series(order)


def weyl_dim(rs: RootSystem, lam: Weight) -> Fraction:
    """Classical Weyl dimension of the irreducible module with highest
    weight lam (the x -> 0 value of the Weyl-line character)."""
    return weyl_qdim_product(rs, lam).dim()
