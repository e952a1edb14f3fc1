"""Explicit root systems and the Weyl character formula on the Weyl line.

Root systems are realised in the standard orthogonal coordinates (half-integer
coordinates for the E and F families), with all arithmetic in exact rationals.
Instead of rescaling root vectors by irrational factors, the invariant scalar
product itself carries a global rational scale chosen so that long roots have
square length 2.  With that normalisation the character of the highest-weight
module ``lambda`` restricted to the Weyl line ``x * rho`` is

    prod over positive roots mu of  sinh((x/2)(mu, lambda+rho)) / sinh((x/2)(mu, rho))

which :func:`weyl_qdim` expands as an exact series.  This module is the
independent oracle the universal formulas are validated against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyOrthogonalSubsystem, InvalidRank, LengthMismatch
from .series import DEFAULT_ORDER, PowerSeries, SinhFactor, SinhProduct

Vector = tuple[Fraction, ...]


def _vec(values) -> Vector:
    return tuple(Fraction(v) for v in values)


def _unit(dim: int, i: int) -> Vector:
    return tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim))


def _add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _scale(u: Vector, c: Fraction) -> Vector:
    return tuple(a * c for a in u)


def _dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


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
class Weight:
    """A dominant integral weight, stored in the ambient coordinates of its
    root system.  Construct through :meth:`RootSystem.weight` or
    :func:`weight_from_dynkin` so dominance is validated."""

    vector: Vector


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    positive_roots: tuple[Vector, ...]
    simple_roots: tuple[Vector, ...]
    gram_scale: Fraction
    rho: Vector
    theta: Vector
    sigma: Vector | None
    fundamental_weights: tuple[Vector, ...]

    def gram(self, u: Vector, v: Vector) -> Fraction:
        """Invariant scalar product, normalised so (theta, theta) = 2."""
        return self.gram_scale * _dot(u, v)

    def coroot_pairing(self, lam: Vector, root: Vector) -> Fraction:
        """(lam, root^vee) = 2 (lam, root) / (root, root)."""
        return 2 * self.gram(lam, root) / self.gram(root, root)

    def weight(self, vector) -> Weight:
        """Validate dominance and integrality against the simple coroots."""
        vec = _vec(vector)
        if len(vec) != len(self.theta):
            raise ValueError("weight vector has wrong ambient dimension")
        for mu in self.simple_roots:
            pairing = self.coroot_pairing(vec, mu)
            if pairing.denominator != 1 or pairing < 0:
                raise ValueError(
                    f"vector is not a dominant integral weight: pairing {pairing} "
                    f"with simple root {mu}"
                )
        return Weight(vec)

    def dynkin_labels(self, vector) -> tuple[int, ...]:
        vec = _vec(vector)
        labels = []
        for mu in self.simple_roots:
            pairing = self.coroot_pairing(vec, mu)
            if pairing.denominator != 1:
                raise ValueError("vector is not an integral weight")
            labels.append(int(pairing))
        return tuple(labels)


_POSITIVE_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def _classical_roots(family: str, n: int):
    """Positive and simple roots in orthogonal coordinates, plus the scale
    that makes long roots have square 2."""
    if family == "A":
        dim = n + 1
        positive = [_sub(_unit(dim, i), _unit(dim, j))
                    for i in range(dim) for j in range(i + 1, dim)]
        simple = [_sub(_unit(dim, i), _unit(dim, i + 1)) for i in range(n)]
        return positive, simple, Fraction(1)
    if family == "B":
        positive = [_sub(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
        positive += [_add(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
        positive += [_unit(n, i) for i in range(n)]
        simple = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)] + [_unit(n, n - 1)]
        return positive, simple, Fraction(1)
    if family == "C":
        positive = [_sub(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
        positive += [_add(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
        positive += [_scale(_unit(n, i), Fraction(2)) for i in range(n)]
        simple = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        simple.append(_scale(_unit(n, n - 1), Fraction(2)))
        return positive, simple, Fraction(1, 2)
    if family == "D":
        positive = [_sub(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
        positive += [_add(_unit(n, i), _unit(n, j)) for i in range(n) for j in range(i + 1, n)]
        simple = [_sub(_unit(n, i), _unit(n, i + 1)) for i in range(n - 1)]
        simple.append(_add(_unit(n, n - 2), _unit(n, n - 1)))
        return positive, simple, Fraction(1)
    raise AssertionError(family)


def _g2_roots():
    # Realised inside the plane x1+x2+x3 = 0; short roots have square 2/3
    # once the form is scaled by 1/3.
    a1 = _vec([1, -1, 0])
    a2 = _vec([-2, 1, 1])
    positive = [
        a1,
        a2,
        _add(a1, a2),
        _add(_scale(a1, Fraction(2)), a2),
        _add(_scale(a1, Fraction(3)), a2),
        _add(_scale(a1, Fraction(3)), _scale(a2, Fraction(2))),
    ]
    return positive, [a1, a2], Fraction(1, 3)


def _f4_roots():
    half = Fraction(1, 2)
    positive = [_unit(4, i) for i in range(4)]
    positive += [_sub(_unit(4, i), _unit(4, j)) for i in range(4) for j in range(i + 1, 4)]
    positive += [_add(_unit(4, i), _unit(4, j)) for i in range(4) for j in range(i + 1, 4)]
    for s2 in (half, -half):
        for s3 in (half, -half):
            for s4 in (half, -half):
                positive.append((half, s2, s3, s4))
    simple = [
        _sub(_unit(4, 1), _unit(4, 2)),
        _sub(_unit(4, 2), _unit(4, 3)),
        _unit(4, 3),
        (half, -half, -half, -half),
    ]
    return positive, simple, Fraction(1)


def _e8_all_roots() -> list[Vector]:
    roots: list[Vector] = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Fraction(0)] * 8
                    v[i], v[j] = Fraction(si), Fraction(sj)
                    roots.append(tuple(v))
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(half * s for s in signs))
    return roots


def _e8_simple_roots() -> list[Vector]:
    half = Fraction(1, 2)
    a1 = (half, -half, -half, -half, -half, -half, -half, half)
    a2 = _add(_unit(8, 0), _unit(8, 1))
    chain = [_sub(_unit(8, i + 1), _unit(8, i)) for i in range(6)]  # a3..a8
    return [a1, a2] + chain


def _e_family_roots(rank: int):
    """E6/E7/E8 as the sub-root-systems of E8 spanned by the first rank
    simple roots (Bourbaki numbering)."""
    simple8 = _e8_simple_roots()
    basis = _invert([[simple8[j][i] for j in range(8)] for i in range(8)])
    positive = []
    for root in _e8_all_roots():
        coords = [sum(basis[k][i] * root[i] for i in range(8)) for k in range(8)]
        if any(c != 0 for c in coords[rank:]):
            continue
        if all(c >= 0 for c in coords):
            positive.append(root)
    return positive, simple8[:rank], Fraction(1)


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system of the given family and rank.

    Raises :class:`InvalidRank` outside A>=1, B>=2, C>=2, D>=3, E in 6..8,
    F=4, G=2.  Construction runs an exhaustive self-check: positive-root
    count, (theta, theta) = 2, and (rho, mu^vee) = 1 for every simple mu.
    """
    family = family.upper()
    valid = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }
    if family not in valid:
        raise InvalidRank(f"unknown family {family!r}")
    if not valid[family]:
        raise InvalidRank(f"rank {rank} is not valid for family {family}")

    if family in "ABCD":
        positive, simple, scale = _classical_roots(family, rank)
    elif family == "G":
        positive, simple, scale = _g2_roots()
    elif family == "F":
        positive, simple, scale = _f4_roots()
    else:
        positive, simple, scale = _e_family_roots(rank)

    assert len(positive) == _POSITIVE_COUNT[family](rank)

    rho = positive[0]
    for mu in positive[1:]:
        rho = _add(rho, mu)
    rho = _scale(rho, Fraction(1, 2))

    def gram(u, v):
        return scale * _dot(u, v)

    # Non-simply-laced systems have one dominant root per root length; the
    # highest root is the dominant one of maximal height.
    dominant = [
        mu for mu in positive
        if all(gram(mu, s) >= 0 for s in simple)
    ]
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

    cartan = [[2 * gram(a, b) / gram(b, b) for b in simple] for a in simple]
    inverse = _invert(cartan)
    fundamental = []
    for j in range(rank):
        w = tuple(Fraction(0) for _ in simple[0])
        for k in range(rank):
            w = _add(w, _scale(simple[k], inverse[j][k]))
        fundamental.append(w)

    return RootSystem(
        family=family,
        rank=rank,
        positive_roots=tuple(positive),
        simple_roots=tuple(simple),
        gram_scale=scale,
        rho=rho,
        theta=theta,
        sigma=sigma,
        fundamental_weights=tuple(fundamental),
    )


def compute_sigma(rs: RootSystem) -> Vector:
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
        raise LengthMismatch(
            f"expected {rs.rank} Dynkin labels, got {len(labels)}"
        )
    vec = tuple(Fraction(0) for _ in rs.theta)
    for label, omega in zip(labels, rs.fundamental_weights):
        if label:
            vec = _add(vec, _scale(omega, Fraction(label)))
    return rs.weight(vec)


def weyl_qdim_product(rs: RootSystem, lam: Weight) -> SinhProduct:
    """The Weyl-line character of lam as a product of sinh ratios."""
    vec = lam.vector
    factors = []
    for mu in rs.positive_roots:
        num = 2 * (rs.gram(mu, vec) + rs.gram(mu, rs.rho))
        den = 2 * rs.gram(mu, rs.rho)
        factors.append(SinhFactor(num, den, label=f"2*(rho, {mu})"))
    return SinhProduct(factors, sign=1, context=f"weyl[{rs.family}{rs.rank}]")


def weyl_qdim(rs: RootSystem, lam: Weight, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Exact series of the character of lam restricted to the Weyl line."""
    return weyl_qdim_product(rs, lam).series(order)


def weyl_dim(rs: RootSystem, lam: Weight) -> Fraction:
    """Classical Weyl dimension of the irreducible module with highest
    weight lam (the x -> 0 value of the Weyl-line character)."""
    return weyl_qdim_product(rs, lam).dim()
