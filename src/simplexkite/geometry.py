"""Floating-point realization of distance matrices and the four centers.

This is the only module that leaves exact arithmetic.  A matrix is
embedded by factoring its exact Gram matrix (exact LDL^T, converted to
floats only at the very end), after which the centroid, circumcenter,
incenter, and Fermat-Torricelli point are computed numerically.

Default tolerances are generous for double precision at desk scale:
embedding round-trip 1e-9 relative, center checks 1e-8, and a 1e-10
gradient norm for the Fermat-Torricelli iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cayley import (
    DegenerateSimplexError,
    SquaredDistanceMatrix,
    facet_sdm,
    gram_ldl,
    volume_sq,
)

TOL_EMBED = 1e-9
TOL_CENTER = 1e-8
FT_GRADIENT_TOL = 1e-10
FT_MAX_ITER = 100_000


class ConvergenceError(RuntimeError):
    """Iteration budget ran out before the convergence test was met."""


class EmbeddedSimplex:
    """Coordinates realizing a squared-distance matrix, vertex 0 at the origin."""

    __slots__ = ("n", "vertices", "source", "max_rel_error")

    def __init__(self, vertices, source: SquaredDistanceMatrix, tol: float = TOL_EMBED):
        pts = np.asarray(vertices, dtype=float)
        if pts.shape != (source.n + 1, source.n):
            raise ValueError("expected n+1 vertices of dimension n")
        err = 0.0
        for i in range(source.n + 1):
            for j in range(i + 1, source.n + 1):
                diff = pts[i] - pts[j]
                have = float(diff @ diff)
                want = float(source.a[i][j])
                err = max(err, abs(have - want) / want)
        if err > tol:
            raise ValueError(
                "coordinates do not reproduce the distance matrix "
                "(relative error %.3e exceeds %.1e)" % (err, tol)
            )
        pts.setflags(write=False)
        self.n = source.n
        self.vertices = pts
        self.source = source
        self.max_rel_error = err

    def __repr__(self):
        return "EmbeddedSimplex(n=%d, max_rel_error=%.2e)" % (self.n, self.max_rel_error)


def embed(d: SquaredDistanceMatrix, tol: float = TOL_EMBED) -> EmbeddedSimplex:
    """Realize a nondegenerate matrix as coordinates in R^n.

    Degenerate or non-Euclidean input raises with the realizability
    verdict attached.  The exact Gram matrix is LDL-factored first and
    floats enter only when the factors are multiplied out.
    """
    lower, pivots = gram_ldl(d)
    scale = [math.sqrt(float(p)) for p in pivots]
    rows = [[0.0] * d.n]
    for i in range(d.n):
        rows.append([float(lower[i][k]) * scale[k] for k in range(d.n)])
    return EmbeddedSimplex(np.array(rows), d, tol=tol)


def centroid(s: EmbeddedSimplex) -> np.ndarray:
    """Arithmetic mean of the vertices."""
    return s.vertices.mean(axis=0)


def circumcenter(s: EmbeddedSimplex) -> tuple[np.ndarray, float]:
    """Equidistant point and its radius, from the linear equidistance system."""
    pts = s.vertices
    lhs = 2.0 * (pts[1:] - pts[0])
    rhs = (pts[1:] ** 2).sum(axis=1) - (pts[0] ** 2).sum()
    try:
        center = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError("equidistance system is singular") from exc
    radius = float(np.linalg.norm(center - pts[0]))
    return center, radius


def _facet_unit_normal(s: EmbeddedSimplex, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit normal of facet j's hyperplane and one vertex on it."""
    others = [i for i in range(s.n + 1) if i != j]
    base = s.vertices[others[0]]
    span = s.vertices[others[1:]] - base
    _, _, vt = np.linalg.svd(span)
    return vt[-1], base


def incenter(s: EmbeddedSimplex) -> tuple[np.ndarray, float]:
    """Facet-volume-weighted vertex average and the shared facet distance.

    The insphere touch points are also verified to lie inside their
    facets; a gross violation means the input was not a valid embedded
    simplex and raises RuntimeError.
    """
    if s.n == 1:
        center = s.vertices.mean(axis=0)
        return center, float(np.linalg.norm(s.vertices[1] - s.vertices[0])) / 2.0
    weights = np.array(
        [math.sqrt(float(volume_sq(facet_sdm(s.source, j)))) for j in range(s.n + 1)]
    )
    center = (weights[:, None] * s.vertices).sum(axis=0) / weights.sum()
    distances = []
    for j in range(s.n + 1):
        normal, base = _facet_unit_normal(s, j)
        dist = abs(float((center - base) @ normal))
        distances.append(dist)
        touch = center - ((center - base) @ normal) * normal
        others = [i for i in range(s.n + 1) if i != j]
        span = (s.vertices[others[1:]] - base).T
        coeffs, *_ = np.linalg.lstsq(span, touch - base, rcond=None)
        bary = np.concatenate([[1.0 - coeffs.sum()], coeffs])
        if bary.min() < -1e-6:
            raise RuntimeError(
                "insphere touch point fell outside facet %d (barycentric %.3e)"
                % (j, bary.min())
            )
    radius = float(np.mean(distances))
    spread = max(distances) - min(distances)
    if spread > 1e-6 * (1.0 + radius):
        raise RuntimeError("facet distances from the incenter disagree")
    return center, radius


def sum_distances(s: EmbeddedSimplex, point) -> float:
    """Sum of distances from a point to all vertices."""
    p = np.asarray(point, dtype=float)
    return float(np.linalg.norm(s.vertices - p, axis=1).sum())


def _vertex_pull(s: EmbeddedSimplex, k: int) -> tuple[float, np.ndarray]:
    """Norm and direction of the combined unit pulls of the other vertices."""
    diffs = np.delete(s.vertices, k, axis=0) - s.vertices[k]
    units = diffs / np.linalg.norm(diffs, axis=1)[:, None]
    pull = units.sum(axis=0)
    return float(np.linalg.norm(pull)), pull


def fermat_torricelli(
    s: EmbeddedSimplex,
    tol: float = FT_GRADIENT_TOL,
    max_iter: int = FT_MAX_ITER,
) -> np.ndarray:
    """Minimizer of the summed vertex distances.

    The objective is convex, and a vertex is the global minimizer
    exactly when the combined unit pull of the other vertices has norm
    at most 1; that certificate is checked for every vertex first.
    Otherwise the minimizer is interior and is found by iteratively
    re-weighted averaging started at the centroid, accepted once the
    objective gradient norm drops to tol.  An iterate that lands on a
    (necessarily non-optimal) vertex is stepped off along the pull.
    """
    pts = s.vertices
    for k in range(len(pts)):
        pull_norm, _ = _vertex_pull(s, k)
        if pull_norm <= 1.0 + 1e-12:
            return pts[k].copy()
    diameter = max(
        float(np.linalg.norm(pts[i] - pts[j]))
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    vertex_snap = 1e-12 * diameter
    x = pts.mean(axis=0)
    for _ in range(max_iter):
        dists = np.linalg.norm(pts - x, axis=1)
        k = int(np.argmin(dists))
        if dists[k] <= vertex_snap:
            pull_norm, pull = _vertex_pull(s, k)
            direction = pull / pull_norm
            if not np.isfinite(direction).all():
                direction = pts.mean(axis=0) - pts[k]
                direction = direction / np.linalg.norm(direction)
            inv = 1.0 / np.linalg.norm(np.delete(pts, k, axis=0) - pts[k], axis=1)
            step = (pull_norm - 1.0) / inv.sum()
            x = pts[k] + step * direction
            continue
        grad = ((x - pts) / dists[:, None]).sum(axis=0)
        if float(np.linalg.norm(grad)) <= tol:
            return x
        weights = 1.0 / dists
        x = (weights[:, None] * pts).sum(axis=0) / weights.sum()
    raise ConvergenceError(
        "Fermat-Torricelli iteration did not reach gradient norm %.1e in %d steps"
        % (tol, max_iter)
    )


@dataclass(frozen=True)
class SumSquaresReport:
    """Observed sum of squared vertex distances and its closed-form prediction."""

    total: float
    predicted: float


def sum_sq_to_vertices(s: EmbeddedSimplex, point) -> SumSquaresReport:
    """Sum of squared distances from a point to the vertices of a REGULAR simplex.

    Also reports the prediction (n+1)*(rho**2 + R**2), where rho is the
    distance from the point to the center; the two agree for any point
    in the affine hull.  Non-regular input is rejected.
    """
    if not s.source.is_regular():
        raise ValueError("sum-of-squares prediction only holds for regular simplices")
    p = np.asarray(point, dtype=float)
    total = float(((s.vertices - p) ** 2).sum())
    center, radius = circumcenter(s)
    rho = float(np.linalg.norm(p - center))
    predicted = (s.n + 1) * (rho**2 + radius**2)
    return SumSquaresReport(total=total, predicted=predicted)


@dataclass(frozen=True)
class CenterSet:
    """The four classical centers of an embedded simplex, with both radii."""

    centroid: np.ndarray
    circumcenter: np.ndarray
    incenter: np.ndarray
    fermat: np.ndarray
    circumradius: float
    inradius: float

    def to_json(self) -> dict:
        return {
            "centroid": [float(x) for x in self.centroid],
            "circumcenter": [float(x) for x in self.circumcenter],
            "incenter": [float(x) for x in self.incenter],
            "fermat": [float(x) for x in self.fermat],
            "circumradius": self.circumradius,
            "inradius": self.inradius,
        }


def center_set(s: EmbeddedSimplex, ft_tol: float = FT_GRADIENT_TOL) -> CenterSet:
    """Compute all four centers in one go."""
    g = centroid(s)
    q, radius = circumcenter(s)
    i, inradius = incenter(s)
    f = fermat_torricelli(s, tol=ft_tol)
    return CenterSet(
        centroid=g,
        circumcenter=q,
        incenter=i,
        fermat=f,
        circumradius=radius,
        inradius=inradius,
    )
