"""The float centers solved in coordinates with numpy, kept as the oracle
for `simplexkite.geometry`.

The package reads its circumcenter and incenter off the exact Gram
elimination and runs the Fermat-Torricelli iteration on tuples.  Here the
circumcenter comes from the linear equidistance system, the incenter
from the facet hyperplanes (one SVD and one least-squares solve per
facet, with its two checks: every insphere touch point lies inside its
facet, and every facet lies at the same distance), and the
Fermat-Torricelli point from the same iteration written with arrays.
Each function takes the (n+1) x n array of vertices.
"""

import math

import numpy as np

from simplexkite import facet_volumes_sq


def circumcenter(pts):
    """Equidistant point and its radius, from the linear equidistance system."""
    lhs = 2.0 * (pts[1:] - pts[0])
    rhs = (pts[1:] ** 2).sum(axis=1) - (pts[0] ** 2).sum()
    center = np.linalg.solve(lhs, rhs)
    return center, float(np.linalg.norm(center - pts[0]))


def _facet_unit_normal(pts, j):
    """Unit normal of facet j's hyperplane and one vertex on it."""
    others = [i for i in range(len(pts)) if i != j]
    base = pts[others[0]]
    _, _, vt = np.linalg.svd(pts[others[1:]] - base)
    return vt[-1], base


def incenter(pts, d):
    """Facet-volume-weighted vertex average and the shared facet distance.

    The weights are the facet volumes of `d`; the two checks, which
    fail unless they are right, are assertions.
    """
    n = len(pts) - 1
    if n == 1:
        return pts.mean(axis=0), float(np.linalg.norm(pts[1] - pts[0])) / 2.0
    weights = np.array([math.sqrt(float(v)) for v in facet_volumes_sq(d)])
    center = (weights[:, None] * pts).sum(axis=0) / weights.sum()
    distances = []
    for j in range(n + 1):
        normal, base = _facet_unit_normal(pts, j)
        distances.append(abs(float((center - base) @ normal)))
        touch = center - ((center - base) @ normal) * normal
        others = [i for i in range(n + 1) if i != j]
        coeffs, *_ = np.linalg.lstsq((pts[others[1:]] - base).T, touch - base, rcond=None)
        bary = np.concatenate([[1.0 - coeffs.sum()], coeffs])
        assert bary.min() >= -1e-6, "insphere touch point outside facet %d" % j
    radius = float(np.mean(distances))
    assert max(distances) - min(distances) <= 1e-6 * (1.0 + radius), "facet distances disagree"
    return center, radius


def _vertex_pull(pts, k):
    diffs = np.delete(pts, k, axis=0) - pts[k]
    pull = (diffs / np.linalg.norm(diffs, axis=1)[:, None]).sum(axis=0)
    return float(np.linalg.norm(pull)), pull


def fermat_torricelli(pts, tol=1e-10, max_iter=100_000):
    """Minimizer of the summed vertex distances: the vertex certificate,
    then re-weighted averaging from the centroid to gradient norm tol."""
    for k in range(len(pts)):
        if _vertex_pull(pts, k)[0] <= 1.0 + 1e-12:
            return pts[k].copy()
    diameter = max(
        float(np.linalg.norm(pts[i] - pts[j])) for i in range(len(pts)) for j in range(i + 1, len(pts))
    )
    x = pts.mean(axis=0)
    for _ in range(max_iter):
        dists = np.linalg.norm(pts - x, axis=1)
        k = int(np.argmin(dists))
        if dists[k] <= 1e-12 * diameter:
            pull_norm, pull = _vertex_pull(pts, k)
            inv = 1.0 / np.linalg.norm(np.delete(pts, k, axis=0) - pts[k], axis=1)
            x = pts[k] + (pull_norm - 1.0) / inv.sum() * pull / pull_norm
            continue
        grad = ((x - pts) / dists[:, None]).sum(axis=0)
        if float(np.linalg.norm(grad)) <= tol:
            return x
        weights = 1.0 / dists
        x = (weights[:, None] * pts).sum(axis=0) / weights.sum()
    raise AssertionError("Weiszfeld iteration did not converge")
