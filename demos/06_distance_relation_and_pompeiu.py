"""The point-to-regular-simplex distance relation, and Pompeiu's theorem.

For any point in the affine hull of a regular n-simplex with edge t0,
the edge length and the n+1 vertex distances t1..t_{n+1} satisfy

    (n+1) * (t0**4 + t1**4 + ... ) == (t0**2 + t1**2 + ...)**2.

The relation is the vanishing of a Cayley-Menger determinant, so it
doubles as a solver: given all but one distance, the missing one obeys
a quadratic in its square.  Its n = 2 case proves Pompeiu's theorem:
the three distances from a planar point to an equilateral triangle's
vertices always form a triangle, degenerating exactly on the
circumcircle.
"""

import math
import random
from fractions import Fraction

from simplexkite import (
    DistanceTuple,
    SquaredDistanceMatrix,
    embed,
    on_circumsphere_by_sums,
    pompeiu_classify,
    pompeiu_from_point,
    relation_residual,
    relation_residual_from_squares,
    solve_missing_distance,
    solve_missing_distance_squares,
)

print(__doc__)

print("Exact check at the center of a unit equilateral triangle (all")
print("squared distances 1/3):")
res = relation_residual_from_squares(2, [1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)])
print("  residual =", res)

print()
print("A point equidistant 1 from all three vertices is OFF the plane, and")
print("the residual says so (it is strictly negative off the hull):")
print("  residual =", relation_residual(DistanceTuple(2, 1, (1, 1, 1))))

print()
print("Float lengths are read at their exact values, and the residual comes")
print("back relative to the fourth power of the largest length, so it reads")
print("the same at every magnitude:")
for side in (1e-80, 1.0, 1e100):
    print("  lengths %-6g -> residual %s" % (side, relation_residual(DistanceTuple(2, side, (side,) * 3))))

print()
print("Sampled check on embedded regular simplices, n = 2..6:")
rng = random.Random(4)
for n in range(2, 7):
    s = embed(SquaredDistanceMatrix.regular(n))
    worst = 0.0
    for _ in range(300):
        w = [rng.uniform(-1.5, 2.5) for _ in range(n + 1)]
        total = sum(w)
        p = [sum(wi / total * v[k] for wi, v in zip(w, s.vertices)) for k in range(n)]
        dists = tuple(math.dist(p, v) for v in s.vertices)
        worst = max(worst, abs(relation_residual(DistanceTuple(n, 1.0, dists))))
    print("  n = %d: worst relative residual over 300 hull points: %.2e" % (n, worst))

print()
print("Solving for a missing distance.  Knowing the center distances")
print("1/sqrt(3) to two vertices of a unit triangle, the third distance")
print("has two solutions: the center itself and its mirror across a side:")
print("  squared solutions:", solve_missing_distance_squares(2, 1, [Fraction(1, 3), Fraction(1, 3)]))
print("  as lengths:       ", solve_missing_distance(2, 1, [1 / math.sqrt(3), 1 / math.sqrt(3), None]))

print()
print("The circumsphere in one number: a hull point lies on it exactly")
print("when its squared distances to the vertices sum to n * t0**2:")
print("  unit triangle, sum 2:  ", on_circumsphere_by_sums(2, 1, 2))
print("  unit triangle, sum 3/2:", on_circumsphere_by_sums(2, 1, Fraction(3, 2)), "(that is the center)")

print()
print("Pompeiu's classifier on a unit triangle:")
cases = [
    ("at a vertex (0, 1, 1)", (0, 1, 1)),
    ("at the center", (1 / math.sqrt(3),) * 3),
    ("antipode of a vertex", (2 / math.sqrt(3), 1 / math.sqrt(3), 1 / math.sqrt(3))),
    ("equidistant 1 (off-plane, impossible)", (1, 1, 1)),
]
for label, (x, y, z) in cases:
    print("  %-40s -> %s" % (label, pompeiu_classify(1, x, y, z)))

print()
print("Walking a ray from the center outward, the verdict flips exactly")
print("at the circumcircle radius 1/sqrt(3) = %.6f:" % (1 / math.sqrt(3)))
direction = (math.cos(0.93), math.sin(0.93))
for rho in (0.2, 0.5, 0.57735026919, 0.7, 1.2):
    _, verdict = pompeiu_from_point(1.0, [rho * c for c in direction])
    print("  |p| = %-13s -> %s" % (rho, verdict))
