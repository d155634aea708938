"""Which center coincidences force a pre-kite to be regular?

Three classical coincidences are decidable exactly from the distance
matrix: circumcenter = centroid holds exactly for well-distributed edge
lengths, incenter = centroid for equal facet volumes, and circumcenter
= incenter for equal facet circumradii with an interior circumcenter.
The Fermat-Torricelli flags follow from these: off the vertices, X is
the Fermat point F exactly when the unit vectors from X to the vertices
sum to 0, so F = G and F = Q each hold exactly when Q = G.
For pre-kites the first two coincidences force regularity, and this
script fuzzes that.  The incenter = centroid story is the interesting
one: solving the equal-facet-volume conditions exactly produces
non-regular specimens, and, with squared-length parameters, earlier
than the classical dimension-6 threshold says they should appear.
"""

import random
from fractions import Fraction

from simplexkite import (
    PreKite,
    Realizability,
    SquaredDistanceMatrix,
    circumcenter_barycentrics,
    circumradius_sq,
    coincidence_report,
    equiareal_prekite_solve,
    equiareal_scan,
    facet_circumradii_sq,
    facet_sdm,
    facet_volumes_sq,
    is_equiradial,
    is_realizable,
    is_well_distributed,
    volume_sq,
)

print(__doc__)

print("The flagship specimen PK[4; 1; (1, 1, 1, 2)]:")
rep = coincidence_report(PreKite(4, 1, (1, 1, 1, 2)).to_sdm(), with_floats=True)
print("  equiareal (incenter = centroid):        ", rep.ig_coincide)
print("  well-distributed (circumcenter = centroid):", rep.qg_coincide)
print("  equiradial + interior (circumcenter = incenter):", rep.qi_coincide)
print("  embedded center distances:", {k: round(v, 12) for k, v in rep.center_distances.items()})
print("  (the incenter really does land on the centroid, to float precision,")
print("   while the circumcenter sits 0.245 away)")
print("  Fermat flags (F = G and F = Q exactly when Q = G):", rep.fermat_coincidences)
print("  (G = I without Q, so F = I would force F = G, hence Q = G: false)")

print()
print("The regular 8-simplex with squared edge (0, 1) scaled by 1 + 10**-6:")
near = [list(row) for row in SquaredDistanceMatrix.regular(8).a]
near[0][1] = near[1][0] = 1 + Fraction(1, 10**6)
rep = coincidence_report(SquaredDistanceMatrix(near), with_floats=True)
print("  Q = G:", rep.qg_coincide, " Fermat flags:", rep.fermat_coincidences)
print("  (F = G needs G equidistant from the vertices, that is Q = G, so fg and")
print("   fq are false however small the perturbation; with no two centers")
print("   coinciding, fi is the Fermat gradient test at the float incenter)")

print()
print("Its circumsphere and facets, read off the one Gram elimination of the whole")
print("simplex, beside the per-facet oracle that builds and eliminates each facet:")
witness = PreKite(4, 1, (1, 1, 1, 2)).to_sdm()
volumes, radii = facet_volumes_sq(witness), facet_circumradii_sq(witness)
print("  circumcenter barycentrics w =", tuple(str(w) for w in circumcenter_barycentrics(witness)),
      " R^2 =", circumradius_sq(witness))
print("  facet   V^2 (whole)  V^2 (oracle)   R^2 (whole)  R^2 (oracle)")
for k in range(witness.n + 1):
    facet = facet_sdm(witness, k)
    row = (volumes[k], volume_sq(facet), radii[k], circumradius_sq(facet))
    assert row[0] == row[1] and row[2] == row[3]
    print("  %5d  %12s  %12s  %12s  %12s" % ((k,) + tuple(str(x) for x in row)))
print("  (all five facets have V^2 = 1/72; w vanishes at vertices 1 to 3, so the")
print("   circumcenter lies on facets 1 to 3 and their radii equal R)")

print()
print("Fuzz: among 400 random realizable pre-kites, every one that is")
print("well-distributed or equiradial must be regular:")
rng = random.Random(2)
hits = 0
for _ in range(400):
    n = rng.randint(2, 6)
    while True:
        u = Fraction(rng.randint(2, 12), 4)
        v = tuple(u * Fraction(rng.randint(2, 10), 4) for _ in range(n))
        pk = PreKite(n, u, v)
        if is_realizable(pk.to_sdm()).status is Realizability.NONDEGENERATE:
            break
    d = pk.to_sdm()
    for predicate in (is_well_distributed, is_equiradial):
        if predicate(d):
            hits += 1
            assert d.is_regular()
print("  zero counterexamples (%d regular hits along the way)" % hits)

print()
print("Equal facet volumes, solved exactly.  With t apex edges at squared")
print("value x and s at y (u = 1), the two conditions reduce to a single")
print("linear equation, so each split (t, s) has exactly one candidate:")
for n in range(3, 9):
    print("  n = %d:" % n)
    for s in range(1, (n - 1) // 2 + 1):
        t = n - s
        cand = equiareal_prekite_solve(n, t, s)[0]
        status = (
            "realizable, non-regular, equiareal" if cand.realizable and cand.equiareal_verified and not cand.regular
            else ("degenerate, rejected" if cand.degenerate else "not realizable")
        )
        print("    (t, s) = (%d, %d): x = %s, y = %s -> %s" % (t, s, cand.x, cand.y, status))

print()
print("The scan report makes the threshold comparison explicit:")
for n in (3, 4, 5, 6):
    result = equiareal_scan(n)
    print("  n = %d: non-regular equiareal pre-kite found: %-5s  claim agrees: %s"
          % (n, result["any_nonregular_equiareal"], result["claim_agrees"]))
    for note in result["notes"]:
        print("    note: %s" % note)
print()
print("The n = 4 and n = 5 specimens are genuine: their facet volumes are")
print("verified equal by the exact facet determinants, and their Gram")
print("matrices are positive definite.  The classical threshold statement")
print("reads its parameters as plain lengths; with squared-length")
print("parameters the boundary moves, and the scan reports the discrepancy")
print("as a note rather than hiding either verdict.")
