"""Closed-form determinants versus brute force.

The package's algebraic engine is one closed form, the paper's basic
tool.  Take an m x m uniform block U (`diag` on the diagonal, `off`
everywhere else) with k border rows T, k border columns L and a k x k
corner C.  With lambda = diag - off and mu = diag + (m-1)*off,

    det [[C, T], [L^T, U]] = lambda**(m-k-1) * det [[lambda*C - T L^T, -T 1],
                                                    [off * (L 1)^T,    mu  ]]

whenever lambda != 0 or m > k, so an order m+k determinant takes a
(k+1) x (k+1) one and the sums T L^T, T 1 and L 1.  k = 0 is the
uniform matrix, mu * lambda**(m-1); k = 1 is the same matrix with its
first row and column replaced by arbitrary border vectors; k = 2, with
the ones border and the apex edges beside the regular base, is the
Cayley-Menger determinant of a pre-kite.  This script evaluates each
instance both ways, exactly, and shows the closed forms winning by a wide
margin while agreeing to the last digit.
"""

import random
import time
from fractions import Fraction

from simplexkite import (
    BorderedUniform,
    PreKite,
    bordered_uniform_det,
    cm_matrix,
    determinant_by_cofactors,
    exact_determinant,
    pk_cm_det,
    uniform_det,
    uniform_matrix,
)

print(__doc__)

print("A 5x5 uniform matrix with 3 off the diagonal and 8 on it:")
n, off, diag = 5, Fraction(3), Fraction(8)
closed = uniform_det(n, off, diag)
brute = determinant_by_cofactors(uniform_matrix(n, off, diag))
print("  closed form, k = 0: ((n-1)*off + diag) * (diag - off)**(n-1) =", closed)
print("  cofactor expansion of the assembled matrix                   =", brute)
assert closed == brute

print()
print("Now the bordered version: corner 5, borders (1,2) and (3,4),")
print("off-diagonal 7, diagonal 9:")
spec = BorderedUniform(2, 5, (1, 2), (3, 4), 7, 9)
print("  matrix rows:", [list(map(str, row)) for row in spec.matrix().rows])
print("  closed form, k = 1:", bordered_uniform_det(spec))
print("  elimination:       ", exact_determinant(spec.matrix()))

print()
print("k = 2: the Cayley-Menger determinant of the pre-kite PK[4; 1; 1, 1, 1, 2],")
print("whose ones border and apex edges sit beside the regular base block:")
pk = PreKite(4, 1, (1, 1, 1, 2))
print("  closed form, k = 2:", pk_cm_det(pk))
print("  elimination:       ", exact_determinant(cm_matrix(pk.to_sdm())))
assert pk_cm_det(pk) == exact_determinant(cm_matrix(pk.to_sdm()))

print()
print("Random exact stress test (closed form vs fraction-free elimination):")
rng = random.Random(0)
mk = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
t0 = time.perf_counter()
for trial in range(2000):
    n = rng.randint(1, 6)
    spec = BorderedUniform(
        n, mk(), [mk() for _ in range(n)], [mk() for _ in range(n)], mk(), mk()
    )
    assert bordered_uniform_det(spec) == exact_determinant(spec.matrix())
print("  2000 random specs agreed exactly in %.2fs" % (time.perf_counter() - t0))

print()
print("The closed form is linear-time in n; elimination is cubic:")
for n in (50, 200, 800):
    big = BorderedUniform(
        n, Fraction(1), [Fraction(i + 1) for i in range(n)],
        [Fraction(2 * i + 1) for i in range(n)], Fraction(2), Fraction(5),
    )
    t0 = time.perf_counter()
    value = bordered_uniform_det(big)
    dt = time.perf_counter() - t0
    print("  n = %4d: closed form in %.4fs (value has %d digits)"
          % (n, dt, len(str(value.numerator))))
