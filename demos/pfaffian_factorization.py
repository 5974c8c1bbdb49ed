"""
Pfaffians, adjugates, and the factored four-field metric
========================================================

Every even skew-symmetric matrix has a Pfaffian, the polynomial
square root of its determinant.  For the four-field metric written
over the homogenizing coordinate the Pfaffian factors: one field
variable times a linear form in the fields.  The Pfaffian adjugate
then inverts the metric without ever forming a determinant.
"""

from fractions import Fraction

from hamforms import Matrix, Poly, SkewMatrix, pfaffian, pfaffian_adjugate, skew_inverse

# Warm-up on numbers: Pf squared is the determinant.
s = SkewMatrix(4, {
    (1, 2): Fraction(2), (1, 3): Fraction(-1), (1, 4): Fraction(3),
    (2, 3): Fraction(5), (2, 4): Fraction(0), (3, 4): Fraction(7),
})
pf = pfaffian(s)
det = s.to_matrix().det()
print("numeric 4x4:   Pf = %s,  det = %s,  Pf^2 == det: %s" % (pf, det, pf * pf == det))
print()

# The four-field metric, fields u1..u4 plus the homogenizing u5, with
# six free constant entries g12..g34 occupying ring slots 6..11.
nv = 11
u1, u2, u3, u4, u5 = (Poly.var(nv, i) for i in range(1, 6))
g12, g13, g14, g23, g24, g34 = (Poly.var(nv, i) for i in range(6, 12))
metric = SkewMatrix(4, {
    (1, 2): u3 + g12 * u5,
    (1, 3): -u2 + g13 * u5,
    (1, 4): g14 * u5,
    (2, 3): u1 + g23 * u5,
    (2, 4): g24 * u5,
    (3, 4): g34 * u5,
})

print("the four-field metric entries:")
for (i, j), v in sorted(metric.upper.items()):
    print("    s%d%d = %s" % (i, j, v))
print()

# The Pfaffian pulls out the homogenizing field as a common factor.
pf = pfaffian(metric)
linear = (g14 * u1 + g24 * u2 + g34 * u3
          + (g12 * g34 - g13 * g24 + g14 * g23) * u5)
print("Pf(metric) = %s" % pf)
print("factors as u5 * (linear form):", pf == u5 * linear)
print()

# The adjugate S# satisfies S @ S# = Pf * I entrywise, so dividing by
# the Pfaffian inverts the metric wherever it is nonzero.
adj = pfaffian_adjugate(metric)
prod = metric.to_matrix() @ adj.to_matrix()
diag_ok = all(prod[i, i] == pf for i in range(4))
off_ok = all(not prod[i, j] for i in range(4) for j in range(4) if i != j)
print("S @ S# == Pf * I:", diag_ok and off_ok)
print()

# On a numeric instance the same adjugate route gives the exact
# rational inverse.
inv = skew_inverse(s)
print("numeric inverse check:", s.to_matrix() @ inv.to_matrix() == Matrix.identity(4))
