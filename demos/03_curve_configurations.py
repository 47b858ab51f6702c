"""
Curve configurations: the 24-curve grid, its involution, the quotient
=====================================================================

A configuration is a labeled exact Gram matrix plus marked points.
The key players: 24 grid curves, 4 extra curves, a fixed-curve-free
involution, and the 14-class quotient configuration.
"""

from autcert.lattice import gram_rank, signature
from autcert.surface import (
    build_double_kummer,
    epsilon_involution,
    extend_with_conics,
    quotient_pushforward,
    verify_isometry,
    with_intersection,
)

# The double Kummer grid: E1..E4, F1..F4 and the sixteen Cij.
kummer = build_double_kummer()
print("curves:", len(kummer.labels))
print("rank:  ", gram_rank(kummer.gram))
print("signature:", signature(kummer.gram))

# Four more curves C1..C4 extend the grid without raising the rank.
x = extend_with_conics(kummer)
print("extended:", len(x.labels), "curves, rank", gram_rank(x.gram))

# The swap E_i <-> F_i, C_ij <-> C_ji, C_ii <-> C_i preserves every
# intersection number and fixes no curve.
eps = epsilon_involution(x)
report = verify_isometry(x, eps)
print("involution passes:", report.passed, "fixed:", report.fixed_labels)

# Corrupting a single entry is caught and the offending pair is named.
broken = with_intersection(x, "E2", "C32", 0)
bad = verify_isometry(broken, eps)
print("corrupted passes:", bad.passed)
print("first failure:", bad.failures[0])

# The free quotient halves pairings and leaves 14 classes.
z = quotient_pushforward(x, eps, report)
print("quotient classes:", len(z.labels))
print("H2 . D32 =", z.pairing("H2", "D32"))
print("D11 . D22 =", z.pairing("D11", "D22"))
print("rank", gram_rank(z.gram), "signature", signature(z.gram))
