"""
The reciprocal Cremona involution and its ruling swaps
======================================================

The involution [a1/x1 : a2/x2 : a3/x3 : a1 a2 a3/x4] of projective
3-space, in cleared polynomial form, preserves a family of quadrics
and swaps the two rulings of each smooth member.
"""

from autcert.cremona import (
    X_VARS,
    QuadricForm,
    conjugate_translation,
    contraction_check,
    cremona_map,
    find_swap_specializations,
)
from autcert.scalars import MultiPoly, laurent_text

tau = cremona_map()

# Substituting the map into the quadric returns it times the monomial
# cofactor c, checked by multiplying c back in.
q = QuadricForm.standard()
c = MultiPoly.monomial(("a1", "a2", "a3", "x1", "x2", "x3", "x4"), (1,) * 7, 1)
print("quadric: ", q.poly)
print("cofactor:", c, "checked:", tau.pullback(q.poly) == c * q.poly)

# Composing the map with itself is the identity times the square.
square = [tau.pullback(comp) for comp in tau.components]
identity = [c * c * MultiPoly.var(x) for x in X_VARS]
print("involution cofactor:", c * c, "checked:", square == identity)

# Each coordinate plane contracts to a coordinate point.
for i in (1, 2, 3, 4):
    point = contraction_check(tau, i)
    print(f"plane x{i} = 0 ->", "[" + " : ".join(str(v) for v in point) + "]")

# At rational parameter values the two rulings are defined over the
# rationals and the involution swaps them, moving all 12 marked points.
for report in find_swap_specializations(0, tau):
    alpha = ", ".join(report.alpha)
    print(f"alpha ({alpha}) passes:", report.passed, "swaps:", report.swaps_checked)

# Conjugating the unit translation by a scaling x -> u*x shifts by 1/u,
# so the powers u = t^(2n) give the decaying shifts t^(-2n).  A Laurent
# coefficient is its term dict, exponent -> coefficient.
for u in ({1: 1}, {4: 1}):
    shift = dict(conjugate_translation(u).shift)
    print(f"conjugated shift (coefficient of a), u = {laurent_text(u)}:", laurent_text(shift))
