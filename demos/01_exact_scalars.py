"""
Exact scalars: polynomials, rational functions, Laurent series
===============================================================

Everything downstream runs on this tower.  No floats appear anywhere:
coefficients are fractions, and linear algebra is fraction-free.
"""

from fractions import Fraction

from autcert.scalars import (
    MultiPoly,
    RatFunc,
    laurent_text,
    matrix_rank_det,
    rational_sqrt,
)

# Multivariate polynomials are built by ring arithmetic from variables
# and print in graded lexicographic order.
x, y = MultiPoly.var("x"), MultiPoly.var("y")
p = x * x - 2 * x * y + y * y
q = x - y
print("p       =", p)
print("p / q   =", p.divide_rem(q)[0])

# Rational functions take a single-term denominator, reduced to lowest
# terms with a monic denominator: (t^3 - t) / (2 t^2) = (1/2 t^2 - 1/2) / t.
t = MultiPoly.var("t")
f = RatFunc(t * t * t - t, 2 * t * t)
print("f       =", f)

# Laurent polynomials in t carry negative exponents exactly.  One is held
# as its term dict, exponent -> coefficient, and written by laurent_text.
shift = {-4: 3, 0: Fraction(-1, 2)}
print("laurent =", laurent_text(shift))

# Square roots are exact: a rational root, or None when there is none.
print("sqrt 9/4 =", rational_sqrt(Fraction(9, 4)))

# Fraction-free determinants work over rationals and polynomials.
rows = [
    [MultiPoly.var("x"), MultiPoly.const(1)],
    [MultiPoly.const(1), MultiPoly.var("x")],
]
rank, det = matrix_rank_det(rows)
print("det      =", det, "rank", rank)
