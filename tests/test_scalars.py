"""Exactness, canonical forms, and linear algebra of the scalar tower."""

from fractions import Fraction

import pytest
from hypothesis import given, seed
import hypothesis.strategies as st

from autcert import scalars
from autcert.cremona import AffineMap, RationalMapP3, translate
from autcert.scalars import (
    MultiPoly,
    RatFunc,
    laurent_text,
    matrix_rank_det,
    poly_gcd,
    rational_sqrt,
)

from conftest import int_entries, int_matrix, naive_det, polys, small_fractions

x = MultiPoly.var("x")
y = MultiPoly.var("y")
z = MultiPoly.var("z")


# -- canonical form ------------------------------------------------------


def test_canonical_variable_order_and_pruning():
    p = MultiPoly(("b", "a"), {(1, 2): 3, (0, 0): 1})
    assert p.vars == ("a", "b")
    assert p.terms == {(2, 1): Fraction(3), (0, 0): Fraction(1)}
    # a variable with no occurrence is dropped entirely
    q = MultiPoly(("a", "b"), {(2, 0): 1})
    assert q.vars == ("a",)
    assert q.terms == {(2,): Fraction(1)}


def test_zero_coefficients_are_stripped():
    p = MultiPoly(("x",), {(1,): 1, (0,): 0})
    assert p.terms == {(1,): Fraction(1)}
    assert MultiPoly(("x",), {(3,): 0}) == MultiPoly.zero()
    assert not MultiPoly.zero()
    assert not MultiPoly.const(0)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(-1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(("x", "x"), {(1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(("3bad",), {(1,): 1})
    # a trailing newline is no part of a name
    with pytest.raises(ValueError, match="bad variable name"):
        MultiPoly(("x\n",), {(1,): 1})
    with pytest.raises(TypeError):
        MultiPoly(("x",), {(1,): 0.5})
    # the builders take the trusted path, and build what the constructor builds
    for built, general in [
        (MultiPoly.var("x"), MultiPoly(("x",), {(1,): 1})),
        (MultiPoly.const(Fraction(3)), MultiPoly((), {(): 3})),
        (MultiPoly.const(Fraction(1, 2)), MultiPoly((), {(): Fraction(1, 2)})),
        (MultiPoly.const(0), MultiPoly((), {(): 0})),
        (MultiPoly.zero(), MultiPoly((), {})),
    ]:
        assert built.vars == general.vars and built.terms == general.terms
        assert list(map(type, built.terms.values())) == list(map(type, general.terms.values()))
        assert hash(built) == hash(general)
    for name in ("3bad", "x\n", "", "x y", "é"):
        with pytest.raises(ValueError, match="bad variable name"):
            MultiPoly.var(name)
    for bad in (True, 1.0):
        with pytest.raises(TypeError):
            MultiPoly.const(bad)


def test_equality_across_construction_orders():
    p = x * y + 2
    q = 2 + y * x
    assert p == q
    assert hash(p) == hash(q)


# -- coefficient types ---------------------------------------------------

# drawn as int, as integral Fraction and as proper Fraction
mixed_coeffs = st.one_of(int_entries, small_fractions)
mixed_polys = polys(max_vars=2, max_deg=2, max_terms=3, coeffs=mixed_coeffs)
# Laurent term dicts, exponent -> coefficient, zero coefficients included
mixed_laurents = st.dictionaries(st.integers(-4, 4), mixed_coeffs, max_size=3)


def assert_int_or_proper(coefficients):
    for c in coefficients:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(p):
    """Each coefficient is an int or a Fraction with a denominator above 1,
    and the public constructor rebuilds the same value with the same hash."""
    assert_int_or_proper(p.terms.values())
    q = MultiPoly(p.vars, p.terms)
    assert q == p and hash(q) == hash(p)


def assert_canonical_map(m):
    """``assert_canonical`` for an affine map, rebuilt from its scale term and shift terms."""
    assert_int_or_proper(c for _, c in (m.scale, *m.shift))
    q = AffineMap(dict([m.scale]), dict(m.shift))
    assert q == m and hash(q) == hash(m)


def test_public_constructors_store_integral_coefficients_as_int():
    p = MultiPoly(("x",), {(1,): Fraction(4, 2), (0,): Fraction(1, 2)})
    assert type(p.terms[(1,)]) is int and type(p.terms[(0,)]) is Fraction
    assert type(x.leading_coefficient()) is int
    assert type(AffineMap({-2: Fraction(6, 3)}, {}).scale[1]) is int


@seed(20191015)
@given(mixed_polys, mixed_polys, mixed_coeffs)
def test_ring_results_keep_integral_coefficients_int(a, b, c):
    results = [
        a + b, a - b, a * b, a * a, a + c, -a + c, a * c,
        a.scale(c), a.substitute({"x": b, "y": c}),
    ]
    if b:
        results.extend(a.divide_rem(b))
    for r in results:
        assert_canonical(r)


@seed(20191016)
@given(mixed_laurents, mixed_laurents, st.integers(-3, 3), mixed_coeffs.filter(bool))
def test_laurent_and_affine_results_keep_integral_coefficients_int(a, b, k, c):
    sympy = pytest.importorskip("sympy")
    f = AffineMap({k: c}, a)
    g = AffineMap({-k: c}, b)
    for m in (f.inverse(), f.compose(g), f.inverse().compose(f)):
        assert_canonical_map(m)
    assert f.inverse().compose(f) == AffineMap({0: 1}, {})
    # sympy's expansion of the same maps in a symbol t is the oracle:
    # f(g(x)) for the composite, and f(f^-1(x)) = x for the inverse
    t, x, a_ = sympy.symbols("t x a")

    def laurent(terms):
        return sum((sympy.Rational(Fraction(c)) * t**e for e, c in terms), sympy.Integer(0))

    def image(m):
        return laurent([m.scale]) * x + laurent(m.shift) * a_

    assert sympy.expand(image(f.compose(g)) - image(f).xreplace({x: image(g)})) == 0
    assert sympy.expand(image(f).xreplace({x: image(f.inverse())}) - x) == 0


def test_divide_rem_quotients_stay_exact():
    q, r = (x + 1).divide_rem(2 * x)
    assert (q, r) == (MultiPoly.const(Fraction(1, 2)), MultiPoly.const(1))
    assert type(q.terms[()]) is Fraction and type(r.terms[()]) is int
    q, r = (4 * x + 2).divide_rem(2 * x)
    assert type(q.terms[()]) is int and type(r.terms[()]) is int


def test_inexact_coefficients_raise_on_every_construction_path():
    for bad in (0.5, 2.0, True):
        with pytest.raises(TypeError):
            MultiPoly._make(("x",), {(1,): bad})
    for bad in (0.5, 2.0, True):
        for build in (
            lambda: MultiPoly(("x",), {(1,): bad}),
            lambda: MultiPoly.const(bad),
            lambda: MultiPoly.monomial(("x",), (1,), bad),
            lambda: x.scale(bad),
            lambda: x * bad,
            lambda: AffineMap({1: bad}, {}),
            lambda: AffineMap({1: 1}, {0: bad}),
            lambda: translate({-2: bad}),
        ):
            with pytest.raises(TypeError):
                build()


# -- arithmetic ----------------------------------------------------------


def test_basic_arithmetic_examples():
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x + y) * (x + y) == x * x + 2 * x * y + y * y
    assert (x + y) - (y + x) == MultiPoly.zero()
    assert Fraction(1, 2) * x + Fraction(1, 2) * x == x
    assert x * 0 == MultiPoly.zero()


def test_leading_term_is_graded_lex():
    p = x * x + x * y * y + y
    assert p.leading() == ((1, 2), Fraction(1))  # x*y^2 beats x^2 by degree
    q = x * x + x * y
    assert q.leading() == ((2, 0), Fraction(1))  # same degree, lex on exponents


def test_degrees_and_homogeneity():
    p = x * x * y + z
    assert not p.is_homogeneous_in(["x", "y", "z"])
    q = x * x * y + x * y * z
    assert q.is_homogeneous_in(["x", "y", "z"])


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.const(1) == a
    assert a - a == MultiPoly.zero()
    assert a - b == a + (-b) and (a - b) + b == a


# -- division ------------------------------------------------------------


def test_divide_rem_examples():
    q, r = (x * x + 3 * x + 2).divide_rem(x + 1)
    assert (q, r) == (x + 2, MultiPoly.zero())
    q, r = (x * x + 1).divide_rem(x + 1)
    assert (q, r) == (x - 1, MultiPoly.const(2))
    # no term of x^2 + y is reducible by the leading monomial x*y
    q, r = (x * x + y).divide_rem(x * y)
    assert (q, r) == (MultiPoly.zero(), x * x + y)
    with pytest.raises(ZeroDivisionError):
        x.divide_rem(MultiPoly.zero())


def test_exact_div():
    assert (x * x - y * y).exact_div(x - y) == x + y
    assert (x * x * x - 1).exact_div(x - 1) == x * x + x + 1
    with pytest.raises(ArithmeticError, match="not exact"):
        (x * x + 1).exact_div(x + 1)


@given(polys(), polys())
def test_divide_rem_reconstructs(a, b):
    if not b:
        return
    q, r = a.divide_rem(b)
    assert q * b + r == a
    if r:
        # remainder is in normal form: no term divisible by lead(b)
        names, rm, bm = r._aligned(b)
        de = max(bm, key=lambda e: (sum(e), e))
        assert all(
            any(te < be for te, be in zip(e, de)) for e in rm
        )


# -- gcd -----------------------------------------------------------------


def test_gcd_frozen_examples():
    cases = [
        (2 * x, MultiPoly.const(4), MultiPoly.const(1)),
        (x * y, x, x),
        (MultiPoly.zero(), 3 * x, x),
        (MultiPoly.zero(), MultiPoly.zero(), MultiPoly.zero()),
        (x * y * z, x * z * z, x * z),
        (3 * x * x * y, x * y * y * y + x * x * x, x),
        (x * x + x * y, 5 * x * y * y, x),
        (x * x * z, MultiPoly.const(7), MultiPoly.const(1)),
    ]
    for a, b, g in cases:
        assert poly_gcd(a, b) == g


# at most one term: zero, a constant or a single term, the gcd's domain
single_terms = polys(max_vars=2, max_deg=2, max_terms=1)


@given(polys(max_vars=2, max_deg=2, max_terms=3), single_terms)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if not g:
        assert not a and not b
        return
    assert not a.divide_rem(g)[1]
    assert not b.divide_rem(g)[1]
    assert g.leading_coefficient() == 1


@given(polys(max_vars=2, max_deg=2, max_terms=2),
       single_terms,
       polys(max_vars=1, max_deg=2, max_terms=1))
def test_gcd_common_factor_is_recovered(a, b, c):
    if not c:
        return
    g = poly_gcd(a * c, b * c)
    if not a and not b:
        return
    expected = poly_gcd(a, b) * c.scale(Fraction(1) / c.leading_coefficient())
    assert g == expected


# -- substitution and evaluation ------------------------------------------


def test_substitute_examples():
    p = x * x
    assert p.substitute({"x": y + 1}) == y * y + 2 * y + 1
    assert (x + y).substitute({"x": 2}) == y + 2
    # untouched variables persist
    assert (x * y).substitute({"x": x}) == x * y


# -- rational functions ---------------------------------------------------


def test_ratfunc_reduction():
    assert RatFunc(x * x - x, x) == RatFunc(x - 1)
    g = RatFunc(1, 2 * x)
    assert g.den == x
    assert g.num == MultiPoly.const(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, MultiPoly.zero())


@given(polys(max_vars=1, max_terms=3), polys(max_vars=1, max_terms=1),
       polys(max_vars=1, max_terms=1))
def test_ratfunc_cancellation(a, b, c):
    if not b or not c:
        return
    assert RatFunc(a * c, b * c) == RatFunc(a, b)


def test_gcd_needs_a_single_term_or_zero_argument():
    # the general gcd is gone: two multi-term arguments are refused, and
    # so are a multi-term denominator and a non-monomial map component
    x1, x2, x3, x4 = (MultiPoly.var(f"x{k}") for k in range(1, 5))
    with pytest.raises(ValueError, match="single-term"):
        poly_gcd(x + 1, x - 1)
    with pytest.raises(ValueError, match="single term"):
        RatFunc(1, x + 1)
    with pytest.raises(ValueError, match="monomials"):
        RationalMapP3((x1 + x2, x2, x3, x4))


# -- square roots ------------------------------------------------------------


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None
    assert rational_sqrt(Fraction(49, 64)) == Fraction(7, 8)
    # a square numerator over a non-square denominator has no root
    assert rational_sqrt(Fraction(4, 3)) is None
    # a Fraction keeps the Fraction path, integral or not
    assert type(rational_sqrt(Fraction(4))) is Fraction


def test_rational_sqrt_of_an_int_is_an_int():
    for n in (0, 1, 4, 9, 144, (10**40 + 7) ** 2):
        root = rational_sqrt(n)
        assert type(root) is int and root * root == n and root >= 0
    for n in (2, 3, 8, 99, 10**40 + 7, -1, -4, -(10**40)):
        assert rational_sqrt(n) is None


# -- exact linear algebra -----------------------------------------------------


def test_det_frozen_examples():
    assert matrix_rank_det([[1, 2], [3, 4]]) == (2, Fraction(-2))
    assert matrix_rank_det([[2, 7, 6], [9, 5, 1], [4, 3, 8]]) == (3, Fraction(-360))
    assert type(matrix_rank_det([[5]])[1]) is Fraction
    assert matrix_rank_det([[Fraction(1, 2), 1], [Fraction(1, 3), 2]]) == (2, Fraction(2, 3))
    rank, det = matrix_rank_det([[x, MultiPoly.const(1)], [MultiPoly.const(1), x]])
    assert rank == 2 and det == x * x - 1
    rank, det = matrix_rank_det([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert rank == 2 and det == 0


def test_rank_of_rectangular():
    rank, det = matrix_rank_det([[1, 2, 3], [4, 5, 6]])
    assert rank == 2 and det is None


def test_det_of_empty_matrix_is_one():
    rank, det = matrix_rank_det([])
    assert rank == 0 and det == 1 and isinstance(det, Fraction)


def test_integer_division_is_checked():
    assert scalars._exact_quot(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        scalars._exact_quot(7, 2)


@given(int_matrix(3))
def test_det_matches_cofactor_oracle_3(m):
    rows = [[Fraction(v) for v in row] for row in m]
    _, det = matrix_rank_det(rows)
    assert det == naive_det(rows)


@given(int_matrix(4))
def test_det_matches_cofactor_oracle_4(m):
    rows = [[Fraction(v) for v in row] for row in m]
    _, det = matrix_rank_det(rows)
    assert det == naive_det(rows)


# -- canonical text ----------------------------------------------------------


def test_poly_str_examples():
    assert str(MultiPoly.zero()) == "0"
    assert str(x * x * y - Fraction(3, 2) * x + 1) == "x^2*y - 3/2*x + 1"
    assert str(-x + y) == "-x + y"
    assert str(MultiPoly.const(Fraction(-5, 3))) == "-5/3"


def test_laurent_str_examples():
    assert laurent_text({-2: 1, 1: -3}) == "-3*t + t^-2"
    assert laurent_text({}) == "0"
    assert laurent_text({-1: 1}) == "t^-1"


