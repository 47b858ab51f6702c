"""Differential checks of the exact kernels against sympy.

sympy is an independent implementation used here as an oracle only;
the package itself never imports it.  Inputs are drawn with fixed
hypothesis seeds, so every run checks the same cases.
"""

import math
import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume, example, given, seed, settings

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form

from autcert import fingen
from autcert.cremona import (
    A_VARS,
    X_VARS,
    QuadricForm,
    RationalMapP3,
    _line_meet,
    _plucker,
    _side,
    cremona_map,
    verify_pij_swap,
)
from autcert.lattice import SpanBasis, dynkin_classify, hnf, signature
from autcert.scalars import MultiPoly, matrix_rank_det, poly_gcd
from autcert.surface import (
    build_double_kummer,
    epsilon_involution,
    extend_with_conics,
    quotient_pushforward,
    verify_isometry,
    with_intersection,
)

from conftest import (
    POLY_VARS,
    int_entries,
    int_matrix,
    line_pairs,
    polys,
    reflection_closure,
    shifts,
    small_fractions,
    twice_matrix,
)

GENS = sympy.symbols(POLY_VARS)
oracle = settings(max_examples=40, deadline=None, database=None)


def rational(v):
    v = Fraction(v)
    return sympy.Rational(v.numerator, v.denominator)


def to_sympy(p: MultiPoly):
    gens = [sympy.Symbol(v) for v in p.vars]
    return sum(
        (
            rational(c)
            * sympy.Mul(*(g**e for g, e in zip(gens, exps)))
            for exps, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def same_up_to_scale(p: MultiPoly, q) -> bool:
    mine = sympy.Poly(to_sympy(p), *GENS)
    theirs = sympy.Poly(q, *GENS)
    if mine.is_zero or theirs.is_zero:
        return mine.is_zero and theirs.is_zero
    return mine.monic() == theirs.monic()


@st.composite
def single_terms(draw):
    nv = draw(st.integers(min_value=0, max_value=3))
    exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nv))
    coeff = draw(small_fractions.filter(bool))
    return MultiPoly(POLY_VARS[:nv], {exps: coeff})


# poly_gcd needs one argument that is zero or a single term
monomial_inputs = st.one_of(
    single_terms(),
    small_fractions.map(MultiPoly.const),
)
gcd_inputs = st.one_of(polys(max_vars=2, max_deg=2, max_terms=3), monomial_inputs)


@seed(20190401)
@oracle
@given(gcd_inputs, monomial_inputs, single_terms())
def test_poly_gcd_matches_sympy(a, b, c):
    for p, q in ((a, b), (a * c, b * c)):
        g = poly_gcd(p, q)
        assert same_up_to_scale(g, sympy.gcd(to_sympy(p), to_sympy(q)))
        assert not g or g.leading_coefficient() == 1


def matrices(entries):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=4).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


@pytest.mark.parametrize(
    "entries",
    [int_entries, st.one_of(int_entries, small_fractions), small_fractions],
    ids=["int", "mixed", "fraction"],
)
@seed(20190402)
@oracle
@given(data=st.data())
def test_matrix_rank_det_matches_sympy(entries, data):
    rows = data.draw(matrices(entries))
    rank, det = matrix_rank_det(rows)
    theirs = sympy.Matrix([[rational(v) for v in row] for row in rows])
    assert rank == theirs.rank()
    if len(rows) == len(rows[0]):
        assert isinstance(det, Fraction)
        assert det == theirs.det()
    else:
        assert det is None


@seed(20190404)
@oracle
@given(matrices(int_entries))
def test_hnf_row_span_matches_sympy(rows):
    # sympy's form is column-style and canonical: equal forms of the two
    # transposes mean that H and rows generate the same row lattice
    H, _ = hnf(rows)
    theirs = hermite_normal_form(sympy.Matrix(rows).T)
    assert hermite_normal_form(sympy.Matrix(H).T) == theirs
    assert sum(1 for row in H if any(row)) == theirs.shape[1]


@seed(20190407)
@oracle
@given(line_pairs())
# c on the first line, met at -c; and c, e spanning only a point
@example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0)])
@example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 2, 0)])
def test_line_meet_kernel_matches_sympy_nullspace(vectors):
    # span(a, b) and span(c, e) meet where lambda*a + mu*b = sigma*c + tau*e,
    # the kernel of [a b -c -e]; the point is signed so that tau > 0,
    # or sigma > 0 when tau = 0
    a, b, c, e = vectors
    theirs = sympy.Matrix([a, b, [-x for x in c], [-x for x in e]]).T.nullspace()
    expected = (0, None) if not theirs else (2, None)
    if len(theirs) == 1:
        lam, mu, sigma, tau = theirs[0]
        point = [lam * x + mu * y for x, y in zip(a, b)]
        if any(point):
            sign = sympy.sign(tau) if tau else sympy.sign(sigma)
            scale = sign * sympy.ilcm(*(sympy.fraction(x)[1] for x in point))
            ints = [int(x * scale) for x in point]
            g = math.gcd(*ints)
            expected = (1, tuple(x // g for x in ints))
    assert _line_meet(_plucker(a, b), (c, e, _plucker(c, e))) == expected


@seed(20190412)
@oracle
@given(st.one_of(line_pairs(), int_matrix(4)))
def test_plucker_pairing_of_row_pairs_is_the_determinant(rows):
    # the Laplace expansion of det by the 2x2 minors of rows (0, 1) and (2, 3)
    pairing = _side(_plucker(rows[0], rows[1]), _plucker(rows[2], rows[3]))
    assert pairing == sympy.Matrix(rows).det()


def test_quadric_determinant_matches_sympy():
    q = QuadricForm.standard()
    twice = sympy.Matrix([[to_sympy(x) for x in row] for row in twice_matrix(q)])
    theirs = (twice / 2).det()
    assert sympy.expand(to_sympy(q.determinant()) - theirs) == 0


def test_general_quadric_matrix_and_determinant_match_sympy():
    # 2M is the Hessian of the form in x1..x4, and det M = det(2M)/16
    x1, x2, x3, x4 = map(MultiPoly.var, X_VARS)
    a1, a2, a3 = map(MultiPoly.var, A_VARS)
    p = (
        3 * x1 * x1
        + a1 * x1 * x2
        - 2 * a2 * x2 * x4
        + Fraction(1, 2) * x3 * x3
        + a3 * a3 * x3 * x4
        + (a1 + 1) * x4 * x4
        + x2 * x3
    )
    q = QuadricForm(p)
    hessian = sympy.hessian(to_sympy(p), sympy.symbols(X_VARS))
    twice = sympy.Matrix([[to_sympy(e) for e in row] for row in twice_matrix(q)])
    assert (twice - hessian).expand() == sympy.zeros(4, 4)
    assert sympy.expand(to_sympy(q.determinant()) - hessian.det() / 16) == 0


def _parameter_free_map() -> RationalMapP3:
    """x1^3, -2*x1*x2*x3, x2^2*x4/2, x4^3: exponents above 1, a negative
    and a fractional coefficient, no parameter."""
    x1, x2, x3, x4 = map(MultiPoly.var, X_VARS)
    return RationalMapP3(
        (
            x1 * x1 * x1,
            (x1 * x2 * x3).scale(-2),
            (x2 * x2 * x4).scale(Fraction(1, 2)),
            x4 * x4 * x4,
        )
    )


@seed(20190419)
@oracle
@given(st.tuples(*[int_entries] * 4), st.tuples(*[int_entries] * 3))
def test_map_apply_matches_sympy_evaluation(point, alpha):
    # each component read as a sympy monomial and evaluated by subs
    for tau in (cremona_map(), _parameter_free_map()):
        values = {sympy.Symbol(v): c for v, c in zip(X_VARS + A_VARS, point + alpha)}
        theirs = tuple(to_sympy(c).subs(values) for c in tau.components)
        assert tau.specialize(alpha, 1)(point) == theirs
        # at 3*alpha with scale 3, each component gains 3 to the top a-degree
        a_syms = sympy.symbols(A_VARS)
        top = max(sum(sympy.degree(to_sympy(c), a) for a in a_syms) for c in tau.components)
        scaled = tuple(3 * a for a in alpha)
        assert tau.specialize(scaled, 3)(point) == tuple(3**top * v for v in theirs)
        if not any(set(c.vars) & set(A_VARS) for c in tau.components):
            assert tau.specialize((0, 0, 0), 1)(point) == theirs


nonzero_coeffs = st.one_of(int_entries.filter(bool), small_fractions.filter(bool))


@st.composite
def monomial_maps(draw):
    """Four monomials with one x-degree, nonzero coefficients and no common factor."""
    degree = draw(st.integers(0, 3))
    rows = []
    for _ in range(4):
        xs = draw(st.lists(st.integers(0, 3), min_size=degree, max_size=degree))
        row = tuple(draw(st.integers(0, 2)) for _ in A_VARS) + tuple(map(xs.count, range(4)))
        rows.append(row)
    assume(not any(all(col) for col in zip(*rows)))
    names = A_VARS + X_VARS
    return RationalMapP3(tuple(MultiPoly(names, {row: draw(nonzero_coeffs)}) for row in rows))


@st.composite
def polys_in_x_and_a(draw):
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 7), small_fractions, max_size=4))
    return MultiPoly(A_VARS + X_VARS, terms)


@seed(20190420)
@oracle
@given(monomial_maps(), polys_in_x_and_a())
def test_pullback_matches_substitute_and_sympy(tau, p):
    # the composition on exponent rows against the general substitution
    # and against sympy's simultaneous subs
    got = tau.pullback(p)
    assert got == p.substitute(dict(zip(X_VARS, tau.components)))
    values = {sympy.Symbol(v): to_sympy(c) for v, c in zip(X_VARS, tau.components)}
    theirs = sympy.expand(to_sympy(p).subs(values, simultaneous=True))
    assert sympy.expand(to_sympy(got) - theirs) == 0


substituted_values = st.one_of(
    polys(max_vars=3, max_deg=2, max_terms=3),
    small_fractions,
    st.just(0),
)


@seed(20190408)
@oracle
@given(
    polys(max_vars=3, max_deg=3, max_terms=4),
    st.dictionaries(st.sampled_from(POLY_VARS), substituted_values),
)
def test_substitute_matches_sympy(p, assignment):
    # a simultaneous substitution of polynomial, constant and zero values
    values = {
        sympy.Symbol(v): to_sympy(c) if isinstance(c, MultiPoly) else rational(c)
        for v, c in assignment.items()
    }
    theirs = sympy.expand(to_sympy(p).subs(values, simultaneous=True))
    assert sympy.expand(to_sympy(p.substitute(assignment)) - theirs) == 0


@st.composite
def spanning_polys(draw, names):
    """A polynomial in which each of names occurs."""
    terms = {
        tuple(draw(st.integers(0, 2)) for _ in names): draw(small_fractions)
        for _ in range(draw(st.integers(0, 3)))
    }
    terms[(1,) * len(names)] = draw(small_fractions.filter(bool))
    return MultiPoly(names, terms)


@st.composite
def operand_pairs(draw):
    """Operands of + and *, either way round, that reach each short cut:
    a zero or a constant operand, the same variables, disjoint variables."""
    shape = draw(st.sampled_from(("zero", "constant", "same", "disjoint")))
    k = draw(st.integers(1, 2))
    if shape == "zero":
        a, b = draw(polys(max_vars=3)), MultiPoly.zero()
    elif shape == "constant":
        a, b = draw(polys(max_vars=3)), MultiPoly.const(draw(small_fractions.filter(bool)))
    elif shape == "same":
        names = POLY_VARS[: k + draw(st.integers(0, 1))]
        a, b = draw(spanning_polys(names)), draw(spanning_polys(names))
    else:
        a, b = draw(spanning_polys(POLY_VARS[:k])), draw(spanning_polys(POLY_VARS[k:]))
    return (b, a) if draw(st.booleans()) else (a, b)


def is_canonical(p: MultiPoly) -> bool:
    """Every variable occurs and every coefficient is a nonzero int or a non-integral Fraction."""
    used = all(any(e[i] for e in p.terms) for i in range(len(p.vars)))
    kinds = all(
        c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator != 1))
        for c in p.terms.values()
    )
    return used and kinds and p.vars == tuple(sorted(p.vars))


X, Y = MultiPoly.var("x"), MultiPoly.var("y")


@seed(20190415)
@oracle
@given(operand_pairs())
@example((X, MultiPoly.zero()))
@example((MultiPoly.zero(), X * Y))
@example((X * Y + 1, MultiPoly.const(-1)))
@example((MultiPoly.const(Fraction(1, 2)), MultiPoly.const(Fraction(3, 2))))
@example((X * Y + X, X * Y - X))
@example((X + 1, Y * MultiPoly.var("z")))
def test_ring_operations_match_sympy_on_every_short_cut(pair):
    a, b = pair
    sa, sb = to_sympy(a), to_sympy(b)
    for got, theirs in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)):
        assert sympy.expand(to_sympy(got) - theirs) == 0
        assert is_canonical(got)


int_polys = polys(max_vars=3, max_deg=2, max_terms=4, coeffs=int_entries)


def all_int(p: MultiPoly) -> bool:
    return all(type(c) is int for c in p.terms.values())


@seed(20190411)
@oracle
@given(
    int_polys,
    int_polys,
    st.dictionaries(st.sampled_from(POLY_VARS), st.one_of(int_polys, int_entries)),
)
def test_integer_product_and_substitute_match_sympy_expand(a, b, assignment):
    # integer inputs stay on int: no Fraction enters either result
    product = a * b
    assert all_int(product)
    assert sympy.expand(to_sympy(product) - sympy.expand(to_sympy(a) * to_sympy(b))) == 0
    values = {
        sympy.Symbol(v): to_sympy(c) if isinstance(c, MultiPoly) else sympy.Integer(c)
        for v, c in assignment.items()
    }
    substituted = a.substitute(assignment)
    assert all_int(substituted)
    theirs = sympy.expand(to_sympy(a).subs(values, simultaneous=True))
    assert sympy.expand(to_sympy(substituted) - theirs) == 0


def test_nonfg_basis_is_integral(monkeypatch):
    built = []

    class Recorded(SpanBasis):
        def __init__(self, vectors=()):
            super().__init__(vectors)
            built.append(self)

    monkeypatch.setattr(fingen, "SpanBasis", Recorded)
    assert fingen.certify_nonfg(shifts(20))[0] is None
    (basis,) = built
    assert len(basis.generators) == 21
    entries = [c for g in basis.generators for c in g.values()]
    entries += [c for row, combo in basis.rows.values() for c in (*row.values(), *combo.values())]
    assert entries and all(type(c) is int for c in entries)


@st.composite
def grown_rows(draw):
    """Rows of one width, each either fresh or an integer combination of earlier ones."""
    width = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if rows and draw(st.booleans()):
            coeffs = [draw(st.integers(min_value=-3, max_value=3)) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)])
        else:
            rows.append([draw(int_entries) for _ in range(width)])
    return rows


@seed(20190406)
@oracle
@given(grown_rows(), st.integers(min_value=2, max_value=6), st.data())
def test_span_basis_matches_sympy_at_every_insertion(rows, d, data):
    width = len(rows[0])
    queries = data.draw(
        st.lists(st.lists(int_entries, min_size=width, max_size=width), max_size=3)
    )
    whole, scaled = SpanBasis(), SpanBasis()
    for n in range(1, len(rows) + 1):
        whole.insert(dict(enumerate(rows[n - 1])))
        scaled.insert({j: Fraction(v, d) for j, v in enumerate(rows[n - 1])})
        # the basis spans the same row lattice as the rows so far
        theirs = hermite_normal_form(sympy.Matrix(rows[:n]).T)
        basis = [whole.rows[p] for p in sorted(whole.rows)]
        dense = [[row.get(j, 0) for j in range(width)] for row, _ in basis]
        assert len(dense) == theirs.shape[1]
        if dense:
            H, _ = hnf(dense)
            assert hermite_normal_form(sympy.Matrix(H).T) == theirs
        # each row is its recorded combination of the inserted rows
        for row, combo in basis:
            rebuilt = [sum(c * rows[i][j] for i, c in combo.items()) for j in range(width)]
            assert {j: x for j, x in enumerate(rebuilt) if x} == row
        # the Fraction copy, scaled by 1/d, answers every solve the same way,
        # and a target is solvable exactly when adjoining it keeps sympy's form
        for t in queries + rows[:n]:
            witness = whole.solve(dict(enumerate(t)))
            assert scaled.solve({j: Fraction(v, d) for j, v in enumerate(t)}) == witness
            inside = hermite_normal_form(sympy.Matrix(rows[:n] + [t]).T) == theirs
            assert (witness is not None) == inside
            if witness is not None:
                assert [sum(c * rows[i][j] for i, c in witness.items()) for j in range(width)] == t


divisors = polys(max_vars=2, max_deg=2, max_terms=3).filter(bool)


@seed(20190405)
@oracle
@given(polys(max_vars=2, max_deg=2, max_terms=3), divisors)
def test_exact_div_matches_sympy(a, b):
    for dividend in (a * b, a):
        q, r = sympy.div(to_sympy(dividend), to_sympy(b), *GENS, domain="QQ")
        if r == 0:
            mine = dividend.exact_div(b)
            assert sympy.Poly(to_sympy(mine), *GENS) == sympy.Poly(q, *GENS)
        else:
            with pytest.raises(ArithmeticError):
                dividend.exact_div(b)


def sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def descartes_signature(G) -> tuple[int, int, int]:
    # a symmetric matrix has only real eigenvalues, so Descartes' rule of
    # signs counts the positive and the negative ones exactly
    lam = sympy.Symbol("lam")
    chi = sympy.Matrix(G).charpoly(lam)
    coeffs = chi.all_coeffs()
    zero = len(coeffs) - 1 - max(k for k, c in enumerate(coeffs) if c != 0)
    negated = sympy.Poly(chi.as_expr().subs(lam, -lam), lam).all_coeffs()
    return sign_changes(coeffs), sign_changes(negated), zero


@st.composite
def simple_graphs(draw):
    """Cartan matrix of a simple graph on 1 to 9 nodes.

    A random tree with up to two node pairs toggled, under a random
    node order.  Each node hangs off one of the three before it, which
    keeps long arms and so the Dynkin diagrams common; the toggles add
    cycles or cut the graph in two.
    """
    n = draw(st.integers(min_value=1, max_value=9))
    edges = {
        (k - 1 - draw(st.integers(min_value=0, max_value=min(k - 1, 2))), k)
        for k in range(1, n)
    }
    if n > 1:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            pair = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=2))
            edges ^= {tuple(sorted(pair))}
    order = draw(st.permutations(range(n)))
    G = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        G[order[i]][order[j]] = G[order[j]][order[i]] = -1
    return G


ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
}


# this seed's 200 draws include every A_n, D_n and E_n on up to 9 nodes
@seed(20190414)
@settings(max_examples=200, deadline=None, database=None)
@given(simple_graphs())
def test_dynkin_classify_matches_sympy_definiteness(G):
    # a graph is connected exactly when its Laplacian has corank one
    n = len(G)
    laplacian = sympy.Matrix(n, n, lambda i, j: G[i].count(-1) if i == j else G[i][j])
    finite = laplacian.rank() == n - 1 and sympy.Matrix(G).is_positive_definite
    found = dynkin_classify(G)
    assert (found is not None) == finite
    if found is not None:
        assert len(reflection_closure(G)) == ROOT_COUNTS[found.family](found.rank)


@st.composite
def symmetric_int_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            G[i][j] = G[j][i] = draw(int_entries)
    return G


@seed(20190403)
@oracle
@given(symmetric_int_matrices())
def test_signature_matches_descartes_rule_on_charpoly(G):
    assert signature(G) == descartes_signature(G)


def test_signature_matches_descartes_rule_on_the_construction_forms():
    # the 14-class form, and the 28-curve form with its leading 24-curve
    # block, unfaulted and with each of six seeded pairs zeroed
    x = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(x)
    z = quotient_pushforward(x, eps, verify_isometry(x, eps))
    assert signature(z.gram) == descartes_signature(z.gram)
    n = len(x.labels)
    pairs = [(x.labels[i], x.labels[j]) for i in range(n) for j in range(i) if x.gram[i][j]]
    for pair in [None] + random.Random(39).sample(pairs, 6):
        faulted = x if pair is None else with_intersection(x, *pair, 0)
        G = faulted.gram
        leading = [row[:24] for row in G[:24]]
        assert signature(G, leading=24) == (
            descartes_signature(leading),
            descartes_signature(G),
        ), pair


@st.composite
def zero_diagonal_matrices(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = draw(st.integers(min_value=-3, max_value=3))
    return G


@st.composite
def low_rank_matrices(draw, max_n=8):
    # B * diag(d) * B^T with B of size n x r, so the rank is at most r
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.integers(min_value=0, max_value=n))
    B = [[draw(st.integers(min_value=-2, max_value=2)) for _ in range(r)] for _ in range(n)]
    d = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(r)]
    return [[sum(B[i][k] * d[k] * B[j][k] for k in range(r)) for j in range(n)] for i in range(n)]


@st.composite
def block_sums(draw):
    # a low-rank block in front leaves a zero block of columns that
    # elimination must skip before the pivots of the second block
    A = draw(low_rank_matrices(max_n=4))
    B = draw(zero_diagonal_matrices(max_n=4))
    n, m = len(A), len(B)
    return [row + [0] * m for row in A] + [[0] * n + row for row in B]


@st.composite
def sparse_graph_matrices(draw):
    # a weighted graph of degree at most 3 on up to 10 nodes, so at most
    # 4 nonzeros a row: the pivot of fewest neighbours is a real choice,
    # and an all-zero diagonal sends signature to its pair-breaking step
    n = draw(st.integers(min_value=1, max_value=10))
    zero_diagonal = draw(st.booleans())
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = 0 if zero_diagonal else draw(st.integers(min_value=-2, max_value=2))
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        degrees = [sum(1 for k, x in enumerate(G[v]) if x and k != v) for v in (i, j)]
        if i != j and not G[i][j] and max(degrees) < 3:
            G[i][j] = G[j][i] = draw(st.sampled_from([-2, -1, 1, 2]))
    return G


def graph_matrix(edges, diagonal):
    G = [[0] * len(diagonal) for _ in diagonal]
    for i, x in enumerate(diagonal):
        G[i][i] = x
    for i, j in edges:
        G[i][j] = G[j][i] = 1
    return G


PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] + [
    (5 + i, 5 + (i + 2) % 5) for i in range(5)
]


# zero diagonals reach signature's pair-breaking step, and low-rank
# blocks the pivot columns that Bareiss skips
singular_symmetric_matrices = st.one_of(
    zero_diagonal_matrices(), low_rank_matrices(), block_sums()
)


@seed(20190409)
@oracle
@given(st.one_of(singular_symmetric_matrices, sparse_graph_matrices()))
# the Petersen graph breaks a pair at once; on part of it the first
# pivot is node 5, of one neighbour, not node 0, of three
@example(graph_matrix(PETERSEN, [0] * 10))
@example(graph_matrix(PETERSEN[:9], [-2, 0, 1, -2, 0, 2, -1, 0, -2, 0]))
# a pair-break whose new diagonal entry must be twice the pair's entry
@example(
    [
        [0, 0, 0, 0, -2, 0],
        [0, 0, 1, 0, -2, 3],
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [-2, -2, 0, 0, 0, 4],
        [0, 3, 0, 0, 4, 0],
    ]
)
def test_signature_matches_descartes_rule_on_singular_matrices(G):
    assert signature(G) == descartes_signature(G)


@seed(20190410)
@oracle
@given(singular_symmetric_matrices)
def test_int_matrix_rank_det_matches_sympy_on_singular_matrices(G):
    rank, det = matrix_rank_det(G)
    theirs = sympy.Matrix(G)
    assert rank == theirs.rank()
    assert isinstance(det, Fraction) and det == theirs.det()


def test_swap_discriminants_are_delta_times_squares():
    # the identity behind the swap search's screen: det M = Delta/16, and
    # the tangent-plane discriminant at e_i, over the plane's basis that
    # verify_pij_swap takes, is Delta times a nonzero square
    a1, a2, a3 = a = sympy.symbols(A_VARS)
    delta = a1**2 + a2**2 + a3**2 - 2 * (a1 * a2 + a1 * a3 + a2 * a3)
    twice = twice_matrix(QuadricForm.standard())
    M = sympy.Matrix([[to_sympy(e) for e in row] for row in twice]) / 2
    assert sympy.expand(M.det() - delta / 16) == 0
    discs = []
    for i in range(4):
        w1, w2 = [v for v in sympy.Matrix([M.row(i)]).nullspace() if v[i] == 0]
        A, B, C = (w1.T * M * w1)[0], 2 * (w1.T * M * w2)[0], (w2.T * M * w2)[0]
        discs.append(B**2 - 4 * A * C)
    squares = [sympy.cancel(d / delta) for d in discs]
    assert squares == [1 / a3**2, 1 / a3**2, 1 / a2**2, 1]
    # the same discriminants as the exact check reports at a point
    point = dict(zip(a, (9, 2, 2)))
    assert verify_pij_swap((9, 2, 2), cremona_map()).discriminants == tuple(
        str(d.subs(point)) for d in discs
    )
