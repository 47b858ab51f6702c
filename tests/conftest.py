"""Shared oracles and hypothesis strategies for the suite.

The determinant oracle is deliberately the slow textbook cofactor
expansion so that the fraction-free elimination in the package is
checked against an independent computation, not against itself.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import settings

from autcert.cremona import X_VARS
from autcert import fibration
from autcert.fibration import KodairaType
from autcert.lattice import dynkin_classify
from autcert.scalars import MultiPoly

settings.register_profile("suite", max_examples=100, deadline=None)
settings.load_profile("suite")


def naive_det(rows):
    """Cofactor-expansion determinant; exponential, fine for n <= 5."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * naive_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def gaussian_inverse(rows):
    """Exact inverse over the rationals by row reduction; None if singular."""
    n = len(rows)
    A = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if A[i][c]), None)
        if pivot is None:
            return None
        A[c], A[pivot] = A[pivot], A[c]
        pv = A[c][c]
        A[c] = [x / pv for x in A[c]]
        for i in range(n):
            if i != c and A[i][c]:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return [row[n:] for row in A]


def pairing(gram, v, w):
    """v^T G w, entry by entry: the reference the lattice tests pair vectors with."""
    return sum(a * sum(x * y for x, y in zip(row, w)) for a, row in zip(v, gram))


def adjacency_from_gram(gram):
    """Each node's neighbours: the other nodes its Gram row is nonzero at."""
    n = len(gram)
    return {i: {j for j in range(n) if j != i and gram[i][j]} for i in range(n)}


def gram_path_type(config, fiber):
    """The Kodaira type of a fiber read from a sub-Gram, entry by entry.

    The reference for ``classify_kodaira``'s reading off the validation's
    neighbour sets: all multiplicities one is I_n; otherwise minus the
    Gram of the components left after deleting the least-named one of
    multiplicity one goes to ``dynkin_classify``, which checks every
    entry.  None where that finds no type or there is no such component.
    Validation is looked up on the module, as ``classify_kodaira`` does,
    so a test that stands in for it reaches both.
    """
    if not fibration.validate_fiber(config, fiber).passed:
        raise ValueError("not a fiber candidate")
    comps = fiber.components
    nodes = sorted(comps)
    if all(m == 1 for m in comps.values()):
        return KodairaType("I", len(nodes))
    ones = [a for a in nodes if comps[a] == 1]
    if not ones:
        return None
    rest = [config.index(a) for a in nodes if a != ones[0]]
    root = dynkin_classify([[-config.gram[i][j] for j in rest] for i in rest])
    if root is None:
        return None
    if root.family == "D":
        return KodairaType("I*", root.rank - 4)
    return KodairaType({6: "IV*", 7: "III*", 8: "II*"}[root.rank])


def _tree_cartan(n, edges):
    G = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        G[i][j] = G[j][i] = -1
    return tuple(tuple(row) for row in G)


def cartan_A(n):
    """Cartan matrix of A_n: the chain 0, ..., n-1."""
    return _tree_cartan(n, [(i, i + 1) for i in range(n - 1)])


def cartan_D(n):
    """Cartan matrix of D_n: the chain 0, ..., n-2 with node n-1 joined to node n-3."""
    if n < 4:
        raise ValueError("D requires rank >= 4")
    return _tree_cartan(n, [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)])


def reflection_closure(cartan):
    """All roots of a simply laced system, in simple-root coordinates.

    Closes the simple roots under s_i(v) = v - <v, a_i>e_i; for a
    finite type the closure is the full (finite) root system.
    """
    n = len(cartan)
    roots = set()
    frontier = []
    for i in range(n):
        e = tuple(int(i == j) for j in range(n))
        for v in (e, tuple(-x for x in e)):
            roots.add(v)
            frontier.append(v)
    while frontier:
        v = frontier.pop()
        for i in range(n):
            coef = sum(cartan[i][j] * v[j] for j in range(n))
            w = list(v)
            w[i] -= coef
            w = tuple(w)
            if w not in roots:
                roots.add(w)
                frontier.append(w)
    return roots


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)

int_entries = st.integers(min_value=-6, max_value=6)


def int_matrix(n, m=None):
    m = n if m is None else m
    return st.lists(
        st.lists(int_entries, min_size=m, max_size=m), min_size=n, max_size=n
    )


@st.composite
def line_pairs(draw):
    """Vectors a, b, c, e of Z^4 for the lines span(a, b) and span(c, e) of P3.

    Each of b, c and e is drawn freely or, one time in three, as an
    integer combination of the vectors before it, where a third of the
    coefficients are 0: skew, meeting and coinciding lines all occur,
    and so do pairs that span only a point.
    """
    vectors: list[tuple[int, ...]] = []
    for _ in range(4):
        if vectors and draw(st.integers(0, 2)) == 0:
            coeffs = [draw(st.sampled_from((0, 0, 1, -1, 2, -3))) for _ in vectors]
            combined = (sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(4))
            vectors.append(tuple(combined))
        else:
            vectors.append(tuple(draw(int_entries) for _ in range(4)))
    return vectors


POLY_VARS = ("x", "y", "z")


@st.composite
def polys(draw, max_vars=2, max_deg=3, max_terms=4, coeffs=small_fractions):
    nv = draw(st.integers(min_value=0, max_value=max_vars))
    names = POLY_VARS[:nv]
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_deg)) for _ in range(nv)
        )
        terms[exps] = draw(coeffs)
    return MultiPoly(names, terms)


def twice_matrix(q):
    """2M for the symmetric M with x^T M x the quadric ``q``, as 16
    ``MultiPoly`` entries read off ``q.poly``: entry (i, j) is the
    coefficient of x_i*x_j off the diagonal and twice that of x_i^2 on
    it, a polynomial in the other variables.  The reference for
    ``QuadricForm.determinant``, which pairs the same cells as term dicts."""
    params = tuple(v for v in q.poly.vars if v not in X_VARS)
    m = len(params)
    cells = {}
    for e, c in q.poly._lift(params + X_VARS).items():
        x = e[m:]
        if 2 in x:
            i = j = x.index(2)
            c *= 2
        else:
            i = x.index(1)
            j = x.index(1, i + 1)
        cells.setdefault((i, j), {})[e[:m]] = c
    n = [[MultiPoly.zero()] * 4 for _ in range(4)]
    for (i, j), terms in cells.items():
        n[i][j] = n[j][i] = MultiPoly(params, terms)
    return tuple(map(tuple, n))


def shifts(max_k):
    """The generators of a K = max_k escape certificate: the term dicts of
    the shifts t^(-2n), n = 0..max_k, the pipeline reads off its conjugation."""
    return [{-2 * n: 1} for n in range(max_k + 1)]
