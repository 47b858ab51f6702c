"""A quadric-preserving Cremona involution of P3, verified exactly.

The map is the cleared-denominator form of the reciprocal involution
[a1/x1 : a2/x2 : a3/x3 : a1*a2*a3/x4], a monomial map of degree three
with three parameters.  The cremona stage checks, by exact polynomial
multiplication over Q[a1, a2, a3, x1..x4], that it preserves the quadric

    Q = a1*x2*x3 + a2*x1*x3 + a3*x1*x2 + (x1 + x2 + x3)*x4,

as q(map) = c*Q for c = a1*a2*a3*x1*x2*x3*x4, that its square is the
identity times c^2, and that each coordinate plane contracts to the
matching coordinate point.  For rational parameter values this module
then reconstructs the two rulings of the quadric through the coordinate
points, intersects them pairwise, and checks that the involution swaps
the intersection points p_ij and p_ji.  The ruling lines are rational
exactly when their discriminants are rational squares.  Over
Q(a1, a2, a3) each of the four tangent-plane discriminants is

    Delta = a1^2 + a2^2 + a3^2 - 2*(a1*a2 + a1*a3 + a2*a3)

times a nonzero square (1/a3^2, 1/a3^2, 1/a2^2 and 1 at e1..e4), and
the quadric's matrix has det M = Delta/16.  So the seeded search sends
an integer triple to the full check only when Delta is a positive
perfect square; every other triple fails that check.  The check itself
runs over ``int``: the form is the integer matrix 2*D*M, with D the lcm
of the parameters' denominators, whose zero diagonal lets a point's
value be summed over the six entries above it; the tangent bases, ruling
directions and meeting points are primitive integer vectors compared
projectively by cross-multiplication, each ruling line keeps one
Plücker vector, two lines meet where the side pairing of their vectors
vanishes, at a point read off 3x3 minors, and each discriminant is
reported divided by the square factor 4*D^2*c^4 that the integer basis
introduces.  The map is evaluated as one product per component over
the coordinates its exponent row names.  The search draws its
triples by ``getrandbits``, the stream ``randint(1, 12)`` would draw.

The generic checks work on the data the types hold.  Each component of
the map is read once into an exponent row over a1..a3, x1..x4; the rows
give the map's degree and common factor, and ``pullback`` composes the
map with a polynomial, one monomial per term, which gives q(map) and
map(map) for the cofactor checks.  The map and the quadric are
built once at import from their term dicts, and det M is det(2M)/16,
the side pairing of the row pairs of 2M, whose cells are term dicts over
the parameter names read straight off the quadric's polynomial.

Affine maps x -> s*x + c*a of the line live here too, on the Laurent
term dicts of a unit scale s = c*t^k and a shift c: enough to conjugate
a translation by a scaling x -> u*x, one conjugation over u = t giving
the conjugate by every power t^2n by the substitution u = t^2n.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

from .scalars import (
    Frozen,
    MultiPoly,
    _canonical,
    _term_product,
    rational_sqrt,
)

A_VARS = ("a1", "a2", "a3")
X_VARS = ("x1", "x2", "x3", "x4")
_NAMES = A_VARS + X_VARS  # sorted, the order of every exponent row here


def _row(*names: str) -> tuple[int, ...]:
    """The exponent row over a1..a3, x1..x4 of the product of the named variables."""
    return tuple(int(v in names) for v in _NAMES)


class RationalMapP3(Frozen):
    """Four monomials of a common degree in x1..x4, with no common factor,
    each also read once into an exponent row over a1..a3, x1..x4, which
    ``specialize`` and ``pullback`` work on."""

    __slots__ = ("components", "_rows")

    def __init__(self, components: tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]):
        comps = tuple(components)
        if len(comps) != 4:
            raise ValueError("a map of P3 has four components")
        if not all(c.is_homogeneous_in(X_VARS) for c in comps):
            raise ValueError("components must be homogeneous in x1..x4")
        # each component's first term, its only one once the monomial check
        # passes, as (exponent row, coefficient); zero is a zero row
        rows = []
        for c in comps:
            e, k = next(iter(c.terms.items()), ((), 0))
            exps = dict(zip(c.vars, e))
            rows.append((tuple(exps.get(v, 0) for v in _NAMES), k))
        if len({sum(row[3:]) for row, k in rows if k}) != 1:
            raise ValueError("components must share one degree")
        if any(len(c.terms) > 1 or not set(c.vars) <= set(_NAMES) for c in comps):
            raise ValueError("components must be monomials in x1..x4, a1..a3")
        # a variable in every nonzero component divides them all
        if any(all(row[i] for row, k in rows if k) for i in range(len(_NAMES))):
            raise ValueError("components share a polynomial factor")
        self._set(comps, tuple(rows))

    def pullback(self, p: MultiPoly) -> MultiPoly:
        """p with x1..x4 replaced by the components, for p in x1..x4, a1..a3.

        Each term of p goes to one monomial: its exponent row is the
        term's a-part plus each component's row times the term's exponent
        of that x, and its coefficient takes each component's coefficient
        to that power.  One ``MultiPoly`` is built at the end.
        """
        if not set(p.vars) <= set(_NAMES):
            raise ValueError("pullback takes a polynomial in x1..x4, a1..a3")
        out: dict[tuple, int | Fraction] = {}
        for e, c in p._lift(_NAMES).items():
            exps = e[:3] + (0,) * 4
            for (row, k), n in zip(self._rows, e[3:]):
                if n:
                    c *= k**n
                    exps = tuple(a + n * b for a, b in zip(exps, row))
            out[exps] = out.get(exps, 0) + c
        return MultiPoly._make(_NAMES, out)

    def specialize(self, alpha: Sequence | None, scale: int) -> Callable:
        """The map at fixed parameters, as an evaluator of points: each component's
        coefficient, a-part and ``scale`` to the a1..a3 degree it lacks are one constant,
        times the coordinates its x-exponents name, each index listed once per power."""
        if alpha is None and any(any(row[:3]) for row, _ in self._rows):
            raise ValueError("the components need values of a1..a3")
        a = (0, 0, 0) if alpha is None else alpha
        top = max(sum(row[:3]) for row, _ in self._rows)
        parts = [
            (
                math.prod(map(pow, a, row[:3]), start=k) * scale ** (top - sum(row[:3])),
                [i for i, e in enumerate(row[3:]) for _ in range(e)],
            )
            for row, k in self._rows
        ]

        def at(point):
            out = []
            for c, ix in parts:
                for i in ix:
                    c *= point[i]
                out.append(c)
            return tuple(out)

        return at


_CREMONA = RationalMapP3(
    tuple(
        MultiPoly._make(_NAMES, {_row(*n): 1})
        for n in (
            ("a1", "x2", "x3", "x4"),
            ("a2", "x1", "x3", "x4"),
            ("a3", "x1", "x2", "x4"),
            ("a1", "a2", "a3", "x1", "x2", "x3"),
        )
    )
)


def cremona_map() -> RationalMapP3:
    """The cleared form [a1*x2*x3*x4 : a2*x1*x3*x4 : a3*x1*x2*x4 : a1*a2*a3*x1*x2*x3],
    built once at import: the value is immutable."""
    return _CREMONA


class QuadricForm(Frozen):
    """A quadric in x1..x4 over the other variables, here the preserved family."""

    __slots__ = ("poly",)

    def __init__(self, poly: MultiPoly):
        xs = [k for k, v in enumerate(poly.vars) if v in X_VARS]
        if any(sum(e[k] for k in xs) != 2 for e in poly.terms):
            raise ValueError("a quadric form is homogeneous of degree 2 in x1..x4")
        self._set(poly)

    @staticmethod
    def standard() -> "QuadricForm":
        """a1*x2*x3 + a2*x1*x3 + a3*x1*x2 + (x1 + x2 + x3)*x4, from its six
        terms, built once at import: the value is immutable."""
        return _STANDARD

    def determinant(self) -> MultiPoly:
        """det M = det(2M)/16: the side pairing of the Plücker vectors of
        rows 0, 1 and rows 2, 3 of 2M, one ``_term_product`` per product.
        2M's cells are term dicts over the parameter names read off
        ``poly``: the coefficient of x_i*x_j off the diagonal, twice that
        of x_i^2 on it, and the empty dict where no term lands."""
        params = tuple(v for v in self.poly.vars if v not in X_VARS)
        m = len(params)
        n: list[list[dict]] = [[{} for _ in range(4)] for _ in range(4)]
        for e, c in self.poly._lift(params + X_VARS).items():
            x = e[m:]
            if 2 in x:
                i = j = x.index(2)
                c *= 2
            else:
                i = x.index(1)
                j = x.index(1, i + 1)
            n[i][j][e[:m]] = c
            n[j][i] = n[i][j]
        p, q = (
            [_pairing((1, a[i], b[j]), (-1, a[j], b[i])) for i, j in combinations(range(4), 2)]
            for a, b in (n[:2], n[2:])
        )
        det = _pairing(*zip((1, -1, 1, 1, -1, 1), p, reversed(q)))
        return MultiPoly._make(params, {e: Fraction(c, 16) for e, c in det.items()})


_STANDARD = QuadricForm(
    MultiPoly._make(
        _NAMES,
        {
            _row(*t): 1
            for t in (
                ("a1", "x2", "x3"), ("a2", "x1", "x3"), ("a3", "x1", "x2"),
                ("x1", "x4"), ("x2", "x4"), ("x3", "x4"),
            )
        },
    )
)


def _pairing(*signed) -> dict:
    """The sum of s*x*y over (s, x, y), x and y term dicts of one variable order."""
    out: dict = {}
    for s, x, y in signed:
        for e, c in _term_product(x, y).items():
            out[e] = out.get(e, 0) + s * c
    return out


def contraction_check(map_: RationalMapP3, i: int) -> tuple[int, ...]:
    """The 0/1 tuple of the components that survive on the plane {x_i = 0},
    which contracts to the coordinate point e_k when that tuple is e_k.

    Read off the exponents: a component, a monomial, survives on the
    plane exactly when it is nonzero and x_i is not among its variables.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("coordinate planes are numbered 1..4")
    return tuple(int(bool(c) and X_VARS[i - 1] not in c.vars) for c in map_.components)


# -- ruling swap at a rational specialization -----------------------------------------


class SwapReport(NamedTuple):
    alpha: tuple[str, str, str]
    passed: bool
    discriminants: tuple[str, ...] = ()
    swaps_checked: int = 0
    failures: tuple[str, ...] = ()


def _quad(m, v, w) -> int:
    (v0, v1, v2, v3), (w0, w1, w2, w3), (r0, r1, r2, r3) = v, w, m
    return (
        v0 * (r0[0] * w0 + r0[1] * w1 + r0[2] * w2 + r0[3] * w3)
        + v1 * (r1[0] * w0 + r1[1] * w1 + r1[2] * w2 + r1[3] * w3)
        + v2 * (r2[0] * w0 + r2[1] * w1 + r2[2] * w2 + r2[3] * w3)
        + v3 * (r3[0] * w0 + r3[1] * w1 + r3[2] * w2 + r3[3] * w3)
    )


def _form(m, v) -> int:
    """_quad(m, v, v) for a symmetric m with zero diagonal: twice the sum
    of m_ij*v_i*v_j over i < j, six products where the bilinear form takes 20."""
    v0, v1, v2, v3 = v
    r0, r1, r2 = m[0], m[1], m[2]
    return 2 * (
        v0 * (r0[1] * v1 + r0[2] * v2 + r0[3] * v3)
        + v1 * (r1[2] * v2 + r1[3] * v3)
        + v2 * r2[3] * v3
    )


def _primitive(v) -> tuple[int, ...]:
    """The integer 4-vector divided by the gcd of its entries; zero stays zero."""
    v0, v1, v2, v3 = v
    g = math.gcd(v0, v1, v2, v3)
    return (v0 // g, v1 // g, v2 // g, v3 // g) if g > 1 else (v0, v1, v2, v3)


# each i < j < k, then where (j, k), (i, k) and (i, j) sit in _plucker's output
_MINORS = ((0, 1, 2, 3, 1, 0), (0, 1, 3, 4, 2, 0), (0, 2, 3, 5, 2, 1), (1, 2, 3, 5, 4, 3))


def _plucker(a, b) -> tuple:
    """Plücker coordinates a_i*b_j - a_j*b_i, i < j, of span(a, b)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b1 - a1 * b0,
        a0 * b2 - a2 * b0,
        a0 * b3 - a3 * b0,
        a1 * b2 - a2 * b1,
        a1 * b3 - a3 * b1,
        a2 * b3 - a3 * b2,
    )


def _side(p, q) -> int:
    """The side pairing of Plücker vectors: det[a b c e] for p = a^b, q = c^e,
    the Laplace expansion by the 2x2 minors of the first two rows."""
    return p[0] * q[5] - p[1] * q[4] + p[2] * q[3] + p[3] * q[2] - p[4] * q[1] + p[5] * q[0]


def _line_meet(p, line):
    """(0, None) when span(a, b), with Plücker vector p = a^b, and
    span(c, e), given as line = (c, e, c^e), are skew in P3, (1, the
    primitive point) when they meet once, (2, None) when they are one
    line or a pair spans less.  They meet iff the side pairing of the
    Plücker vectors is 0.  The minor det_I(x, a, b) on coordinates I is
    a linear form in x vanishing on span(a, b), with entries of p as its
    coefficients; on the first I where it is not zero on span(c, e), its
    one zero there is the meeting point nu*c + rho*e, nu = det_I(e, a, b)
    and rho = -det_I(c, a, b), signed so that rho > 0, or nu > 0 when
    rho = 0.  No such I means a ^ b = 0 or c, e in span(a, b); a zero
    point means c ^ e = 0.
    """
    c, e, q = line
    if _side(p, q):
        return 0, None
    for i, j, k, jk, ik, ij in _MINORS:
        nu = e[i] * p[jk] - e[j] * p[ik] + e[k] * p[ij]
        rho = c[j] * p[ik] - c[i] * p[jk] - c[k] * p[ij]
        if nu or rho:
            if rho < 0 or (rho == 0 and nu < 0):
                nu, rho = -nu, -rho
            point = (
                nu * c[0] + rho * e[0], nu * c[1] + rho * e[1],
                nu * c[2] + rho * e[2], nu * c[3] + rho * e[3],
            )
            return (1, _primitive(point)) if any(point) else (2, None)
    return 2, None


# e1..e4: the ruling lines' base points, and where the coordinate planes contract
COORDINATE_POINTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
# for each row i, the three columns off the diagonal, in order
_OFF_DIAGONAL = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def verify_pij_swap(alpha: Sequence, tau: RationalMapP3) -> SwapReport:
    """Reconstruct the two rulings at a parameter specialization and
    confirm the involution exchanges p_ij with p_ji.

    The two lines of the quadric through each coordinate point e_i are
    cut out inside the tangent plane there; their discriminants must be
    rational squares.  The lines sort into the two rulings by
    disjointness from a reference line; the sort fails only as a
    clash, two lines through one point in one ruling.  p_ij
    is the intersection of the i-th line of one ruling with the j-th
    line of the other, and the specialized involution must send it to
    p_ji, projectively, for all twelve ordered pairs.

    The check runs over ``int`` with primitive projective points, on
    N = 2*D*M, whose diagonal is 0 and whose other entries are D or a
    nonzero parameter: v lies on the quadric when the six-product sum
    ``_form`` = 2*sum_{i<j} N[i][j]*v_i*v_j is 0.  Row i of N, with c
    its first column off the diagonal, gives the tangent basis
    W = N[i][c]*e_f - N[i][f]*e_c (f not c or i), whose integer
    discriminant B^2 - 4*A*C (A, C by ``_form``, B by ``_quad``) is
    reported divided by 4*D^2*N[i][c]^4: the one over the rational basis
    W/N[i][c].  Ruling directions are (-B +- r)*W1 + 2*A*W2, with r the
    ``int`` root of the discriminant.
    The map ``tau`` is specialized once per triple, over ``int`` at the
    D-scaled parameters, each component times the powers of D its degree
    in a1..a3 lacks: the same projective point.  No polynomial
    or term dict is built here.  A swap is cross-multiplied
    proportionality: the image and p_ji span no line, all Plücker
    coordinates 0.  Side pairings
    of the lines' Plücker vectors, one each, sort and check the rulings
    and give det N from its rows; ``_line_meet`` gives the 12 cross points.
    It passes when it records no failure, each one line of text such as
    "image of p12 vanishes": a meeting point without its partner has its own.
    """
    al = tuple(Fraction(a) for a in alpha)
    if len(al) != 3 or any(a == 0 for a in al):
        raise ValueError("three nonzero parameter values expected")
    alpha_str = tuple(str(a) for a in al)
    D = math.lcm(*(a.denominator for a in al))
    a1, a2, a3 = (a.numerator * (D // a.denominator) for a in al)
    m = ((0, a3, a2, D), (a3, 0, a1, D), (a2, a1, 0, D), (D, D, D, 0))
    if _side(_plucker(m[0], m[1]), _plucker(m[2], m[3])) == 0:
        return SwapReport(alpha_str, False, failures=("degenerate quadric: det = 0",))

    failures: list[str] = []
    lines: dict[tuple[int, int], tuple] = {}
    discs: list[str] = []
    for i, (c, f1, f2) in enumerate(_OFF_DIAGONAL):
        # every entry of m off the diagonal is D or a nonzero parameter
        row = m[i]
        w1 = [0, 0, 0, 0]
        w1[f1], w1[c] = row[c], -row[f1]
        w2 = [0, 0, 0, 0]
        w2[f2], w2[c] = row[c], -row[f2]
        A = _form(m, w1)
        C = _form(m, w2)
        B = 2 * _quad(m, w1, w2)
        disc = B * B - 4 * A * C
        den = 4 * D * D * row[c] ** 4
        g = math.gcd(disc, den)
        # the reduced disc/den, written as str(Fraction(disc, den)) writes it
        discs.append(str(disc // g) if g == den else f"{disc // g}/{den // g}")
        # disc is Delta times a nonzero square, and Delta = 0 returned above
        root = rational_sqrt(disc)
        if root is None:
            failures.append(f"irrational ruling at e{i + 1}: discriminant {discs[-1]}")
            continue
        # A is -2*a1*a2*a3 at e1..e3 and -2*D^2*a3 at e4, with the a_k
        # scaled by D, so it is never 0 and neither direction vanishes
        d1, d2 = (
            _primitive([(s * root - B) * x + 2 * A * y for x, y in zip(w1, w2)])
            for s in (1, -1)
        )
        off = [d for d in (d1, d2) if _form(m, d)]
        if off:
            failures.append(f"ruling at e{i + 1} off the quadric: direction {off[0]}")
            continue
        base = COORDINATE_POINTS[i]
        lines[(i + 1, 0)] = (base, d1, _plucker(base, d1))
        lines[(i + 1, 1)] = (base, d2, _plucker(base, d2))

    if failures:
        return SwapReport(alpha_str, False, tuple(discs), failures=tuple(failures))

    ruling_a: dict[int, tuple] = {}
    ruling_b: dict[int, tuple] = {}
    reference = lines[(1, 0)]
    for (i, _), line in lines.items():
        # no vector is 0, so a side pairing of 0 with another line is one point
        meets = line is not reference and not _side(reference[2], line[2])
        ruling = ruling_b if meets else ruling_a
        if i in ruling:
            failures.append(f"both lines at e{i} sort into one ruling")
        ruling[i] = line
    # eight lines, two through each point: when no point's two lines
    # clash, each ruling holds one line through each of the four points
    if failures:
        return SwapReport(alpha_str, False, tuple(discs), failures=tuple(failures))
    for fam in (ruling_a, ruling_b):
        for i in range(1, 5):
            for j in range(i + 1, 5):
                if not _side(fam[i][2], fam[j][2]):
                    failures.append(f"lines at e{i}, e{j} of one ruling meet")

    points: dict[tuple[int, int], tuple] = {}
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            dim, point = _line_meet(ruling_a[i][2], ruling_b[j])
            if dim != 1:
                how = "miss" if dim == 0 else "coincide"
                failures.append(f"no p{i}{j}: lines at e{i}, e{j} of two rulings {how}")
                continue
            if _form(m, point):
                failures.append(f"p{i}{j} = {point} is off the quadric")
                continue
            points[(i, j)] = point

    at = tau.specialize((a1, a2, a3), D)
    swaps = 0
    for (i, j), p in points.items():
        q = points.get((j, i))
        if q is None:
            continue
        image = at(p)
        if not any(image):
            failures.append(f"image of p{i}{j} vanishes")
            continue
        if not any(_plucker(image, q)):
            swaps += 1
        else:
            failures.append(f"p{i}{j} = {p} maps to {image}, not p{j}{i} = {q}")

    return SwapReport(alpha_str, not failures, tuple(discs), swaps, tuple(failures))


SWAP_DRAWS = 5000  # the triples the seeded search draws at most


def find_swap_specializations(seed: int, tau: RationalMapP3) -> list[SwapReport]:
    """Seeded search for three parameter triples with rational rulings.

    Draws up to ``SWAP_DRAWS`` = 5000 triples of integers in 1..12 and
    returns the reports of the first three distinct ones that pass the
    full swap verification, in draw order; deterministic for a fixed
    seed.  An exhausted search returns the fewer it found, which the
    pipeline's swap check reports as a fail.

    Each parameter is r + 1 for the first r = getrandbits(4) below 12:
    the stream of ``randint(1, 12)``, which reduces to
    ``_randbelow_with_getrandbits(12)`` on Python 3.10-3.12.

    A distinct triple reaches ``verify_pij_swap`` only when its integer
    Delta = a1^2 + a2^2 + a3^2 - 2*(a1*a2 + a1*a3 + a2*a3) is a positive
    perfect square.  Every tangent-plane discriminant is Delta times a
    nonzero rational square and det M = Delta/16, so a skipped triple is
    one the check rejects, as a degenerate quadric when Delta = 0 and
    for an irrational ruling otherwise: the screen changes no returned report.
    Every check uses the map ``tau``.
    """
    bits = random.Random(seed).getrandbits
    found: list[SwapReport] = []
    seen: set[tuple[int, int, int]] = set()
    for _ in range(SWAP_DRAWS):
        drawn: list[int] = []
        while len(drawn) < 3:
            r = bits(4)
            if r < 12:
                drawn.append(r + 1)
        triple = tuple(drawn)
        if triple in seen:
            continue
        seen.add(triple)
        a1, a2, a3 = triple
        delta = a1 * a1 + a2 * a2 + a3 * a3 - 2 * (a1 * a2 + a1 * a3 + a2 * a3)
        if delta <= 0 or math.isqrt(delta) ** 2 != delta:
            continue
        report = verify_pij_swap(triple, tau)
        if report.passed:
            found.append(report)
            if len(found) == 3:
                break
    return found


# -- affine maps of the line ------------------------------------------------------------


class AffineMap(Frozen):
    """The map x -> c*t^k*x + s*a over Q(t, a), which fixes infinity.

    It is built from two Laurent term dicts, each passed through
    ``_canonical``.  The scale must be a unit, the one term c*t^k, else
    ``ValueError``, so inverses and composites stay affine with Laurent
    coefficients.  The scale is held as its term (k, c) and the shift s
    as its terms in increasing exponent order, so a map is hashable.
    """

    __slots__ = ("scale", "shift")

    def __init__(self, scale: dict, shift: dict):
        if not isinstance(shift, dict):
            raise TypeError("the shift is a Laurent term dict")
        unit = _canonical(scale) if isinstance(scale, dict) else {}
        if len(unit) != 1:
            raise ValueError("the scale must be a unit c*t^k")
        (term,) = unit.items()
        self._set(term, tuple(sorted(_canonical(shift).items())))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other."""
        k, c = self.scale
        shift = dict(self.shift)
        for e, d in other.shift:
            shift[k + e] = shift.get(k + e, 0) + c * d
        return AffineMap({k + other.scale[0]: c * other.scale[1]}, shift)

    def inverse(self) -> "AffineMap":
        k, c = self.scale
        inv = Fraction(1) / c
        return AffineMap({-k: inv}, {e - k: -inv * d for e, d in self.shift})


def translate(c: dict) -> AffineMap:
    return AffineMap({0: 1}, c)


def scaling(s: dict) -> AffineMap:
    return AffineMap(s, {})


def conjugate_translation(u: dict) -> AffineMap:
    """scaling(u)^-1 . translate(1) . scaling(u), which should be the
    translation by u^-1; u must be a unit c*t^k, else ``ValueError``.

    The pipeline calls it once, with t standing for u, and reads the
    conjugate by each t^2n off that map by the substitution u = t^2n,
    e -> 2n*e on every term dict: a ring map Q[u^+-1] -> Q[t^+-1], so
    it commutes with composing and inverting affine maps.
    """
    s = scaling(u)
    return s.inverse().compose(translate({0: 1})).compose(s)
