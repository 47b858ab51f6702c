"""Tests for the Cremona involution and the affine maps of the line."""

import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import given
from hypothesis import seed as fixed_seed

from autcert import cremona, pipeline
from autcert.cremona import (
    A_VARS,
    X_VARS,
    AffineMap,
    QuadricForm,
    RationalMapP3,
    conjugate_translation,
    contraction_check,
    cremona_map,
    find_swap_specializations,
    scaling,
    translate,
    verify_pij_swap,
)
from autcert.scalars import (
    MultiPoly,
    matrix_rank_det,
    rational_sqrt,
)

from conftest import line_pairs, twice_matrix

COFACTOR = math.prod(map(MultiPoly.var, ("a1", "a2", "a3", "x1", "x2", "x3", "x4")))


def linear_map(*names: str) -> RationalMapP3:
    """The linear map of P3 with the given coordinate variables as components."""
    return RationalMapP3(tuple(MultiPoly.var(x) for x in names))


T = {1: 1}  # the Laurent term dict of t
TAU = cremona_map()


def shapes(report) -> set[str]:
    """The report's failure texts with every number, a/b included, written #."""
    return {re.sub(r"-?\d+(/\d+)?", "#", f) for f in report.failures}


def quadric_matrix():
    """The symmetric matrix M of the standard quadric, half of ``twice_matrix``."""
    twice = twice_matrix(QuadricForm.standard())
    return [[x.scale(Fraction(1, 2)) for x in row] for row in twice]


# -- the involution, generically over the parameters -----------------------------------


def test_preserves_quadric_cofactor():
    q = QuadricForm.standard().poly
    assert cremona_map().pullback(q) == COFACTOR * q


def test_involution_cofactor_is_square_of_quadric_cofactor():
    tau = cremona_map()
    for comp, x in zip(tau.components, X_VARS):
        assert tau.pullback(comp) == COFACTOR * COFACTOR * MultiPoly.var(x)


def test_identity_involution():
    identity = linear_map("x1", "x2", "x3", "x4")
    assert [identity.pullback(c) for c in identity.components] == list(identity.components)


def test_cyclic_shift_is_not_an_involution():
    # its square is the shift by two, no multiple of the identity
    shift = linear_map("x2", "x3", "x4", "x1")
    square = [shift.pullback(c) for c in shift.components]
    assert square == [MultiPoly.var(x) for x in ("x3", "x4", "x1", "x2")]


def test_contraction_of_all_four_planes():
    tau = cremona_map()
    for i in range(1, 5):
        assert contraction_check(tau, i) == tuple(int(k == i - 1) for k in range(4))
    with pytest.raises(ValueError):
        contraction_check(tau, 5)


def test_coordinate_swap_breaks_the_quadric():
    # exchanging x1 and x2 exchanges a1 and a2 in q: no multiple of q
    q = QuadricForm.standard().poly
    swapped = linear_map("x2", "x1", "x3", "x4").pullback(q)
    assert swapped == q.substitute({"a1": MultiPoly.var("a2"), "a2": MultiPoly.var("a1")})
    assert swapped != q and swapped != COFACTOR * q


def test_swap_does_not_contract():
    # three components survive on x1 = 0: the plane maps onto a plane
    assert contraction_check(linear_map("x2", "x1", "x3", "x4"), 1) == (1, 0, 1, 1)


def test_contraction_check_reads_exponents(monkeypatch):
    calls = []
    substitute = MultiPoly.substitute

    def counting(self, assignment):
        calls.append(assignment)
        return substitute(self, assignment)

    monkeypatch.setattr(MultiPoly, "substitute", counting)
    tau = cremona_map()
    for i in range(1, 5):
        contraction_check(tau, i)
    assert calls == []


def test_cremona_stage_composes_on_exponent_rows(monkeypatch):
    # q(tau) and tau(tau) come from pullback, never from substitute
    def refuse(self, assignment):
        raise AssertionError("substitute entered")

    monkeypatch.setattr(MultiPoly, "substitute", refuse)
    assert pipeline.run_stage("cremona").status == "pass"


def test_pullback_of_a_zero_component_and_of_a_foreign_variable():
    x1, x2, x3, x4 = (MultiPoly.var(f"x{k}") for k in range(1, 5))
    a1 = MultiPoly.var("a1")
    tau = RationalMapP3((MultiPoly.zero(), x2 * x3, a1 * x1 * x3, x1 * x2))
    # a term with x1 goes to 0; x2*x4 goes to x2*x3*x1*x2
    assert tau.pullback(3 * x1 * x2 + a1 * x2 * x4) == a1 * x1 * x2 * x2 * x3
    assert tau.pullback(MultiPoly.const(Fraction(1, 2))) == Fraction(1, 2)
    with pytest.raises(ValueError, match="x1..x4, a1..a3"):
        tau.pullback(x1 * MultiPoly.var("b"))


def test_specialize_multiplies_each_coordinate_as_often_as_its_exponent():
    x1, x2, x3, x4 = (MultiPoly.var(f"x{k}") for k in range(1, 5))
    a1 = MultiPoly.var("a1")
    point = (5, -6, 7, 2)
    # a zero component, a squared coordinate and a parameter
    tau = RationalMapP3((MultiPoly.zero(), x2 * x3, a1 * x1 * x3, x4 * x4.scale(-3)))
    assert tau.specialize((10, 1, 1), 2)(point) == (0, 2 * -6 * 7, 10 * 5 * 7, 2 * -3 * 2 * 2)
    # degree one and degree zero: one coordinate each, or none
    linear = RationalMapP3((x1, MultiPoly.zero(), x3.scale(4), x2))
    assert linear.specialize((0, 0, 0), 1)(point) == (5, 0, 28, -6)
    constant = RationalMapP3(tuple(MultiPoly.const(k) for k in (1, 0, -2, 3)))
    assert constant.specialize((0, 0, 0), 1)(point) == (1, 0, -2, 3)


def test_contraction_records_of_a_zero_component_and_two_survivors():
    x1, x2, x3, x4 = (MultiPoly.var(f"x{k}") for k in range(1, 5))
    a1 = MultiPoly.var("a1")
    # a zero component survives on no plane
    with_zero = RationalMapP3((MultiPoly.zero(), x2 * x3, a1 * x1 * x3, x1 * x2))
    assert [contraction_check(with_zero, i) for i in range(1, 5)] == [
        (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 1),
    ]
    # on every plane, two of the four components avoid x_i
    two_survive = RationalMapP3((x2 * x3, a1 * x3 * x4, x1 * x4, x1 * x2))
    assert [contraction_check(two_survive, i) for i in range(1, 5)] == [
        (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1),
    ]


def test_quadric_matrix_agrees_with_polynomial():
    q = QuadricForm.standard()
    m = quadric_matrix()
    xs = [MultiPoly.var(f"x{k}") for k in range(1, 5)]
    acc = MultiPoly.const(0)
    for r in range(4):
        for c in range(4):
            acc = acc + xs[r] * m[r][c] * xs[c]
    assert acc == q.poly
    # the integer form has integer coefficients
    assert all(type(c) is int for row in twice_matrix(q) for x in row for c in x.terms.values())


def test_quadric_determinant_is_nonzero_polynomial():
    rank, det = matrix_rank_det(quadric_matrix())
    assert rank == 4
    a1, a2, a3 = map(MultiPoly.var, ("a1", "a2", "a3"))
    assert det == (a1 * a1 + a2 * a2 + a3 * a3 - 2 * (a1 * a2 + a1 * a3 + a2 * a3)).scale(
        Fraction(1, 16)
    )
    assert str(det) == "1/16*a1^2 - 1/8*a1*a2 - 1/8*a1*a3 + 1/16*a2^2 - 1/8*a2*a3 + 1/16*a3^2"


def test_quadric_determinant_is_the_bareiss_determinant():
    q = QuadricForm.standard()
    assert q.determinant() == matrix_rank_det(quadric_matrix())[1]
    # the cremona stage reads det M as a Plücker pairing, not by Bareiss
    assert not hasattr(pipeline, "matrix_rank_det")


A1, A2, A3 = map(MultiPoly.var, A_VARS)
# coefficients of the drawn quadrics: zero, integral, fractional, one or more terms
QUADRIC_COEFFS = (
    0, 0, 1, -2, Fraction(1, 2), A1, A2 - 3, 2 * A1 * A3 + Fraction(1, 3), A3 * A3 - A1
)


@st.composite
def quadric_forms(draw):
    """A quadric in x1..x4 whose coefficients are polynomials in a1..a3."""
    xs = [MultiPoly.var(v) for v in X_VARS]
    p = MultiPoly.zero()
    for i, j in itertools.combinations_with_replacement(range(4), 2):
        p = p + draw(st.sampled_from(QUADRIC_COEFFS)) * xs[i] * xs[j]
    return QuadricForm(p)


@given(quadric_forms())
def test_determinant_is_a_sixteenth_of_the_bareiss_determinant(q):
    _, det = matrix_rank_det([list(row) for row in twice_matrix(q)])
    assert 16 * q.determinant() == det


def test_the_map_and_the_quadric_are_built_once():
    # immutable construction data, built at import; every run reads the same value
    assert cremona_map() is cremona_map()
    assert QuadricForm.standard() is QuadricForm.standard()


def test_cofactor_multiplicative_under_composition():
    # q(f.g) = (c_f composed with g) * c_g * q, checked on tau with itself
    tau = cremona_map()
    q = QuadricForm.standard().poly
    c_tau = COFACTOR
    assert tau.pullback(q) == c_tau * q
    raw = q.substitute(dict(zip(("x1", "x2", "x3", "x4"), map(tau.pullback, tau.components))))
    lifted = tau.pullback(c_tau)
    assert raw == lifted * c_tau * q


def test_map_validation():
    x = [MultiPoly.var(f"x{k}") for k in range(1, 5)]
    with pytest.raises(ValueError, match="share one degree"):
        RationalMapP3((x[0], x[1], x[2], x[3] * x[3]))
    with pytest.raises(ValueError, match="polynomial factor"):
        RationalMapP3((x[0] * x[0], x[0] * x[1], x[0] * x[2], x[0] * x[3]))
    # a parameter can be the common factor, and a zero component has none
    a1 = MultiPoly.var("a1")
    with pytest.raises(ValueError, match="polynomial factor"):
        RationalMapP3((a1 * x[0], a1 * x[1], MultiPoly.zero(), 2 * a1 * x[3]))
    with pytest.raises(ValueError, match="homogeneous"):
        RationalMapP3((x[0] + MultiPoly.const(1), x[1], x[2], x[3]))
    # a monomial may carry the parameters a1..a3, but no other variable
    with pytest.raises(ValueError, match="monomials in x1..x4, a1..a3"):
        RationalMapP3((x[0] * MultiPoly.var("b"), x[1], x[2], x[3]))


def test_a_quadric_form_is_homogeneous_of_degree_two_in_x():
    x1, x2, x3, x4 = (MultiPoly.var(f"x{k}") for k in range(1, 5))
    a1 = MultiPoly.var("a1")
    for bad in (x1 * x2 * x3, x1 + x2 * x3, a1 * x1, a1 + x1 * x1):
        with pytest.raises(ValueError, match="homogeneous of degree 2"):
            QuadricForm(bad)
    # a diagonal entry of 2M is twice the coefficient of the square
    twice = twice_matrix(QuadricForm(a1 * x1 * x1 + 3 * x2 * x4))
    assert twice[0][0] == 2 * a1 and twice[1][3] == twice[3][1] == 3
    assert sum(bool(e) for row in twice for e in row) == 3


# -- specialization and ruling swap -------------------------------------------------------


def test_swap_at_9_2_2():
    report = verify_pij_swap((9, 2, 2), TAU)
    assert report.passed
    assert report.swaps_checked == 12
    assert report.discriminants == ("9/4", "9/4", "9/4", "9")
    assert report.alpha == ("9", "2", "2") and report.failures == ()


def test_swap_at_permutations_of_9_2_2():
    for alpha in ((2, 9, 2), (2, 2, 9)):
        assert verify_pij_swap(alpha, TAU).passed


def test_swap_irrational_without_extension():
    report = verify_pij_swap((1, 1, 1), TAU)
    assert not report.passed
    assert report.failures == tuple(
        f"irrational ruling at e{i}: discriminant -3" for i in range(1, 5)
    )


def test_swap_rejects_degenerate_parameters():
    with pytest.raises(ValueError, match="nonzero"):
        verify_pij_swap((0, 1, 1), TAU)
    # a1 = 4, a2 = a3 = 1 makes the discriminant zero: degenerate quadric
    report = verify_pij_swap((4, 1, 1), TAU)
    assert not report.passed
    assert report.failures == ("degenerate quadric: det = 0",)


def test_swap_reports_ruling_errors_as_failures(monkeypatch):
    # a wrong square root puts the ruling directions off the quadric
    monkeypatch.setattr(cremona, "rational_sqrt", lambda x: rational_sqrt(x) + 1)
    report = verify_pij_swap((9, 2, 2), TAU)
    assert not report.passed
    assert len(report.failures) == 4
    assert shapes(report) == {"ruling at e# off the quadric: direction (#, #, #, #)"}
    monkeypatch.undo()

    # a displaced meeting point leaves the quadric
    line_meet = cremona._line_meet

    def displaced(p, line):
        dim, point = line_meet(p, line)
        return dim, point and tuple(x + 1 for x in point)

    monkeypatch.setattr(cremona, "_line_meet", displaced)
    report = verify_pij_swap((9, 2, 2), TAU)
    assert not report.passed
    assert len(report.failures) == 12
    assert shapes(report) == {"p# = (#, #, #, #) is off the quadric"}


def side_zero_after(n):
    """``_side`` as it is for its first n calls, then 0: every pair of lines meets."""
    side = cremona._side
    calls = []

    def patched(p, q):
        calls.append(None)
        return side(p, q) if len(calls) <= n else 0

    return patched


# each ruling failure, with the kernel, a maker of the patch that
# reaches it and the shape of the failure text it must give
SWAP_FAULTS = {
    # every line meets none: all eight sort into one ruling
    "ruling-sort-clash": ("_side", lambda: lambda p, q: 1, "both lines at e# sort into one ruling"),
    # det N and the seven sort pairings kept, then the twelve
    # same-ruling pairs all meet
    "same-ruling-lines-meet": (
        "_side", lambda: side_zero_after(8), "lines at e#, e# of one ruling meet"
    ),
    "cross-ruling-miss": (
        "_line_meet",
        lambda: lambda p, line: (0, None),
        "no p#: lines at e#, e# of two rulings miss",
    ),
}


@pytest.mark.parametrize("fault", sorted(SWAP_FAULTS))
def test_each_ruling_failure_kind_is_reached(monkeypatch, fault):
    name, make, shape = SWAP_FAULTS[fault]
    monkeypatch.setattr(cremona, name, make())
    report = verify_pij_swap((9, 2, 2), TAU)
    assert report.passed is False
    assert shape in shapes(report)


def test_a_point_without_its_partner_fails_by_its_own_record(monkeypatch):
    # the 12 meets run over (i, j) in order, so the fourth is p_21: its
    # miss is the one failure, and p_12 and p_21 go unswapped
    line_meet = cremona._line_meet
    calls = []

    def miss_p21(p, line):
        calls.append(None)
        return (0, None) if len(calls) == 4 else line_meet(p, line)

    monkeypatch.setattr(cremona, "_line_meet", miss_p21)
    report = verify_pij_swap((9, 2, 2), TAU)
    assert report.failures == ("no p21: lines at e2, e1 of two rulings miss",)
    assert report.swaps_checked == 10
    assert report.passed is False


def test_a_vanishing_image_is_a_failure(monkeypatch):
    monkeypatch.setattr(
        RationalMapP3, "specialize", lambda self, alpha, scale: lambda point: (0, 0, 0, 0)
    )
    report = verify_pij_swap((9, 2, 2), TAU)
    assert report.passed is False
    assert report.swaps_checked == 0
    assert report.failures == tuple(
        f"image of p{i}{j} vanishes" for i in range(1, 5) for j in range(1, 5) if i != j
    )


def test_each_ruling_line_has_one_plucker_vector(monkeypatch):
    # 8 ruling lines, 2 for det N and 12 swap checks: the ruling sort,
    # the disjointness checks and the 12 meets reuse the lines' vectors
    calls = []
    plucker = cremona._plucker

    def counting(a, b):
        calls.append((a, b))
        return plucker(a, b)

    monkeypatch.setattr(cremona, "_plucker", counting)
    assert verify_pij_swap((9, 2, 2), TAU).passed
    assert len(calls) == 22


def test_find_swap_specializations_deterministic():
    found = find_swap_specializations(0, TAU)
    assert found == find_swap_specializations(0, TAU)
    assert len(found) == 3
    assert len({r.alpha for r in found}) == 3
    for report in found:
        assert report.passed
        assert verify_pij_swap(report.alpha, TAU) == report


# The seeded search's samples for pipeline seeds 0-11: each alpha with
# its four tangent-plane discriminants, recorded from the rational
# (Fraction) implementation of the swap check.
SWAP_SAMPLES = {
    0: [
        ((3, 2, 10), ("1/100", "1/100", "1/4", "1")),
        ((1, 12, 5), ("16/25", "16/25", "1/9", "16")),
        ((2, 12, 4), ("1/4", "1/4", "1/36", "4")),
    ],
    1: [
        ((3, 10, 2), ("1/4", "1/4", "1/100", "1")),
        ((2, 6, 1), ("1", "1", "1/36", "1")),
        ((10, 1, 4), ("9/16", "9/16", "9", "9")),
    ],
    2: [
        ((12, 1, 5), ("16/25", "16/25", "16", "16")),
        ((6, 2, 1), ("1", "1", "1/4", "1")),
        ((4, 12, 2), ("1", "1", "1/36", "4")),
    ],
    3: [
        ((2, 3, 10), ("1/100", "1/100", "1/9", "1")),
        ((6, 2, 1), ("1", "1", "1/4", "1")),
        ((2, 9, 2), ("9/4", "9/4", "1/9", "9")),
    ],
    4: [
        ((6, 2, 1), ("1", "1", "1/4", "1")),
        ((1, 6, 12), ("1/144", "1/144", "1/36", "1")),
        ((2, 2, 9), ("1/9", "1/9", "9/4", "9")),
    ],
    5: [
        ((10, 4, 1), ("9", "9", "9/16", "9")),
        ((3, 10, 2), ("1/4", "1/4", "1/100", "1")),
        ((5, 1, 12), ("1/9", "1/9", "16", "16")),
    ],
    6: [
        ((8, 1, 3), ("4/9", "4/9", "4", "4")),
        ((10, 1, 4), ("9/16", "9/16", "9", "9")),
        ((3, 10, 2), ("1/4", "1/4", "1/100", "1")),
    ],
    7: [
        ((6, 12, 1), ("1", "1", "1/144", "1")),
        ((2, 12, 3), ("25/9", "25/9", "25/144", "25")),
        ((1, 8, 3), ("4/9", "4/9", "1/16", "4")),
    ],
    8: [
        ((3, 10, 2), ("1/4", "1/4", "1/100", "1")),
        ((1, 10, 4), ("9/16", "9/16", "9/100", "9")),
        ((2, 3, 10), ("1/100", "1/100", "1/9", "1")),
    ],
    9: [
        ((8, 3, 1), ("4", "4", "4/9", "4")),
        ((6, 2, 1), ("1", "1", "1/4", "1")),
        ((4, 1, 10), ("9/100", "9/100", "9", "9")),
    ],
    10: [
        ((12, 6, 1), ("1", "1", "1/36", "1")),
        ((12, 1, 6), ("1/36", "1/36", "1", "1")),
        ((3, 2, 10), ("1/100", "1/100", "1/4", "1")),
    ],
    11: [
        ((4, 12, 2), ("1", "1", "1/36", "4")),
        ((4, 1, 10), ("9/100", "9/100", "9", "9")),
        ((6, 12, 1), ("1", "1", "1/144", "1")),
    ],
}


@pytest.mark.parametrize("seed", sorted(SWAP_SAMPLES))
def test_swap_samples_match_the_recorded_table(seed):
    found = find_swap_specializations(seed, TAU)
    expected = [(tuple(map(str, a)), discs) for a, discs in SWAP_SAMPLES[seed]]
    assert [(r.alpha, r.discriminants) for r in found] == expected
    assert all(r.passed and r.swaps_checked == 12 and not r.failures for r in found)


def test_every_square_delta_triple_passes_with_rescaled_discriminants():
    passing = 0
    for triple in itertools.product(range(1, 13), repeat=3):
        d = delta(triple)
        if not is_positive_square(d):
            continue
        report = verify_pij_swap(triple, TAU)
        assert report.passed and report.swaps_checked == 12, triple
        _, a2, a3 = triple
        expected = (Fraction(d, a3 * a3), Fraction(d, a3 * a3), Fraction(d, a2 * a2), d)
        assert report.discriminants == tuple(str(Fraction(x)) for x in expected)
        passing += 1
    assert passing == 51


def test_every_triple_fails_only_as_irrational_or_degenerate():
    # every row of 2*D*M has a nonzero off-diagonal entry and every
    # discriminant is Delta times a nonzero square, so over the whole
    # box the check fails only on an irrational ruling or on Delta = 0
    seen = set()
    passing = 0
    for triple in itertools.product(range(1, 13), repeat=3):
        report = verify_pij_swap(triple, TAU)
        passing += report.passed
        seen |= shapes(report)
    assert seen == {"irrational ruling at e#: discriminant #", "degenerate quadric: det = #"}
    assert passing == 51


def test_every_swap_record_in_the_box_matches_its_pinned_digest():
    # the full records, failures included, of every triple in 1..12^3; a
    # record's repr shows no pass flag, which is read off its failures
    tau = cremona_map()
    text = "\n".join(
        repr(verify_pij_swap(t, tau)) for t in itertools.product(range(1, 13), repeat=3)
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "254ee28f44cff72f81722eeb516b9ee83b5f766c51925efe61fce05ddd9c494b"


@pytest.mark.parametrize("alpha", [(9, 2, 2), (Fraction(9, 2), 1, 1)])
def test_swap_checks_the_map_it_is_given(alpha):
    assert verify_pij_swap(alpha, TAU).passed
    # the identity fixes p_ij instead of sending it to p_ji
    report = verify_pij_swap(alpha, linear_map("x1", "x2", "x3", "x4"))
    assert not report.passed and report.swaps_checked == 0
    assert len(report.failures) == 12
    assert shapes(report) == {"p# = (#, #, #, #) maps to (#, #, #, #), not p# = (#, #, #, #)"}


@pytest.mark.parametrize(
    "triple",
    [
        (Fraction(9, 2), 1, 1),
        (Fraction(1, 2), Fraction(1, 3), 2),
        (Fraction(-3, 7), Fraction(-2, 7), Fraction(-10, 7)),
    ],
)
def test_rational_parameters_pass_with_rescaled_discriminants(triple):
    # the integer form clears the parameters' denominators; the reported
    # discriminants are still Delta over (a3^2, a3^2, a2^2, 1)
    report = verify_pij_swap(triple, TAU)
    a1, a2, a3 = map(Fraction, triple)
    d = a1 * a1 + a2 * a2 + a3 * a3 - 2 * (a1 * a2 + a1 * a3 + a2 * a3)
    assert report.passed and report.swaps_checked == 12
    assert report.discriminants == tuple(str(x) for x in (d / a3**2, d / a3**2, d / a2**2, d))


def meet(l1, l2):
    """_line_meet of span(a, b) and span(c, e), their Plücker vectors computed here."""
    (a, b), (c, e) = l1, l2
    return cremona._line_meet(cremona._plucker(a, b), (c, e, cremona._plucker(c, e)))


@given(line_pairs())
def test_line_meet_is_a_primitive_point_of_both_lines(vectors):
    a, b, c, e = vectors
    dim, point = meet((a, b), (c, e))

    def rank(*rows):
        return matrix_rank_det(list(rows))[0]

    assert (dim == 0) == (matrix_rank_det([a, b, c, e])[1] != 0)
    assert (dim == 1) == (rank(a, b) == rank(c, e) == 2 and rank(a, b, c, e) == 3)
    if dim == 1:
        assert math.gcd(*point) == 1
        assert rank(a, b, point) == rank(c, e, point) == 2
    else:
        assert point is None


@st.composite
def zero_diagonal_forms(draw):
    """A symmetric integer 4x4 matrix with zero diagonal, and a vector."""
    entries = st.integers(-10**6, 10**6)
    m = [[0] * 4 for _ in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        m[i][j] = m[j][i] = draw(entries)
    return tuple(map(tuple, m)), tuple(draw(entries) for _ in range(4))


@fixed_seed(35)
@given(zero_diagonal_forms())
def test_zero_diagonal_form_is_the_bilinear_form_on_the_diagonal(case):
    m, v = case
    assert cremona._form(m, v) == cremona._quad(m, v, v)


def test_line_meet_dimensions():
    e = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    assert meet((e[0], e[1]), (e[2], e[3])) == (0, None)
    assert meet((e[0], e[1]), (e[1], (0, 0, 2, 2))) == (1, (0, 1, 0, 0))
    assert meet((e[0], e[1]), ((2, 2, 0, 0), (3, -1, 0, 0))) == (2, None)


def delta(triple):
    a1, a2, a3 = triple
    return a1 * a1 + a2 * a2 + a3 * a3 - 2 * (a1 * a2 + a1 * a3 + a2 * a3)


def is_positive_square(n):
    return n > 0 and math.isqrt(n) ** 2 == n


def distinct_draws(seed):
    """The distinct triples the seeded search draws, in draw order."""
    rng = random.Random(seed)
    seen = set()
    for _ in range(5000):
        triple = (rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12))
        if triple not in seen:
            seen.add(triple)
            yield triple


@pytest.mark.parametrize("seed", range(12))
def test_delta_screen_skips_only_triples_that_fail(seed):
    # the unscreened search: the full check on every distinct draw, drawn
    # by randint as the search's getrandbits loop must reproduce; seeds
    # 0-11 are the pipeline seeds the benchmark's fault mix cycles through
    passed = []
    for triple in distinct_draws(seed):
        report = verify_pij_swap(triple, TAU)
        if not is_positive_square(delta(triple)):
            assert not report.passed, triple
            shape = (
                "degenerate quadric: det = #"
                if delta(triple) == 0
                else "irrational ruling at e#: discriminant #"
            )
            assert shapes(report) == {shape}, triple
        elif report.passed:
            passed.append(report)
            if len(passed) == 3:
                break
    assert find_swap_specializations(seed, TAU) == passed


def test_cremona_stage_verifies_only_triples_with_a_square_delta(monkeypatch):
    calls = []

    def counting(alpha, *rest):
        calls.append(tuple(alpha))
        return verify_pij_swap(alpha, *rest)

    monkeypatch.setattr(cremona, "verify_pij_swap", counting)
    monkeypatch.setattr(pipeline, "verify_pij_swap", counting, raising=False)
    stage = pipeline.run_stage("cremona", pipeline.PipelineOptions(seed=0))
    assert stage.status == "pass"
    # the distinct drawn triples with a positive square Delta, in draw order
    screened = [t for t in distinct_draws(0) if is_positive_square(delta(t))]
    assert calls == screened[:3]


# -- affine maps of the line ---------------------------------------------------------------


def test_affine_compose_with_inverse_is_identity():
    identity = translate({})
    f = AffineMap({-3: Fraction(2, 5)}, {1: 1, -2: 4})
    assert f.compose(f.inverse()) == identity
    assert f.inverse().compose(f) == identity
    assert scaling(T).inverse() == scaling({-1: 1})
    # the scale is held as its one term and the shift as its sorted terms
    assert f.scale == (-3, Fraction(2, 5)) and f.shift == ((-2, 4), (1, 1))
    assert f.inverse() == AffineMap({3: Fraction(5, 2)}, {1: -10, 4: Fraction(-5, 2)})


def test_affine_scale_must_be_a_unit():
    for scale in ({}, {1: 1, 0: 1}, {1: 0}, 2):
        with pytest.raises(ValueError, match="unit"):
            AffineMap(scale, {})
    with pytest.raises(TypeError):
        translate(1)


def test_translations_compose_additively():
    c, d = {0: 1, -2: 3}, {-2: -3, -4: 1}
    assert translate(c).compose(translate(d)) == translate({0: 1, -4: 1})
    # conjugating a translation by a scaling rescales its shift
    s = scaling({2: 1})
    assert s.compose(translate(c)).compose(s.inverse()) == translate({2: 1, 0: 3})


def test_conjugate_translation_formula():
    for n in range(0, 4):
        assert conjugate_translation({2 * n: 1}) == translate({-2 * n: 1})
    # a unit with a coefficient: conjugating by x -> 3t*x shifts by t^-1/3
    assert conjugate_translation({1: 3}) == translate({-1: Fraction(1, 3)})


@pytest.mark.parametrize("scale", [{1: 1, 0: 1}, {2: 1, -1: 3}, {}, 4])
def test_conjugate_translation_needs_a_unit(scale):
    with pytest.raises(ValueError, match="unit"):
        conjugate_translation(scale)


def test_the_substituted_conjugate_is_the_conjugate_by_each_power():
    # the one conjugation over u = t, read at u = t^2n by e -> 2n*e, is
    # the composition built from scaling(t^2n) and translate(1)
    symbolic = conjugate_translation(T)
    for n in range(1, 51):
        s = scaling({2 * n: 1})
        built = s.inverse().compose(translate({0: 1})).compose(s)
        substituted = AffineMap(
            *({2 * n * e: c for e, c in part} for part in ([symbolic.scale], symbolic.shift))
        )
        assert substituted == built == translate({-2 * n: 1})
