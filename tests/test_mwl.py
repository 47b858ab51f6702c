"""Tests for height contributions and section bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcert.fibration import FiberDivisor, KodairaType, classify_kodaira, map_fiber
from autcert.mwl import ModInt, SectionData, contribution, height, section_from_config
from autcert.surface import build_double_kummer, epsilon_involution, extend_with_conics

I8 = KodairaType("I", 8)
IV_STAR = KodairaType("IV*")


# -- component groups -----------------------------------------------------------------


def test_modint_arithmetic():
    assert ModInt(4, 8) + ModInt(4, 8) == ModInt(0, 8)
    assert ModInt(3, 8) + ModInt(-5, 8) == ModInt(6, 8)
    assert ModInt(-1, 8) == ModInt(7, 8)
    assert str(ModInt(12, 8)) == "4 (mod 8)"
    with pytest.raises(ValueError, match="mixed moduli"):
        ModInt(1, 2) + ModInt(1, 3)
    with pytest.raises(ValueError):
        ModInt(1, 0)


def test_component_index_sum():
    # component indices of sections on one fiber add in its component group
    assert ModInt(0, 8) + ModInt(4, 8) == ModInt(4, 8)
    assert ModInt(5, 8) + ModInt(0, 8) == ModInt(5, 8)
    with pytest.raises(ValueError, match="mixed"):
        ModInt(1, 2) + ModInt(1, 3)


# -- contribution tables ----------------------------------------------------------------


def test_contribution_in():
    assert contribution(I8, ModInt(0, 8)) == 0
    assert contribution(I8, ModInt(4, 8)) == 2
    assert contribution(I8, ModInt(1, 8)) == Fraction(7, 8)
    assert contribution(I8, ModInt(7, 8)) == Fraction(7, 8)
    assert contribution(KodairaType("I", 2), ModInt(1, 2)) == Fraction(1, 2)


def test_contribution_iv_star():
    assert contribution(IV_STAR, ModInt(0, 3)) == 0
    assert contribution(IV_STAR, ModInt(1, 3)) == Fraction(4, 3)
    assert contribution(IV_STAR, ModInt(2, 3)) == Fraction(4, 3)


def test_contribution_validation():
    with pytest.raises(ValueError, match="no contribution table"):
        contribution(KodairaType("II*"), ModInt(0, 1))
    with pytest.raises(ValueError, match="no contribution table"):
        contribution(KodairaType("I*", 0), ModInt(0, 4))
    with pytest.raises(ValueError, match="Z/8"):
        contribution(I8, ModInt(1, 4))
    with pytest.raises(ValueError, match="ModInt"):
        contribution(I8, "identity")
    with pytest.raises(ValueError, match="Z/3"):
        contribution(IV_STAR, ModInt(0, 8))


# -- heights ------------------------------------------------------------------------------


# the two I8 fibers of the K3 surface, chi = 2
TWO_I8 = (("N1", I8), ("N1eps", I8))


def test_height_of_torsion_section():
    c12 = SectionData("C12", 0, {"N1": ModInt(4, 8), "N1eps": ModInt(4, 8)})
    assert height(2, TWO_I8, c12) == 0


def test_height_zero_on_two_i8_fibers_forces_the_torsion_conditions():
    # why the heights stage tests h(C12) == 0 alone: with chi = 2 each I8
    # correction is at most 2, so height 0 needs (P.O) = 0 and both
    # indices 4, and then doubling the indices lands on the identity
    zeros = []
    for a in range(8):
        for b in range(8):
            for d in range(5):
                P = SectionData("P", d, {"N1": ModInt(a, 8), "N1eps": ModInt(b, 8)})
                if height(2, TWO_I8, P) == 0:
                    zeros.append((a, b, d))
                    assert d == 0
                    assert (2 * a + 2 * b) % 8 == 0
    assert zeros == [(4, 4, 0)]


def test_height_nonzero_example():
    c11 = SectionData("C11", 0, {"N1": ModInt(0, 8), "N1eps": ModInt(4, 8)})
    assert height(2, TWO_I8, c11) == 2


def test_narrow_iv_star_generator_height():
    gen = SectionData("G", 0, {"M": ModInt(0, 3)})
    assert height(1, (("M", IV_STAR),), gen) == 2


def test_height_requires_matching_fibers():
    message = r"lists components for \['N1'\], the fibers given are \['N1', 'N1eps'\]"
    with pytest.raises(ValueError, match=message):
        height(2, TWO_I8, SectionData("P", 0, {"N1": ModInt(0, 8)}))
    with pytest.raises(ValueError, match="Z/8"):
        height(2, TWO_I8, SectionData("P", 0, {"N1": ModInt(0, 8), "N1eps": ModInt(0, 4)}))


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=8),
)
def test_height_matches_pairing_with_itself(chi, dot_zero, n, i):
    P = SectionData("P", dot_zero, {"F": ModInt(i, n)})
    # Shioda's formula with the I_n correction i(n - i)/n
    k = i % n
    fibers = (("F", KodairaType("I", n)),)
    assert height(chi, fibers, P) == 2 * chi + 2 * dot_zero - Fraction(k * (n - k), n)


def test_context_validation():
    # a fiber listed twice would subtract its correction twice
    with pytest.raises(ValueError, match=r"the fibers given are \['A', 'A'\]"):
        height(2, (("A", I8), ("A", I8)), SectionData("P", 0, {"A": ModInt(4, 8)}))
    with pytest.raises(ValueError, match="bad intersection number"):
        SectionData("P", -1, {})


# -- section data from the configuration ----------------------------------------------------


N1 = FiberDivisor.of(["E2", "C32", "F3", "C31", "E1", "C41", "F4", "C42"])


def fibers_of_phi1():
    ext = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(ext)
    n1eps = map_fiber(N1, eps.curve_map)
    return ext, [
        ("N1", classify_kodaira(ext, N1).cycle),
        ("N1eps", classify_kodaira(ext, n1eps).cycle),
    ]


def test_section_from_config_torsion_candidate():
    ext, fibers = fibers_of_phi1()
    data = section_from_config(ext, fibers, "C12", "C21")
    assert data.dot_zero == 0
    assert data.components == {"N1": ModInt(4, 8), "N1eps": ModInt(4, 8)}
    assert height(2, TWO_I8, data) == 0
    # order-two consistency: doubling lands on the zero component
    for index in data.components.values():
        assert index + index == ModInt(0, 8)


def test_section_from_config_c11_and_c2():
    ext, fibers = fibers_of_phi1()
    c11 = section_from_config(ext, fibers, "C11", "C21")
    assert c11.components["N1"] == ModInt(0, 8)
    assert c11.components["N1eps"] == ModInt(4, 8)
    c2 = section_from_config(ext, [fibers[0]], "C2", "C21")
    assert c2.components["N1"] == ModInt(4, 8)


def test_section_from_config_alternate_zero():
    ext, fibers = fibers_of_phi1()
    c22 = section_from_config(ext, fibers, "C22", "C11")
    assert c22.dot_zero == 0
    assert c22.components == {"N1": ModInt(4, 8), "N1eps": ModInt(4, 8)}
    assert height(2, TWO_I8, c22) == 0


def test_section_from_config_errors():
    ext, fibers = fibers_of_phi1()
    with pytest.raises(ValueError, match="component of fiber"):
        section_from_config(ext, fibers, "C31", "C21")
    with pytest.raises(ValueError, match="expected one simple point"):
        section_from_config(ext, [fibers[0]], "C13", "C21")
    # a fiber of any type but I_n has no cycle, so no section meets it
    n2 = FiberDivisor(
        {"E2": 1, "C32": 2, "E1": 1, "C31": 2, "E4": 1, "C34": 2, "F3": 3}
    )
    n2_cycle = classify_kodaira(ext, n2).cycle
    assert n2_cycle == ()
    with pytest.raises(ValueError, match="expected one simple point"):
        section_from_config(ext, [("N2", n2_cycle)], "C12", "C21")
