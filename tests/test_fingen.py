"""Tests for the non-finite-generation certificates."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcert.fingen import (
    LaurentElement,
    certify_nonfg,
    escape_exponent,
    membership,
    shift_generators,
)
from autcert.lattice import z_span_membership
from autcert.scalars import LaurentT


def elt(terms: dict[int, int | Fraction]) -> LaurentElement:
    return LaurentElement(LaurentT(terms))


# -- elements -----------------------------------------------------------------------


def test_laurent_element_strings():
    assert str(LaurentElement.t_power(-2)) == "(t^-2)*a"
    assert str(elt({0: 3, -2: -2})) == "(3 - 2*t^-2)*a"


def test_element_group_operations():
    a = LaurentElement.t_power(-2)
    b = LaurentElement.t_power(0)
    assert (a + b).coeffs == LaurentT({-2: 1, 0: 1})
    assert (3 * a).coeffs == LaurentT({-2: 3})
    assert (a + (-1) * a).is_zero()


# -- membership ----------------------------------------------------------------------


def test_membership_with_witness():
    gens = [elt({0: 1}), elt({-2: 1})]
    target = elt({0: 3, -2: -2})
    res = membership(gens, target)
    assert res.member
    assert res.witness == (3, -2)
    assert res.monomials == (-2, 0)


def test_membership_refusals():
    gens = [elt({0: 1}), elt({-2: 1})]
    assert not membership(gens, elt({-4: 1})).member
    assert not membership(gens, elt({0: Fraction(1, 2)})).member
    assert not membership([elt({0: 2})], elt({0: 1})).member
    assert membership([elt({0: 2})], elt({0: 4})).witness == (2,)


def test_membership_denominator_clearing():
    gens = [elt({0: Fraction(1, 2)})]
    res = membership(gens, elt({0: Fraction(3, 2)}))
    assert res.member and res.witness == (3,)
    assert res.denominator_lcm == 2
    assert res.generator_rows == ((1,),)
    assert res.target_vector == (3,)


def test_membership_edge_cases():
    zero = elt({})
    assert membership([], zero).member
    assert membership([], elt({0: 1})).member is False
    assert membership([elt({0: 1})], zero).witness == (0,)


def test_membership_recheck_data_is_consistent():
    gens = shift_generators(3)
    target = elt({0: 5, -2: -1, -4: 7})
    res = membership(gens, target)
    assert res.member
    # the exported integer data replays through the lattice solver
    replay = z_span_membership(
        [list(r) for r in res.generator_rows], list(res.target_vector)
    )
    assert replay == res.witness


@given(
    st.lists(
        st.dictionaries(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-4, max_value=4),
            max_size=3,
        ),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
)
def test_membership_accepts_known_combinations(gen_terms, mults):
    gens = [elt(terms) for terms in gen_terms]
    target = elt({})
    for g, m in zip(gens, mults):
        target = target + m * g
    assert membership(gens, target).member


@given(
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-4, max_value=4),
        max_size=3,
    )
)
def test_membership_monotone_under_more_generators(target_terms):
    target = elt(target_terms)
    gens = shift_generators(2)
    if membership(gens, target).member:
        assert membership(gens + [elt({1: 1})], target).member


# -- escape exponents ------------------------------------------------------------------


def test_escape_exponent_examples():
    assert escape_exponent(shift_generators(1)) == 1
    assert escape_exponent(shift_generators(3)) == 3
    assert escape_exponent([elt({2: 1})]) == 1
    assert escape_exponent([elt({-5: 1})]) == 3
    with pytest.raises(ValueError, match="zero generator"):
        escape_exponent([elt({})])
    with pytest.raises(ValueError, match="no generators"):
        escape_exponent([])


def test_shift_generators():
    gens = shift_generators(3)
    assert [str(g) for g in gens] == ["(1)*a", "(t^-2)*a", "(t^-4)*a"]
    with pytest.raises(ValueError):
        shift_generators(0)


# -- certificates ------------------------------------------------------------------------


def test_certificate_structure():
    cert = certify_nonfg(5)
    assert cert.passed
    assert cert.max_k == 5
    assert len(cert.stages) == 5
    for k, stage in enumerate(cert.stages, start=1):
        assert stage.k == k
        assert stage.escape_exponent == k
        assert len(stage.generators) == k
        assert stage.escape == f"(t^{-2 * k})*a"
        assert not stage.refutation.member
        assert stage.next_span.member
        assert stage.next_span.witness[-1] == 1


def test_certificate_chain_is_strict():
    cert = certify_nonfg(4)
    for stage in cert.stages:
        # the escape of stage k is a generator of stage k+1
        assert stage.refutation.member is False
        assert stage.next_span.member is True


def test_certificate_json_is_deterministic():
    one = json.dumps(certify_nonfg(3).to_json_dict(), sort_keys=True)
    two = json.dumps(certify_nonfg(3).to_json_dict(), sort_keys=True)
    assert one == two
    blob = json.loads(one)
    assert blob["passed"] is True
    assert blob["stages"][2]["escape"] == "(t^-6)*a"
    assert blob["degree_argument"]
    assert blob["external_facts"]


def test_certificate_validation():
    with pytest.raises(ValueError):
        certify_nonfg(0)
