"""Tests for the non-finite-generation certificates."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcert import fingen, pipeline
from autcert.fingen import certify_nonfg, membership, translation_str
from autcert.lattice import SpanBasis, z_span_membership
from autcert.__main__ import main
from autcert.cremona import translate
from autcert.pipeline import Context, PipelineOptions, _stringify, run_stage

from conftest import shifts


# -- translations -------------------------------------------------------------------


def test_translation_strings():
    assert translation_str({-2: 1}) == "(t^-2)*a"
    assert translation_str({0: 3, -2: -2}) == "(3 - 2*t^-2)*a"
    assert translation_str({0: Fraction(1, 2)}) == "(1/2)*a"
    assert translation_str({}) == "(0)*a"
    assert translation_str({1: -1, 0: 3, -2: Fraction(-2, 3)}) == "(-t + 3 - 2/3*t^-2)*a"
    assert translation_str({5: 2, -7: -1}) == "(2*t^5 - t^-7)*a"


# -- membership ----------------------------------------------------------------------


def test_membership_with_witness():
    gens = [{0: 1}, {-2: 1}]
    assert membership(SpanBasis(gens), {0: 3, -2: -2}) == {0: 3, 1: -2}


def test_membership_refusals():
    gens = [{0: 1}, {-2: 1}]
    assert membership(SpanBasis(gens), {-4: 1}) is None
    assert membership(SpanBasis(gens), {0: Fraction(1, 2)}) is None
    assert membership(SpanBasis([{0: 2}]), {0: 1}) is None
    assert membership(SpanBasis([{0: 2}]), {0: 4}) == {0: 2}


def test_membership_denominator_clearing():
    gens = [{0: Fraction(1, 2)}]
    assert membership(SpanBasis(gens), {0: Fraction(3, 2)}) == {0: 3}
    gens = [{0: Fraction(1, 2)}, {-2: Fraction(1, 3)}]
    res = membership(SpanBasis(gens), {0: Fraction(1, 2), -2: Fraction(-2, 3)})
    assert res == {0: 1, 1: -2}
    res = membership(SpanBasis([{-2: Fraction(1, 3), 1: 2}]), {0: Fraction(-5, 4)})
    assert res is None


def test_membership_edge_cases():
    # the empty target is a member with the empty witness, which is falsy:
    # membership is read with ``is None``
    assert membership(SpanBasis([]), {}) == {}
    assert membership(SpanBasis([]), {0: 1}) is None
    assert membership(SpanBasis([{0: 1}]), {}) == {}


def unit_rows(exponents, target):
    """The integer rows of the monomials t^e and the target {exponent: coefficient}."""
    columns = sorted(set(exponents) | set(target))
    rows = [[int(c == e) for c in columns] for e in exponents]
    return rows, [target.get(c, 0) for c in columns]


def test_membership_recheck_data_is_consistent():
    gens = shifts(2)
    target = {0: 5, -2: -1, -4: 7}
    res = membership(SpanBasis(gens), target)
    assert res == {0: 5, 1: -1, 2: 7}
    # the integer problem rebuilt from the exponents replays through the
    # lattice solver
    rows, vector = unit_rows([0, -2, -4], {0: 5, -2: -1, -4: 7})
    replay = z_span_membership(rows, vector)
    assert {i: c for i, c in enumerate(replay) if c} == res
    rows, vector = unit_rows([0, -2, -4], {-6: 1})
    assert z_span_membership(rows, vector) is None


def test_membership_witness_is_rechecked_in_laurent_arithmetic(monkeypatch):
    monkeypatch.setattr(SpanBasis, "solve", lambda self, target: {0: 2})
    with pytest.raises(ArithmeticError):
        membership(SpanBasis([{0: 1}]), {0: 1})


def test_membership_recheck_reads_every_term_of_the_generators(monkeypatch):
    # 1*(1 + t^-2) + 1*t^-2 = 1 + 2t^-2 agrees with the target 1 + 3t^-2
    # in its leading term t^0 only
    basis = SpanBasis([{0: 1, -2: 1}, {-2: 1}])
    monkeypatch.setattr(SpanBasis, "solve", lambda self, target: {0: 1, 1: 1})
    with pytest.raises(ArithmeticError):
        membership(basis, {0: 1, -2: 3})


def test_membership_witness_may_cancel_to_a_shorter_target():
    # (1 + t^-2) - t^-2 = 1: the t^-2 terms cancel in the recheck
    assert membership(SpanBasis([{0: 1, -2: 1}, {-2: 1}]), {0: 1}) == {0: 1, 1: -1}


def test_membership_refuses_a_target_with_a_zero_entry():
    # the solve drops the zero entry and finds t^-2, but the recheck
    # compares the canonical sum with the target as given
    with pytest.raises(ArithmeticError):
        membership(SpanBasis(shifts(1)), {0: 0, -2: 1})


@pytest.mark.parametrize("coefficient", [True, 1.0])
def test_membership_refuses_an_inexact_target_coefficient(coefficient):
    with pytest.raises(TypeError):
        membership(SpanBasis(shifts(1)), {-2: coefficient})


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
    gens = [{e: c for e, c in terms.items() if c} for terms in gen_terms]
    target = {}
    for g, m in zip(gens, mults):
        for e, c in g.items():
            target[e] = target.get(e, 0) + m * c
    target = {e: c for e, c in target.items() if c}
    assert membership(SpanBasis(gens), target) is not None


@given(
    st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-4, max_value=4),
        max_size=3,
    )
)
def test_membership_monotone_under_more_generators(target_terms):
    target = {e: c for e, c in target_terms.items() if c}
    gens = shifts(1)
    if membership(SpanBasis(gens), target) is not None:
        assert membership(SpanBasis(gens + [{1: 1}]), target) is not None


# -- escape exponents ------------------------------------------------------------------


def test_escape_exponents_follow_the_support_bound():
    # the escape exponent is the least positive N with -2N below the
    # running support bound, and a zero generator has no bound at all
    cert = certify_nonfg([{2: 1}, {-5: 1}, {-6: 1}])
    assert [s.support_bound for s in cert.stages] == [2, -5]
    assert [s.escape_exponent for s in cert.stages] == [1, 3]
    assert not cert.passed
    with pytest.raises(ValueError, match="zero generator"):
        certify_nonfg([{0: 1}, {}])


def test_an_escape_exponent_off_its_stage_fails_the_certificate():
    # from the bound -2 the escape is t^-4: refuted by t^-2 and found in
    # the span with t^-4, but its exponent 2 is not the stage number 1
    cert = certify_nonfg([{-2: 1}, {-4: 1}])
    (stage,) = cert.stages
    assert stage.escape_exponent == 2 and stage.k == 1
    assert stage.refutation is None and stage.next_span is not None
    assert not cert.passed


def test_an_escape_missing_from_the_next_span_fails_the_certificate():
    # the escape t^-2 of stage 1 is refuted, but the next generator is
    # t^-4, so the next span misses it
    cert = certify_nonfg([{0: 1}, {-4: 1}])
    (stage,) = cert.stages
    assert stage.escape_exponent == stage.k == 1
    assert stage.refutation is None and stage.next_span is None
    assert not cert.passed


def test_shift_generators():
    # the generators are the pipeline's one conjugate read at u = t^2n, the
    # unit translation at n = 0
    ctx = Context(PipelineOptions())
    gens = ctx.shifts(3)
    assert gens == [{0: 1}, {-2: 1}, {-4: 1}]
    assert [translation_str(g) for g in gens] == ["(1)*a", "(t^-2)*a", "(t^-4)*a"]
    # the substitution e -> 2n*e sums the terms it sends to one exponent
    ctx.__dict__["conjugate"] = translate({-1: 1, 1: 2, 0: -3})
    assert ctx.shifts(2) == [{}, {-2: 1, 2: 2, 0: -3}]


# -- certificates ------------------------------------------------------------------------


def test_certificate_structure():
    cert = certify_nonfg(shifts(5))
    assert cert.passed
    assert cert.max_k == 5
    assert cert.format == "3"
    assert cert.generators == (0, -2, -4, -6, -8, -10)
    assert len(cert.stages) == 5
    for k, stage in enumerate(cert.stages, start=1):
        assert stage.k == k
        assert stage.escape_exponent == k
        assert stage.support_bound == -2 * (k - 1)
        assert stage.refutation is None
        assert stage.next_span == {k: 1}


def test_nonfg_stage_reads_its_generators_off_one_conjugation(monkeypatch):
    # the K = 80 stage conjugates once, over the symbolic unit t, and
    # writes the certificate of the shifts t^(-2n), n = 0..80
    real = pipeline.conjugate_translation
    units = []

    def counted(u):
        units.append(u)
        return real(u)

    monkeypatch.setattr(pipeline, "conjugate_translation", counted)
    stage = run_stage("nonfg", PipelineOptions(max_gens=80))
    assert units == [{1: 1}]
    assert stage.evidence["certificate"] == certify_nonfg(shifts(80)).to_record()


def test_certificate_chain_is_strict():
    cert = certify_nonfg(shifts(4))
    for stage in cert.stages:
        # the escape of stage k is a generator of stage k+1
        assert stage.refutation is None
        assert stage.next_span is not None


def test_one_failed_stage_fails_the_certificate(monkeypatch):
    # only stage 1's refutation is forced to find the escape in the span;
    # every later stage passes, and the certificate must still fail
    real = fingen.membership
    calls = []

    def first_refutation_is_a_member(basis, target):
        calls.append(target)
        if len(calls) == 1:
            return {0: 1}
        return real(basis, target)

    monkeypatch.setattr(fingen, "membership", first_refutation_is_a_member)
    cert = certify_nonfg(shifts(3))
    assert [s.refutation is not None for s in cert.stages] == [True, False, False]
    assert all(s.next_span is not None for s in cert.stages)
    assert not cert.passed


def test_certificate_json_is_deterministic():
    def certificate_json():
        stage = run_stage("nonfg", PipelineOptions(max_gens=3))
        return json.dumps(stage.evidence["certificate"], sort_keys=True)

    one = certificate_json()
    assert one == certificate_json()
    blob = json.loads(one)
    assert blob["format"] == "3"
    assert blob["max_k"] == "3"
    assert blob["passed"] is True
    assert blob["generators"] == ["0", "-2", "-4", "-6"]
    assert blob["stages"][2]["escape_exponent"] == "3"
    assert "escape" not in blob["stages"][2]
    assert blob["degree_argument"]
    assert blob["external_facts"]


def walk(obj):
    """A record written field by field, each leaf as the pipeline's _stringify writes it,
    and each membership witness, or None, with its ``member`` verdict."""
    if hasattr(obj, "_fields"):
        return {
            name: {"member": v is not None, "witness": walk(v)}
            if name in ("refutation", "next_span")
            else walk(v)
            for name, v in zip(obj._fields, obj)
        }
    if isinstance(obj, dict):
        return {str(k): walk(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return [walk(v) for v in obj]
    return _stringify(obj)


def test_certificate_record_matches_the_generic_walk():
    # the report writes the certificate's own record; a generic walk over
    # its fields is the reference it must not drift from
    for max_k in [*range(1, 21), 200]:
        cert = certify_nonfg(shifts(max_k))
        record, walked = cert.to_record(), walk(cert)
        assert record == walked
        assert json.dumps(record, sort_keys=True) == json.dumps(walked, sort_keys=True)


def test_certificate_validation():
    for gens in ([], shifts(0)):
        with pytest.raises(ValueError, match="at least one stage"):
            certify_nonfg(gens)


# -- rechecking a written report ------------------------------------------------------------


def recheck(cert: dict) -> bool:
    """Recheck every escape stage of a report's certificate from its text alone.

    Stage k refutes by the support argument: every combination of the
    first k generators has support at or above their least exponent, and
    the escape exponent lies below it.  The sparse next-span witness,
    over the first k + 1 generators, must sum to exactly t^(-2N).
    """
    gens = [int(e) for e in cert["generators"]]
    ok = len(cert["stages"]) == int(cert["max_k"]) and len(gens) == int(cert["max_k"]) + 1
    for stage in cert["stages"]:
        k = int(stage["k"])
        bound = int(stage["support_bound"])
        n = int(stage["escape_exponent"])
        ok = ok and bound == min(gens[:k]) and -2 * n < bound
        ok = ok and stage["refutation"] == {"member": False, "witness": None}
        ok = ok and stage["next_span"]["member"] is True
        total: dict[int, int] = {}
        for i, c in stage["next_span"]["witness"].items():
            ok = ok and 0 <= int(i) <= k
            e = gens[int(i)]
            total[e] = total.get(e, 0) + int(c)
        ok = ok and {e: c for e, c in total.items() if c} == {-2 * n: 1}
    return ok


def test_written_nonfg_report_rechecks_from_its_text(tmp_path):
    out = tmp_path / "nonfg.json"
    assert main(["nonfg", "--max-gens", "12", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    cert = json.loads(text)["stages"][0]["evidence"]["certificate"]
    assert cert["format"] == "3"
    assert recheck(cert)

    def mutated(edit):
        copy = json.loads(text)["stages"][0]["evidence"]["certificate"]
        edit(copy)
        return copy

    def witness_coefficient(c):
        c["stages"][6]["next_span"]["witness"]["7"] = "2"

    def escape_exponent_(c):
        c["stages"][3]["escape_exponent"] = "5"

    def generator(c):
        c["generators"][8] = "-15"

    def support_bound(c):
        c["stages"][9]["support_bound"] = "-19"

    for edit in (witness_coefficient, escape_exponent_, generator, support_bound):
        assert not recheck(mutated(edit)), edit.__name__


def test_deep_written_report_rechecks(tmp_path):
    out = tmp_path / "nonfg.json"
    assert main(["nonfg", "--max-gens", "200", "--out", str(out)]) == 0
    cert = json.loads(out.read_text(encoding="utf-8"))["stages"][0]["evidence"]["certificate"]
    assert len(cert["stages"]) == 200
    assert recheck(cert)
