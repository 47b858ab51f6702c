"""Tests for the staged certificate runner and its CLI."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import autcert
from autcert import __version__, cremona, fibration, fingen, pipeline, surface
from autcert.__main__ import main
from autcert.mwl import ModInt, SectionData
from autcert.lattice import RootType, gram_rank, signature
from autcert.pipeline import (
    STAGE_ORDER,
    CertificateReport,
    Context,
    PipelineOptions,
    _stringify,
    run_all,
    run_stage,
)
from autcert.scalars import MultiPoly
from autcert.surface import Configuration, build_double_kummer, extend_with_conics

EXPECTED_STAGES = (
    "config",
    "cremona",
    "quotient",
    "fibrations",
    "lattice",
    "heights",
    "canonical",
    "dynamics",
    "nonfg",
)


@pytest.fixture(scope="module")
def default_report() -> CertificateReport:
    return run_all()


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


# -- run_all -----------------------------------------------------------------------


def test_default_run_passes(default_report):
    assert default_report.verdict == "pass"
    assert [s.name for s in default_report.stages] == list(EXPECTED_STAGES)
    assert all(s.status == "pass" for s in default_report.stages)
    assert STAGE_ORDER == EXPECTED_STAGES


def test_every_stage_is_anchored(default_report):
    for stage in default_report.stages:
        assert stage.anchor.strip()
        assert stage.evidence["checks"]
        for check in stage.evidence["checks"]:
            assert check["claim"].strip()


def test_external_inputs_carry_citations(default_report):
    by_name = {s.name: s for s in default_report.stages}
    cited = {
        "quotient": "Mukai",
        "fibrations": "Oguiso",
        "lattice": "Shioda",
        "heights": "Oguiso",
        "canonical": "Barth",
        "dynamics": "Kodaira",
        "nonfg": "Ueno",
    }
    for name, author in cited.items():
        externals = by_name[name].evidence["external_inputs"]
        assert externals, name
        assert any(author in e["citation"] for e in externals), name
        assert all(e["status"] == "external-input" for e in externals)
    for name in ("config", "cremona"):
        assert "external_inputs" not in by_name[name].evidence


def test_height_display_discrepancy_is_flagged(default_report):
    heights = next(s for s in default_report.stages if s.name == "heights")
    notes = [a["note"] for a in heights.evidence["annotations"]]
    assert any("evaluates to 4" in n and "2*2 + 2*0 - 2 - 2 = 0" in n for n in notes)


@pytest.fixture(scope="module")
def sample_reports(default_report) -> tuple[CertificateReport, ...]:
    """The default report, the E2,C32 faulted report and the K = 12 nonfg report."""
    faulted = run_all(PipelineOptions(corrupt_pair=("E2", "C32")))
    options = PipelineOptions(max_gens=12)
    deep = CertificateReport(__version__, options, (run_stage("nonfg", options),), "pass")
    return default_report, faulted, deep


def test_json_numbers_are_strings(sample_reports):
    for report in sample_reports:
        blob = json.loads(report.to_json())
        assert set(blob) == {"version", "options", "stages", "verdict"}
        for stage in blob["stages"]:
            assert set(stage) == {"name", "status", "anchor", "evidence"}
        for leaf in _leaves(blob):
            assert leaf is None or isinstance(leaf, (str, bool)), repr(leaf)


def test_reports_are_canonical_compact_json(sample_reports):
    # RFC 8785-style: sorted keys, no insignificant whitespace, ASCII only
    for report in sample_reports:
        text = report.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        assert text.isascii()
        assert text.index("\n") == len(text) - 1


def test_default_report_sha256_is_the_regression_anchor(sample_reports):
    """The default report's bytes, and three deeper nonfg reports', are pinned by sha256.

    The K = 12 certificate has two-digit exponents and witness indices;
    the K = 80 one is the report of the benchmark's ``nonfg_deep`` op,
    and the K = 1000 one has four-digit exponents.  A deliberate change
    of the report format updates these values and records the new ones
    in CHANGES.md.
    """
    default_report, _, deep = sample_reports

    def nonfg_report(max_gens):
        options = PipelineOptions(max_gens=max_gens)
        return CertificateReport(__version__, options, (run_stage("nonfg", options),), "pass")

    deep80 = nonfg_report(80)
    assert len(deep80.to_json().encode("utf-8")) == 10632
    pinned = [
        (default_report, "1f0030821a87213185e07eea20be96f35b49cde085ba432149bfb1bfa82c150d"),
        (deep, "ae90905044d5b5d7fb21f54266eb5d2d1cb3dc483d8abd601530fb9d428aa767"),
        (deep80, "e1b079e0087dd96fe709fb93e6fffc8b7d699d06674abbf2a255c209a92bc619"),
        (nonfg_report(1000), "6d04915fe07bdcaac86491baac2d5bd1f207c941c967cd6f9ef96f71aa07b289"),
    ]
    for report, expected in pinned:
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == expected


# sha256 of run_all(options).to_json(), recorded when reports became
# compact JSON; re-indented, each report reproduces the indented bytes
# pinned before the lattice and swap kernels moved from Fraction to int.
# The faulted reports print verify_isometry's before/after pairings in
# their witnesses, once each.  A deliberate format change updates this
# table and records it in CHANGES.md.
PINNED_REPORTS = {
    **{
        PipelineOptions(seed=s): digest
        for s, digest in enumerate(
            [
                "1f0030821a87213185e07eea20be96f35b49cde085ba432149bfb1bfa82c150d",
                "5d103bb03d60e43e1cd4a2ccd2225cb99b96139dbf46aac17c3fbaffa04c5e9e",
                "1d2605e32d4d8e33c4810111d2395e87abd60bfa741b1b99ad9e3b421d74ee33",
                "7258ef55f1f53bc20d196b30e5a0203a419ba5feb4d357d1491d4339ddb00cb0",
                "3abeac97902448faff0f7b55289f30c25d22e566f5419835595e12924f820888",
                "915493bf028946e10a539342cf4afa66c4fb9d14c2cb97cc5963eada0b6deb48",
                "3508f1b384b5b3b545ff5e4239497d58e0d451f37e53a4c6479e62f8de620af4",
                "e4944ba45a0875e833f6bc737015eeac0d3d0d0d4f38e27e1139882eb05fe907",
                "96adc38cfed39472b05b0d11ddce68eca5ebefb35dd3a29ba2acf94c2164590b",
                "0586f1c7d8dfbef65dfb7a719070b44e994f5c9db8f22056d756a66d2d11091c",
                "3ed9b94fc21096604d199b70f012e1cd269e2583b3c98c7f1d7a27a15ae397b1",
                "576a7436a4c494364008ac2666961068b7c9627dd53b0c2529fb49715442742d",
            ]
        )
    },
    **{
        PipelineOptions(corrupt_pair=pair): digest
        for pair, digest in [
            (("E1", "C11"), "3418496bf219172dcf6fd1095f59b79c4040ef90353ef0be6fffeb834d640249"),
            (("E2", "C2"), "136633a0d308e03d349095405e18491e16d74017c2733bea3d128dc1b5d67818"),
            (("F3", "C32"), "9924369196a972e520e75ce4b1624bb6c3d34812bb28684a82c9eddf6bb73faf"),
            (("F4", "C44"), "f286e289255efd316a866ea28716038278c1696d511885d7906aadf9cf33b92f"),
            (("C11", "C2"), "aa358664cee569bda8c95ab407175c19b40ad0c59d7acc3d95637165a4226098"),
            (("C33", "C4"), "fe0ba7d1b3cfa03ceb4123851deae4f46e3fe26ff1443232198be34123261452"),
        ]
    },
}


@pytest.mark.parametrize(
    "options",
    list(PINNED_REPORTS),
    ids=lambda o: "-".join(o.corrupt_pair) if o.corrupt_pair else f"seed{o.seed}",
)
def test_report_sha256_matches_the_pinned_table(options):
    report = run_all(options)
    assert report.verdict == ("fail" if options.corrupt_pair else "pass")
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == PINNED_REPORTS[options]


def test_stringify_keeps_booleans_in_integer_tuples():
    assert _stringify((1, -20)) == ["1", "-20"]
    assert _stringify((1, True)) == ["1", True]


def test_a_check_takes_a_witness_not_a_flag():
    assert pipeline._check("claim", None) == {"claim": "claim", "status": "pass"}
    assert pipeline._check("claim", "x 1; expected 2")["status"] == "fail"
    for flag in (True, False, 0):
        with pytest.raises(TypeError, match="witness"):
            pipeline._check("claim", flag)


def test_stringify_refuses_a_set():
    # a set has no order of its own for a report to keep
    for unordered in ({"E1", "F1"}, frozenset({1, 2}), {"x": [set()]}):
        with pytest.raises(TypeError, match="set"):
            _stringify(unordered)


def test_report_is_deterministic():
    options = PipelineOptions(max_gens=2, seed=0)
    assert run_all(options).to_json() == run_all(options).to_json()


def test_corrupted_intersection_fails_every_reader():
    report = run_all(PipelineOptions(max_gens=1, corrupt_pair=("E2", "C32")))
    assert report.verdict == "fail"
    by_name = {s.name: s for s in report.stages}
    config = by_name["config"]
    assert config.status == "fail"
    swap = next(
        c for c in config.evidence["checks"] if "no fixed curve" in c["claim"]
    )
    assert swap["witness"] == "E2,C32: 0; image F2,C23: 1"
    assert "failures" not in swap
    # the signature and rank claims name the measured figure and the expected one
    assert [c.get("witness") for c in config.evidence["checks"]] == [
        "signature (2, 18, 4); expected (1, 17, 6)",
        "rank 20; expected 18",
        swap["witness"],
    ]
    clean = run_stage("config").evidence["checks"]
    assert [c["status"] for c in clean] == ["pass"] * 3
    assert not any("witness" in c for c in clean)
    for name in ("quotient", "fibrations", "lattice", "canonical"):
        assert by_name[name].status == "fail", name
    for stage in report.stages[1:]:
        if stage.status == "fail":
            failed = [c for c in stage.evidence["checks"] if c["status"] == "fail"]
            assert any(c.get("witness") for c in failed), stage.name
    assert by_name["cremona"].status == by_name["nonfg"].status == "pass"


# The nonzero off-diagonal entries of the 28-curve Gram matrix in
# row-major order; Tier-1 runs every 4th, 13 of the 52.
FAULT_PAIRS = [
    (x.labels[i], x.labels[j])
    for x in [extend_with_conics(build_double_kummer())]
    for i in range(len(x.labels))
    for j in range(i + 1, len(x.labels))
    if x.gram[i][j]
]
FAULT_SAMPLE = FAULT_PAIRS[::4]


def test_the_28_curves_share_the_construction_tables_one_gram():
    # every build reads the one Gram stored at import; the 24 Kummer
    # curves are its leading block
    k = build_double_kummer()
    x = extend_with_conics(k)
    assert x.gram is surface._GRAM
    assert [row[:24] for row in x.gram[:24]] == list(k.gram)
    assert len(FAULT_PAIRS) == 52


def kind_dicts(value):
    """Every dict carrying ``kind`` at or below a JSON value."""
    if isinstance(value, dict):
        if "kind" in value:
            yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from kind_dicts(item)


@pytest.mark.parametrize("pair", FAULT_SAMPLE, ids=",".join)
def test_every_failed_check_holds_one_witness_string(pair):
    # a failure has one shape: a witness string; only a stage that raised
    # adds its kind and detail, on the check record itself
    report = json.loads(run_all(PipelineOptions(max_gens=1, corrupt_pair=pair)).to_json())
    failed = [
        c for s in report["stages"] for c in s["evidence"]["checks"] if c["status"] == "fail"
    ]
    assert failed
    for check in failed:
        witness = check.get("witness")
        assert witness and isinstance(witness, str), check["claim"]
        assert "failures" not in check, check["claim"]
        below = [d for value in check.values() for d in kind_dicts(value)]
        assert below == [], check["claim"]
        assert check.get("kind", "stage-raised") == "stage-raised"


@pytest.mark.parametrize("pair", FAULT_SAMPLE, ids=",".join)
def test_injected_fault_fails_without_raising(pair):
    options = PipelineOptions(max_gens=1, corrupt_pair=pair)
    report = run_all(options)
    assert report.verdict == "fail"
    for name in ("config", "quotient", "fibrations", "lattice", "heights", "canonical"):
        assert report.stages[STAGE_ORDER.index(name)].status == "fail", name
    for k, name in enumerate(STAGE_ORDER):
        assert run_stage(name, options).to_json_dict() == report.stages[k].to_json_dict()


def test_ranks_read_off_the_signatures_match_bareiss():
    # the pipeline takes each rank from the congruence that gives the
    # signature; Bareiss elimination is the independent second route
    for pair in [None, *FAULT_PAIRS]:
        ctx = pipeline.Context(PipelineOptions(corrupt_pair=pair))
        # the 24 Kummer curves are x's leading block, faulted when both labels are among them
        kummer = [row[:24] for row in ctx.x.gram[:24]]
        assert gram_rank(kummer) == sum(signature(kummer)[:2]), pair
        assert ctx.x_signatures == (signature(kummer), signature(ctx.x.gram)), pair
        assert ctx.x_rank == gram_rank(ctx.x.gram), pair
        try:
            z = ctx.z
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc)):
                ctx.z_rank
            with pytest.raises(type(exc)):
                gram_rank(ctx.z.gram)
        else:
            assert ctx.z_rank == gram_rank(z.gram), pair


def counted(monkeypatch, counts, module, name):
    """Wrap module.name so each call adds one to counts[name]."""
    func = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return func(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_a_fact_that_raised_fails_each_reader_with_one_witness():
    report = run_all(PipelineOptions(max_gens=1, corrupt_pair=("E2", "C32")))
    # every stage that reads the quotient rebuilds it and fails with the one
    # witness, which names the pair the isometry check rejected
    for name in ("quotient", "fibrations", "lattice", "heights", "canonical"):
        (check,) = report.stages[STAGE_ORDER.index(name)].evidence["checks"]
        assert check["witness"] == (
            "the involution fails the isometry check: E2,C32: 0; image F2,C23: 1"
        ), name


def test_each_named_fiber_is_validated_and_classified_once(monkeypatch):
    counts: dict = {}
    counted(monkeypatch, counts, fibration, "validate_fiber")
    for module in (pipeline, fibration):
        counted(monkeypatch, counts, module, "classify_kodaira")
    # the pipeline validates a fiber only by classifying it
    assert not hasattr(pipeline, "validate_fiber")
    run_all(PipelineOptions(max_gens=1))
    assert counts == {"validate_fiber": 6, "classify_kodaira": 6}
    # a stage run alone classifies only the fibers it reads
    for name, classified in (("dynamics", 1), ("quotient", 0)):
        counts.clear()
        run_stage(name)
        expected = dict.fromkeys(("validate_fiber", "classify_kodaira"), classified)
        assert {k: counts.get(k, 0) for k in expected} == expected, name
    # and classifying a fiber looks up each component's Gram index once
    ctx = Context(PipelineOptions())
    configs = {name: ctx.z if name.startswith("M") else ctx.x for name in ctx.fibers}
    lookups = []
    real = Configuration.index
    monkeypatch.setattr(
        Configuration, "index", lambda config, label: lookups.append(label) or real(config, label)
    )
    for name, fiber in ctx.fibers.items():
        lookups.clear()
        fibration.classify_kodaira(configs[name], fiber)
        assert sorted(lookups) == list(fiber.labels()), name


def test_the_isometry_check_and_each_congruence_run_once_per_run(monkeypatch):
    counts: dict = {}
    for module in (pipeline, surface):
        counted(monkeypatch, counts, module, "verify_isometry")
    counted(monkeypatch, counts, pipeline, "signature")
    runs = [
        # the 28-curve congruence gives the 24-curve inertia too
        (lambda: run_all(PipelineOptions(max_gens=1)), 2),
        # a broken isometry leaves no quotient to eliminate
        (lambda: run_all(PipelineOptions(max_gens=1, corrupt_pair=("E2", "C32"))), 1),
        (lambda: run_stage("config"), 1),
        (lambda: run_stage("quotient"), 1),
    ]
    for k, (run, signatures) in enumerate(runs):
        counts.clear()
        run()
        assert counts == {"verify_isometry": 1, "signature": signatures}, k


def test_gram_entries_are_read_by_index(monkeypatch):
    counts: dict = {}
    counted(monkeypatch, counts, Configuration, "pairing")
    run_all()
    # the quotient stage's four sample pairs are the only label lookups
    assert counts.get("pairing", 0) <= 4


def test_stage_bug_still_propagates(monkeypatch):
    def broken(ctx):
        raise TypeError("a bug, not a failed check")

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "lattice", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_all()
    with pytest.raises(TypeError, match="a bug"):
        run_stage("lattice")


SWAP_CLAIM = (
    "at a seeded sample of parameter values the involution swaps the "
    "two rulings of the smooth quadric, exchanging all 12 marked "
    "intersection points in pairs"
)


def no_swap_passes(mp):
    mp.setattr(cremona, "verify_pij_swap", lambda triple, *rest: SimpleNamespace(passed=False))


CREMONA_QUADRIC = (
    "substituting the map into the quadric returns the cofactor "
    "a1*a2*a3*x1*x2*x3*x4"
)
CREMONA_INVOLUTION = (
    "composing the map with itself gives the identity times the "
    "squared cofactor"
)
CREMONA_CONTRACTION = "each coordinate plane contracts to the matching coordinate point"


def swap_x1_x2(mp):
    """The linear map exchanging x1 and x2 in place of the Cremona involution:
    an involution of P3, but without the cofactor, and no plane contracts."""
    swap = cremona.RationalMapP3(tuple(MultiPoly.var(x) for x in ("x2", "x1", "x3", "x4")))
    mp.setattr(pipeline, "cremona_map", lambda: swap)


def exchange_components_1_2(mp):
    """The Cremona map with its first two components exchanged: every
    plane still contracts to one point, but plane 1 to e2 and plane 2 to e1."""
    a, b, c, d = cremona.cremona_map().components
    mp.setattr(pipeline, "cremona_map", lambda: cremona.RationalMapP3((b, a, c, d)))


def test_a_failed_cofactor_claim_carries_its_witness(monkeypatch, capsys):
    swap_x1_x2(monkeypatch)
    checks = {c["claim"]: c for c in run_stage("cremona").evidence["checks"]}
    assert checks[CREMONA_QUADRIC]["witness"] == (
        "q(map) = a1*x1*x3 + a2*x2*x3 + a3*x1*x2 + x1*x4 + x2*x4 + x3*x4"
    )
    assert checks[CREMONA_INVOLUTION]["witness"] == (
        "component 1: x1; component 2: x2; component 3: x3; component 4: x4"
    )
    # no plane contracts: each keeps three of the four components
    assert checks[CREMONA_CONTRACTION]["witness"] == (
        "plane 1: (1, 0, 1, 1); plane 2: (0, 1, 1, 1); "
        "plane 3: (1, 1, 0, 1); plane 4: (1, 1, 1, 0)"
    )
    assert checks[SWAP_CLAIM]["witness"] == "found 0 of 3 passing triples in 5000 draws"
    assert main(["cremona"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"  failed: {CREMONA_QUADRIC}" in lines
    assert sum(line.startswith("    witness: ") for line in lines) == 4


def test_a_contraction_to_the_wrong_point_names_only_the_planes_that_miss(monkeypatch):
    exchange_components_1_2(monkeypatch)
    checks = {c["claim"]: c for c in run_stage("cremona").evidence["checks"]}
    assert checks[CREMONA_CONTRACTION]["status"] == "fail"
    assert checks[CREMONA_CONTRACTION]["witness"] == "plane 1: (0, 1, 0, 0); plane 2: (1, 0, 0, 0)"


def test_a_short_swap_search_counts_the_triples_it_found(monkeypatch):
    real = cremona.verify_pij_swap

    def only_9_2_2(triple, *rest):
        return real(triple, *rest) if tuple(triple) == (9, 2, 2) else SimpleNamespace(passed=False)

    monkeypatch.setattr(cremona, "verify_pij_swap", only_9_2_2)
    checks = {c["claim"]: c for c in run_stage("cremona").evidence["checks"]}
    assert checks[SWAP_CLAIM]["status"] == "fail"
    assert [r["alpha"] for r in checks[SWAP_CLAIM]["specializations"]] == [["9", "2", "2"]]
    assert checks[SWAP_CLAIM]["witness"] == "found 1 of 3 passing triples in 5000 draws"


def test_exhausted_swap_search_fails_the_cremona_stage(monkeypatch):
    no_swap_passes(monkeypatch)
    stage = run_stage("cremona")
    assert stage.status == "fail"
    failed = [c for c in stage.evidence["checks"] if c["status"] == "fail"]
    assert [c["claim"] for c in failed] == [SWAP_CLAIM]
    assert failed[0]["specializations"] == []
    assert failed[0]["witness"] == "found 0 of 3 passing triples in 5000 draws"
    assert not any(c.get("kind") == "stage-raised" for c in stage.evidence["checks"])


# -- run_stage ----------------------------------------------------------------------


def test_run_stage_matches_run_all_fragment(default_report):
    for k, name in enumerate(EXPECTED_STAGES):
        alone = run_stage(name)
        assert alone.to_json_dict() == default_report.stages[k].to_json_dict()


def test_run_stage_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown stage"):
        run_stage("bogus")


def test_nonfg_stage_respects_max_gens():
    stage = run_stage("nonfg", PipelineOptions(max_gens=10))
    cert = stage.evidence["certificate"]
    assert len(cert["stages"]) == 10
    assert cert["stages"][9]["escape_exponent"] == "10"


def test_nonfg_stage_fails_when_a_refutation_finds_a_member(monkeypatch):
    real = fingen.membership

    def always_member(gens, target):
        witness = real(gens, target)
        return {0: 1} if witness is None else witness

    monkeypatch.setattr(fingen, "membership", always_member)
    stage = run_stage("nonfg", PipelineOptions(max_gens=3))
    assert stage.status == "fail"
    (check,) = stage.evidence["checks"]
    assert check["status"] == "fail"
    assert check["witness"] == "stage 1: (t^-2)*a lies in the span of the first 1 shifts"
    assert "passed" not in stage.evidence["certificate"]


def quotient_verdicts():
    return {c["claim"]: c["status"] for c in run_stage("quotient").evidence["checks"]}


def quotient_witnesses():
    return {c["claim"]: c.get("witness") for c in run_stage("quotient").evidence["checks"]}


QUOTIENT_LATTICE = "the quotient classes span a rank-10 lattice of signature (1, 9)"
QUOTIENT_MARKING = (
    "the distinguished marked point descends to the class H2 with "
    "affine coordinate at infinity"
)


WRONG_QUOTIENT_SIGNATURE = "signature (2, 8, 4); expected (1, 9, 4)"


def finite_q32(mp):
    """Q32 lies on H2 at the finite coordinate 0."""
    mp.setattr(Configuration, "marking_coord", lambda config, point, curve: MultiPoly.const(0))


def wrong_quotient_signature(mp):
    """Rank 10, but the signature is wrong; x's congruence is untouched."""
    real = pipeline.signature
    mp.setattr(
        pipeline,
        "signature",
        lambda gram, leading=None: real(gram, leading) if leading else (2, 8, 4),
    )


@pytest.mark.parametrize(
    "patch, failing, witness",
    [
        (wrong_quotient_signature, QUOTIENT_LATTICE, WRONG_QUOTIENT_SIGNATURE),
        (finite_q32, QUOTIENT_MARKING, "coordinate 0; expected inf"),
    ],
    ids=["signature", "marking"],
)
def test_each_quotient_condition_fails_its_own_check(monkeypatch, patch, failing, witness):
    verdicts = quotient_verdicts()
    assert set(verdicts.values()) == {"pass"}
    assert set(quotient_witnesses().values()) == {None}
    patch(monkeypatch)
    assert quotient_verdicts() == {claim: "fail" if claim == failing else "pass" for claim in verdicts}
    assert quotient_witnesses() == {
        claim: witness if claim == failing else None for claim in verdicts
    }


DYNAMICS_GLUING = (
    "the marked points P22 on E2 and P2 on F2 carry the same affine "
    "coordinate t, so the two translation actions glue"
)
DYNAMICS_SUM = (
    "the component indices of C11 and C2 in the 8-cycle sum to 4 "
    "mod 8, so the induced action shifts components by 4 and its "
    "square by 0"
)
DYNAMICS_CONJUGATION = (
    "conjugating the translation x -> x + a by the n-th power of "
    "x -> t^2 x yields x -> x + t^(-2n) a for n = 1..10, each "
    "fixing the point at infinity"
)
NONFG_CHAIN = (
    "every one of the nested spans verified: stage k refutes "
    "membership of t^(-2k) a in the span of the first k shifts and "
    "confirms it in the span of the first k+1"
)


def move_p2(mp):
    """Build the 28 curves with P2 at u = s on F2 in place of u = t."""
    real = pipeline.extend_with_conics

    def moved(kummer):
        x = real(kummer)
        p2 = {"F2": MultiPoly.var("s"), "C2": None}
        markings = {**x.markings, "P2": p2}
        return Configuration(x.tag, x.labels, x.gram, markings)

    mp.setattr(pipeline, "extend_with_conics", moved)


def move_p22_and_p2(mp):
    """Build the 28 curves with P22 on E2 and P2 on F2 both at s: they
    still agree, but not at t."""
    real = pipeline.extend_with_conics

    def moved(kummer):
        x = real(kummer)
        s = MultiPoly.var("s")
        markings = {**x.markings, "P22": {"E2": s, "C22": None}, "P2": {"F2": s, "C2": None}}
        return Configuration(x.tag, x.labels, x.gram, markings)

    mp.setattr(pipeline, "extend_with_conics", moved)


def move_c2_index(mp):
    """Move C2's component index in N1 by one, so the component sum is 5
    mod 8 in place of 4."""
    real = pipeline.section_from_config

    def moved(config, cycles, section, zero):
        data = real(config, cycles, section, zero)
        if section != "C2":
            return data
        shifted = {fid: m + ModInt(1, m.modulus) for fid, m in data.components.items()}
        return SectionData(data.name, data.dot_zero, shifted)

    mp.setattr(pipeline, "section_from_config", moved)


def wrong_scaling_power(mp):
    """scaling(s) acts as scaling(s^2 * t^-2).  The one conjugation, by
    scaling(t) with t standing for u, then scales by 1: the conjugate is
    translate(1) and every substituted shift reads 1, so the dynamics
    check fails at every n, and every nonfg generator is 1, so stage 1's
    escape t^-2 misses the next span."""
    real = cremona.scaling
    mp.setattr(cremona, "scaling", lambda s: real({2 * k - 2: c * c for k, c in s.items()}))


def doubled_conjugate_scale(mp):
    """The conjugated map keeps its shift u^-1, so each substituted shift
    is t^(-2n), but scales by 2: no translation, while nonfg, which reads
    the shifts alone, still gets the generators t^(-2n)."""
    real = pipeline.conjugate_translation
    mp.setattr(
        pipeline,
        "conjugate_translation",
        lambda u: cremona.AffineMap({0: 2}, dict(real(u).shift)),
    )


QUOTIENT_HALVING = (
    "pushed-forward pairings halve the upstairs orbit pairings and "
    "every class stays a (-2)-class"
)
FIBRATIONS_INVOLUTION = (
    "the involution images of the upstairs divisors are disjoint "
    "from them and classify identically"
)
LATTICE_E6 = (
    "the orthogonal complement of E6 inside E8 reduces to the Gram "
    "matrix [[2, -1], [-1, 2]] of the root lattice A2"
)


def unhalved_sample(mp):
    """H2 . D32 reads 2 where the halved orbit pairing is 1; every class
    keeps self-intersection -2."""
    real = Configuration.pairing
    mp.setattr(
        Configuration,
        "pairing",
        lambda config, a, b: 2 if (a, b) == ("H2", "D32") else real(config, a, b),
    )


def class_off_minus_two(mp):
    """D11 reads self-intersection -1; every sampled pairing is still halved."""
    real = Configuration.self_int
    mp.setattr(Configuration, "self_int", lambda config, a: -1 if a == "D11" else real(config, a))


def misclassified_eps_cycle(mp):
    """The involution image of the 8-cycle, the one fiber holding C24,
    classifies as I7; its support is still disjoint from the cycle's."""
    real = pipeline.classify_kodaira
    mp.setattr(
        pipeline,
        "classify_kodaira",
        lambda config, fiber: fibration.FiberClass(fibration.KodairaType("I", 7))
        if "C24" in fiber.components
        else real(config, fiber),
    )


def eps_images_in_place(mp):
    """Each upstairs divisor is its own involution image: same type, same support."""
    real = pipeline.map_fiber
    mp.setattr(
        pipeline,
        "map_fiber",
        lambda fiber, curve_map: real(fiber, curve_map)
        if curve_map is surface.QUOTIENT_CLASS
        else fiber,
    )


def unnormalized_reduction(mp):
    """The reduction keeps the sign +1 off the diagonal, and the classifier
    reads A2 off any form, so only the reduced matrix shows the slip."""
    mp.setattr(pipeline, "gauss_reduce_rank2", lambda gram: ((2, 1), (1, 2)))
    mp.setattr(pipeline, "dynkin_classify", lambda gram: RootType("A", 2))


def misread_a2(mp):
    """The classifier reads the reduced hexagonal form as A1."""
    mp.setattr(pipeline, "dynkin_classify", lambda gram: RootType("A", 1))


CONFIG_SIGNATURE = "the 24-curve intersection form has signature (1, 17)"
CONFIG_RANK = "adjoining the four extra curves keeps the rank at 18"
CONFIG_ISOMETRY = (
    "the curve swap E_i <-> F_i, C_ij <-> C_ji, C_ii <-> C_i is an "
    "isometry with no fixed curve"
)
CREMONA_DETERMINANT = (
    "the symmetric matrix of the quadric has a nonzero determinant, "
    "so the generic member is smooth"
)
FIBRATIONS_TYPES = (
    "the two divisors upstairs and their pushforwards downstairs "
    "classify as Kodaira types I8 and IV*"
)
LATTICE_RANK_UP = (
    "rank 18 minus 2 minus the 14 non-identity components of two I8 "
    "fibers leaves Mordell-Weil rank 2"
)
LATTICE_RANK_DOWN = (
    "rank 10 minus 2 minus the 6 non-identity components of one IV* "
    "fiber leaves Mordell-Weil rank 2 on the rational elliptic "
    "surface"
)
LATTICE_EULER = (
    "known reducible fibers never exceed the Euler number budget of "
    "the surface carrying them"
)
HEIGHT_CLAIMS = {
    "C12": (
        "the section C12 has height 0 against the zero section C21 and "
        "doubling its component indices lands on the identity, so its "
        "class is 2-torsion"
    ),
    "C11": "the section C11 has height 2",
    "C22": (
        "re-basing at the zero section C11, the section C22 has height "
        "0, so the difference of the classes of C22 and C11 is torsion "
        "and equals the unique nonzero torsion class"
    ),
    "P": (
        "a section of the IV* fibration through the identity component "
        "and disjoint from the zero section has height 2"
    ),
}
CANONICAL_COEFFICIENTS = (
    "after blowing up the marked point and then three points on its "
    "exceptional curve, twice the canonical class is 2 E_inf' + "
    "4 (E321 + E322 + E323)"
)
CANONICAL_SELF_INTERSECTION = (
    "the twice-blown-up exceptional curve E_inf' has "
    "self-intersection -4"
)


def one_more_negative(block: int):
    """The congruence of x's Gram reads one more negative and one fewer
    null eigenvalue in one of its two inertias: block 0 is the leading
    24 x 24 block, block 1 the whole 28-curve form."""
    real = pipeline.signature

    def wrong(gram, leading=None):
        if leading is None:
            return real(gram)
        pair = list(real(gram, leading=leading))
        pos, neg, null = pair[block]
        pair[block] = (pos, neg + 1, null - 1)
        return tuple(pair)

    return lambda mp: mp.setattr(pipeline, "signature", wrong)


def fixed_curve(mp):
    """The swap maps E1 and F1 to themselves, so the real isometry check
    rejects it, and the record's fixed labels come from that permutation."""
    real = pipeline.epsilon_involution

    def fixing(config):
        eps = real(config)
        return surface.IsometryPerm({**eps.curve_map, "E1": "E1", "F1": "F1"}, eps.point_map)

    mp.setattr(pipeline, "epsilon_involution", fixing)


def doubled_cofactor(mp, name):
    """The stage multiplies back twice the claimed cofactor, or its square."""
    mp.setattr(pipeline, name, getattr(pipeline, name).scale(2))


def plane_1_to_nothing(mp):
    """Plane 1 contracts to no point: no component survives on it."""
    real = pipeline.contraction_check
    mp.setattr(pipeline, "contraction_check", lambda tau, i: (0,) * 4 if i == 1 else real(tau, i))


def singular_quadric(mp):
    mp.setattr(cremona.QuadricForm, "determinant", lambda q: 0)


def misclassified_cycle(mp):
    """The 8-cycle N1, the one fiber holding C42, classifies as I7; its
    involution image still classifies as I8."""
    real = pipeline.classify_kodaira
    mp.setattr(
        pipeline,
        "classify_kodaira",
        lambda config, fiber: fibration.FiberClass(fibration.KodairaType("I", 7))
        if "C42" in fiber.components
        else real(config, fiber),
    )


def one_more_rank(fibers: int):
    """Shioda-Tate leaves one more rank for the fibration with ``fibers``
    reducible fibers: 2 is the I8 + I8 one, 1 the IV* one."""
    real = pipeline.shioda_tate_rank
    return lambda mp: mp.setattr(
        pipeline,
        "shioda_tate_rank",
        lambda rho, types: real(rho, types) + (len(types) == fibers),
    )


def heavy_i8(mp):
    """An I8 fiber counts 14 against the Euler budget in place of 8."""
    real = pipeline.euler_number
    mp.setattr(pipeline, "euler_number", lambda kt: real(kt) + 6 * (str(kt) == "I8"))


def one_more_height(section: str):
    """The named section's height reads 1 more."""
    real = pipeline.height
    return lambda mp: mp.setattr(
        pipeline,
        "height",
        lambda chi, types, s: real(chi, types, s) + (s.name == section),
    )


def halved_e321(mp):
    real = pipeline.canonical_multiple
    mp.setattr(pipeline, "canonical_multiple", lambda ledger: {**real(ledger), "E321": 2})


def self_intersection_minus_3(mp):
    mp.setattr(surface.BlowupLedger, "self_intersection", lambda ledger, label: -3)


def move_c2_index_by_4(mp):
    """Move C2's component index in N1 by 4, so the component sum is 0
    mod 8: doubled, it is still 0, but it is not 4."""
    real = pipeline.section_from_config

    def moved(config, cycles, section, zero):
        data = real(config, cycles, section, zero)
        if section != "C2":
            return data
        shifted = {fid: m + ModInt(4, m.modulus) for fid, m in data.components.items()}
        return SectionData(data.name, data.dot_zero, shifted)

    mp.setattr(pipeline, "section_from_config", moved)


def doubling_misread(mp):
    """ModInt addition gets a doubling, x + x for one object x, one too
    high; every other sum stays right, so only C12's doubled component
    indices miss the identity, while its height stays 0."""
    real = ModInt.__add__
    mp.setattr(
        ModInt,
        "__add__",
        lambda a, b: real(real(a, b), ModInt(1, a.modulus)) if a is b else real(a, b),
    )


def every_span_holds_the_escape(mp):
    """Every membership query finds a witness, so stage 1's refutation fails."""
    real = fingen.membership
    mp.setattr(fingen, "membership", lambda gens, target: real(gens, target) or {0: 1})


@pytest.mark.parametrize(
    "names, patch, failing",
    [
        (("quotient",), unhalved_sample, {QUOTIENT_HALVING}),
        (("quotient",), class_off_minus_two, {QUOTIENT_HALVING}),
        (("fibrations",), misclassified_eps_cycle, {FIBRATIONS_INVOLUTION}),
        (("fibrations",), eps_images_in_place, {FIBRATIONS_INVOLUTION}),
        (("lattice",), unnormalized_reduction, {LATTICE_E6}),
        (("lattice",), misread_a2, {LATTICE_E6}),
        (("dynamics",), move_p2, {DYNAMICS_GLUING}),
        (("dynamics",), move_p22_and_p2, {DYNAMICS_GLUING}),
        (("dynamics",), move_c2_index, {DYNAMICS_SUM}),
        (("dynamics", "nonfg"), wrong_scaling_power, {DYNAMICS_CONJUGATION, NONFG_CHAIN}),
        (("dynamics", "nonfg"), doubled_conjugate_scale, {DYNAMICS_CONJUGATION}),
        (("cremona",), no_swap_passes, {SWAP_CLAIM}),
        (
            ("cremona",),
            swap_x1_x2,
            {CREMONA_QUADRIC, CREMONA_INVOLUTION, CREMONA_CONTRACTION, SWAP_CLAIM},
        ),
        (
            ("cremona",),
            exchange_components_1_2,
            {CREMONA_QUADRIC, CREMONA_INVOLUTION, CREMONA_CONTRACTION, SWAP_CLAIM},
        ),
        (("config",), one_more_negative(0), {CONFIG_SIGNATURE}),
        (("config",), one_more_negative(1), {CONFIG_RANK}),
        (("config",), fixed_curve, {CONFIG_ISOMETRY}),
        (("quotient",), wrong_quotient_signature, {QUOTIENT_LATTICE}),
        (("quotient",), finite_q32, {QUOTIENT_MARKING}),
        (("cremona",), lambda mp: doubled_cofactor(mp, "_COFACTOR"), {CREMONA_QUADRIC}),
        (("cremona",), lambda mp: doubled_cofactor(mp, "_COFACTOR2"), {CREMONA_INVOLUTION}),
        (("cremona",), plane_1_to_nothing, {CREMONA_CONTRACTION}),
        (("cremona",), singular_quadric, {CREMONA_DETERMINANT}),
        (("fibrations",), misclassified_cycle, {FIBRATIONS_TYPES}),
        (("lattice",), one_more_rank(2), {LATTICE_RANK_UP}),
        (("lattice",), one_more_rank(1), {LATTICE_RANK_DOWN}),
        (("lattice",), heavy_i8, {LATTICE_EULER}),
        *[
            (("heights",), one_more_height(section), {claim})
            for section, claim in HEIGHT_CLAIMS.items()
        ],
        (("canonical",), halved_e321, {CANONICAL_COEFFICIENTS}),
        (("canonical",), self_intersection_minus_3, {CANONICAL_SELF_INTERSECTION}),
        (("heights",), doubling_misread, {HEIGHT_CLAIMS["C12"]}),
        (("dynamics",), move_c2_index_by_4, {DYNAMICS_SUM}),
        (("nonfg",), every_span_holds_the_escape, {NONFG_CHAIN}),
    ],
    ids=[
        "halving", "minus-two-class", "involution-image-type", "involution-image-support",
        "e6-reduction", "e6-classification",
        "gluing", "gluing-away-from-t", "component-index", "conjugation",
        "conjugation-scale", "exhausted-search", "coordinate-swap",
        "contraction-to-the-wrong-point",
        "kummer-signature", "rank", "fixed-curve", "quotient-signature", "finite-marking",
        "quadric-cofactor", "involution-cofactor", "uncontracted-plane", "determinant",
        "fiber-type", "rank-up", "rank-down", "euler-budget",
        *[f"height-{section}" for section in HEIGHT_CLAIMS],
        "canonical-coefficients", "self-intersection", "c12-doubling", "component-sum",
        "chain",
    ],
)
def test_each_touched_check_fails_under_its_own_name(monkeypatch, names, patch, failing):
    claims = [c["claim"] for name in names for c in run_stage(name).evidence["checks"]]
    assert failing <= set(claims)
    patch(monkeypatch)
    stages = [run_stage(name) for name in names]
    checks = [c for stage in stages for c in stage.evidence["checks"]]
    assert not any(c.get("kind") == "stage-raised" for c in checks)
    assert {c["claim"]: c["status"] for c in checks} == {
        claim: "fail" if claim in failing else "pass" for claim in claims
    }
    # a check fails exactly when it carries a witness: one line of text, no repr
    for check in checks:
        if check["status"] == "fail":
            witness = check["witness"]
            assert witness and isinstance(witness, str) and "{'" not in witness, check
        else:
            assert "witness" not in check, check["claim"]
    # each stage run alone equals its record in the whole run under the same patch
    whole = dict(zip(STAGE_ORDER, run_all().stages))
    assert [s.to_json_dict() for s in stages] == [whole[name].to_json_dict() for name in names]


def test_dynamics_conjugates_once_over_a_symbolic_unit(monkeypatch):
    real = pipeline.conjugate_translation
    units = []

    def counted(u):
        units.append(u)
        return real(u)

    monkeypatch.setattr(pipeline, "conjugate_translation", counted)
    checks = run_stage("dynamics").evidence["checks"]
    assert units == [{1: 1}]
    # a whole run conjugates once too: dynamics and nonfg read one fact
    assert run_all().verdict == "pass"
    assert units == [{1: 1}, {1: 1}]
    conjugation = next(c for c in checks if c["claim"] == DYNAMICS_CONJUGATION)
    assert conjugation["status"] == "pass"
    assert conjugation["shifts"] == [f"(t^{-2 * n})*a" for n in range(1, 11)]


def test_c12_torsion_names_each_doubled_index_that_misses_the_identity(monkeypatch):
    # both of C12's indices are 4 (mod 8); a misread doubling leaves the
    # height at 0, so the witness names only the two doubled indices
    doubling_misread(monkeypatch)
    c12 = run_stage("heights").evidence["checks"][0]
    assert c12["claim"] == HEIGHT_CLAIMS["C12"] and c12["height"] == "0"
    assert c12["witness"] == (
        "N1 doubled index 1 (mod 8); expected 0 (mod 8); "
        "N1eps doubled index 1 (mod 8); expected 0 (mod 8)"
    )


def test_a_swap_that_fixes_curves_is_refused_with_them_recorded(monkeypatch):
    # the real isometry check rejects the swap, and the record's fixed
    # labels are read off the permutation it rejected
    fixed_curve(monkeypatch)
    isometry = run_stage("config").evidence["checks"][2]
    assert isometry["claim"] == CONFIG_ISOMETRY
    assert isometry["witness"] == "E1,C12: 0; image E1,C21: 1"
    assert isometry["fixed_labels"] == ["E1", "F1"]


def test_an_untyped_fiber_fails_each_stage_that_reads_its_type(monkeypatch):
    # N1, the one fiber holding C42, matches no Kodaira type: fibrations
    # names it in its types check, and the stages that cannot go on
    # without its type fail as raised, dynamics because an untyped fiber
    # has no cycle
    real = pipeline.classify_kodaira
    monkeypatch.setattr(
        pipeline,
        "classify_kodaira",
        lambda config, fiber: fibration.FiberClass(None)
        if "C42" in fiber.components
        else real(config, fiber),
    )
    by_name = {s.name: s for s in run_all().stages}
    assert {name for name, s in by_name.items() if s.status == "fail"} == {
        "fibrations", "lattice", "heights", "dynamics"
    }
    failed = [c for c in by_name["fibrations"].evidence["checks"] if c["status"] == "fail"]
    assert [(c["claim"], c["witness"]) for c in failed] == [
        (FIBRATIONS_TYPES, "N1: None; expected I8")
    ]
    assert failed[0]["types"]["N1"] is None
    for name in ("lattice", "heights", "dynamics"):
        (raised,) = by_name[name].evidence["checks"]
        assert raised["kind"] == "stage-raised", name
        assert raised["witness"] == "fiber N1 has no Kodaira type", name


def test_fibration_stage_lists_types():
    stage = run_stage("fibrations")
    typed = next(c for c in stage.evidence["checks"] if "types" in c)
    assert typed["types"] == {"N1": "I8", "N2": "IV*", "M1": "I8", "M2": "IV*"}


def test_canonical_stage_coefficients():
    stage = run_stage("canonical")
    coeffs = next(c for c in stage.evidence["checks"] if "coefficients" in c)
    assert coeffs["coefficients"] == {
        "E_inf'": "2",
        "E321": "4",
        "E322": "4",
        "E323": "4",
    }


def test_options_validation():
    with pytest.raises(ValueError, match="max_gens"):
        PipelineOptions(max_gens=0)
    with pytest.raises(ValueError, match="max_gens"):
        PipelineOptions(max_gens=True)
    with pytest.raises(ValueError, match="seed"):
        PipelineOptions(seed=True)
    with pytest.raises(ValueError, match="corrupt_pair"):
        PipelineOptions(corrupt_pair=("only-one",))
    with pytest.raises(ValueError, match="distinct"):
        PipelineOptions(corrupt_pair=("E2", "E2"))


def test_corrupt_pair_accepts_exactly_the_curve_labels():
    labels = extend_with_conics(build_double_kummer()).labels
    digits = [""] + list("012345") + [a + b for a in "012345" for b in "012345"]
    candidates = {p + d for p in "CDEFHP" for d in digits}
    candidates |= {"", "e1", " E1", "E1 ", "E1\n", "C111", "Foo"}
    assert set(labels) <= candidates

    def accepted(label):
        # a label paired with one it does not meet is refused as a fault
        # that changes nothing, not as a name
        other = "F1" if label == "E1" else "E1"
        try:
            PipelineOptions(corrupt_pair=(label, other))
        except ValueError as exc:
            if "names no curve" in str(exc):
                return False
            assert "already meets in 0" in str(exc), exc
        return True

    assert {c for c in candidates if accepted(c)} == set(labels)


def test_corrupt_pair_refuses_a_pair_that_already_meets_in_zero():
    # E1 and F1 do not meet: zeroing their entry would leave every report passing
    with pytest.raises(ValueError, match="corrupt_pair E1,F1 already meets in 0"):
        PipelineOptions(corrupt_pair=("E1", "F1"))
    labels = extend_with_conics(build_double_kummer()).labels

    def accepted(pair):
        try:
            PipelineOptions(corrupt_pair=pair)
        except ValueError:
            return False
        return True

    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    assert [p for p in pairs if accepted(p)] == FAULT_PAIRS


# -- command line ---------------------------------------------------------------------


def test_cli_all_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["all", "--max-gens", "2", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[:1] == ["stage config: pass"]
    assert lines[-1] == "verdict: pass"
    blob = json.loads(out.read_text())
    assert blob["verdict"] == "pass"
    assert len(blob["stages"]) == 9


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["all"], "1f0030821a87213185e07eea20be96f35b49cde085ba432149bfb1bfa82c150d"),
        (
            ["nonfg", "--max-gens", "80"],
            "e1b079e0087dd96fe709fb93e6fffc8b7d699d06674abbf2a255c209a92bc619",
        ),
    ],
    ids=["all-default", "nonfg-80"],
)
def test_cli_report_file_matches_its_sha256_anchor(tmp_path, capsys, argv, expected):
    # the CLI's own defaults are part of the anchor: a changed --max-gens or
    # --seed default changes the default report's bytes
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_cli_single_stage(capsys):
    assert main(["nonfg", "--max-gens", "3"]) == 0
    out = capsys.readouterr().out
    assert "stage nonfg: pass" in out
    assert "verdict: pass" in out


def test_cli_refuses_a_fault_that_changes_nothing(capsys):
    assert main(["all", "--corrupt-pair", "E1,F1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "autcert: corrupt_pair E1,F1 already meets in 0\n"


def test_cli_failure_exit_code(capsys):
    assert main(["config", "--corrupt-pair", "E2,C32"]) == 1
    out = capsys.readouterr().out
    assert "stage config: fail" in out
    assert "failed:" in out


def test_cli_prints_the_witness_of_a_stage_that_raised(capsys):
    assert main(["quotient", "--corrupt-pair", "E2,C32"]) == 1
    captured = capsys.readouterr()
    assert "stage quotient: fail" in captured.out
    assert (
        "    witness: the involution fails the isometry check: E2,C32: 0; image F2,C23: 1"
        in captured.out.splitlines()
    )
    assert "Traceback" not in captured.err

    assert main(["dynamics", "--corrupt-pair", "E2,C32"]) == 1
    captured = capsys.readouterr()
    (witness,) = [
        line for line in captured.out.splitlines() if line.startswith("    witness: ")
    ]
    assert witness == (
        "    witness: not a fiber candidate: E2 meets the fiber: -1; "
        "C32 meets the fiber: -1; fiber square: -2"
    )
    assert "{" not in witness and "'kind'" not in witness
    assert "Traceback" not in captured.err


def test_cli_prints_the_witness_of_a_failed_swap_check(capsys):
    assert main(["config", "--corrupt-pair", "E2,C32"]) == 1
    out = capsys.readouterr().out
    assert "stage config: fail" in out
    assert "    witness: E2,C32: 0; image F2,C23: 1" in out.splitlines()


def test_cli_prints_the_witness_of_a_wrong_quotient_signature(monkeypatch, capsys):
    wrong_quotient_signature(monkeypatch)
    assert main(["quotient"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"  failed: {QUOTIENT_LATTICE}" in lines
    assert f"    witness: {WRONG_QUOTIENT_SIGNATURE}" in lines


def test_cli_prints_a_witness_under_every_failed_claim(monkeypatch, capsys):
    # every height reads 1 more, so all four height claims fail
    real = pipeline.height
    monkeypatch.setattr(pipeline, "height", lambda chi, types, s: real(chi, types, s) + 1)
    assert main(["heights"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [k for k, line in enumerate(lines) if line.startswith("  failed: ")]
    assert len(failed) == 4
    for k in failed:
        assert lines[k + 1].startswith("    witness: height "), lines[k + 1]


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["all", "--corrupt-pair", "nocomma"]) == 2
    assert main(["all", "--corrupt-pair", "Foo,Bar"]) == 2
    assert main(["all", "--corrupt-pair", "E2,E2"]) == 2
    assert main(["all", "--max-gens", "0"]) == 2
    capsys.readouterr()


def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "missing" / "report.json"):
        assert main(["nonfg", "--max-gens", "1", "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"autcert: cannot write {path}: ")
        assert "Traceback" not in err


def test_cli_stage_list(capsys):
    assert main(["--stage-list"]) == 0
    assert capsys.readouterr().out.split() == list(EXPECTED_STAGES)


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def run_module(*args):
    """``python -m autcert`` in a fresh interpreter that imports this package."""
    src = str(Path(autcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "autcert", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_python_dash_m_runs_the_cli():
    listed = run_module("--stage-list")
    assert listed.returncode == 0
    assert listed.stdout.split() == list(EXPECTED_STAGES)
    bogus = run_module("bogus")
    assert bogus.returncode == 2
    assert bogus.stderr and "Traceback" not in bogus.stderr
