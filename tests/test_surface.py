"""Tests for the curve-configuration layer."""

import pytest

from autcert import surface
from autcert.lattice import gram_rank, signature
from autcert.scalars import MultiPoly, RatFunc
from autcert.surface import (
    INFINITY,
    BlowupLedger,
    Configuration,
    IsometryPerm,
    build_double_kummer,
    canonical_multiple,
    epsilon_involution,
    extend_with_conics,
    quotient_pushforward,
    verify_isometry,
    with_intersection,
)


def fin(v) -> MultiPoly:
    return MultiPoly.const(v)


def t_coord() -> MultiPoly:
    return MultiPoly.var("t")


# -- double Kummer configuration ------------------------------------------------


def test_double_kummer_shape():
    x = build_double_kummer()
    assert len(x.labels) == 24
    assert all(x.self_int(lab) == -2 for lab in x.labels)
    assert len(x.markings) == 32


def test_double_kummer_incidence_examples():
    x = build_double_kummer()
    assert x.pairing("E2", "C32") == 1
    assert x.pairing("F3", "C32") == 1
    assert x.pairing("E4", "C24") == 1
    assert x.pairing("F2", "C24") == 1
    assert x.pairing("E1", "E2") == 0
    assert x.pairing("E1", "F1") == 0
    assert x.pairing("C11", "C12") == 0
    assert x.pairing("E2", "C31") == 0
    # each C-curve meets exactly two of the eight sections
    sections = [f"E{j}" for j in range(1, 5)] + [f"F{i}" for i in range(1, 5)]
    for i in range(1, 5):
        for j in range(1, 5):
            hits = [s for s in sections if x.pairing(f"C{i}{j}", s) == 1]
            assert hits == sorted([f"E{j}", f"F{i}"])


def test_double_kummer_rank_and_signature():
    x = build_double_kummer()
    assert gram_rank(x.gram) == 18
    assert signature(x.gram) == (1, 17, 6)


def test_double_kummer_marking_coordinates():
    x = build_double_kummer()
    assert x.marking_coord("P11", "E1") == fin(1)
    assert x.marking_coord("P21", "E1") == t_coord()
    assert x.marking_coord("P32", "E2") is INFINITY
    assert x.marking_coord("P44", "E4") == fin(0)
    assert x.marking_coord("P32", "C32") is None
    assert x.marking_coord("P'23", "F2") is INFINITY
    assert x.marking_coord("P'22", "F2") == MultiPoly.var("s")
    assert x.marking_coord("P'41", "F4") == fin(1)
    with pytest.raises(KeyError, match="marking P11 does not lie on E2"):
        x.marking_coord("P11", "E2")


# -- extension by the four conics -------------------------------------------------


def test_extend_with_conics_pairings():
    ext = extend_with_conics(build_double_kummer())
    assert len(ext.labels) == 28
    assert ext.self_int("C2") == -2
    assert ext.pairing("C2", "E2") == 1
    assert ext.pairing("C2", "F2") == 1
    assert ext.pairing("C2", "E3") == 0
    assert ext.pairing("C2", "C22") == 0
    assert ext.pairing("C2", "C11") == 2
    assert ext.pairing("C2", "C33") == 2
    assert ext.pairing("C2", "C44") == 2
    assert ext.pairing("C2", "C12") == 0
    assert ext.pairing("C2", "C21") == 0
    assert ext.pairing("C1", "C2") == 0


def test_extend_keeps_rank_and_base_pairings():
    x = build_double_kummer()
    ext = extend_with_conics(x)
    assert gram_rank(ext.gram) == 18
    assert signature(ext.gram) == (1, 17, 10)
    for a in x.labels:
        for b in x.labels:
            assert ext.pairing(a, b) == x.pairing(a, b)


def test_extend_markings():
    ext = extend_with_conics(build_double_kummer())
    assert len(ext.markings) == 36
    assert ext.marking_coord("P2", "F2") == t_coord()
    assert ext.marking_coord("P1", "F1") is None
    assert ext.marking_coord("P2", "C2") is None
    # every coordinate is None, the point at infinity or a polynomial in t or s
    coords = [c for on in ext.markings.values() for c in on.values()]
    assert {c for c in coords if c is not None and c is not INFINITY} == {
        fin(0), fin(1), t_coord(), MultiPoly.var("s")
    }
    assert all(c is None or c is INFINITY or type(c) is MultiPoly for c in coords)


def test_extend_rejects_wrong_base():
    ext = extend_with_conics(build_double_kummer())
    with pytest.raises(ValueError):
        extend_with_conics(ext)
    with pytest.raises(ValueError):
        extend_with_conics(quotient_fixture())
    k = build_double_kummer()
    swapped = (k.labels[1], k.labels[0]) + k.labels[2:]
    moved = {**k.markings, "P11": {"E1": fin(2), "C11": None}}
    for changed in (
        Configuration("Z_Enriques", k.labels, k.gram, k.markings),
        Configuration(k.tag, swapped, k.gram, k.markings),
        with_intersection(k, "E1", "C11", 0),
        Configuration(k.tag, k.labels, k.gram, moved),
    ):
        with pytest.raises(ValueError):
            extend_with_conics(changed)


def test_a_mutated_build_leaves_the_next_build_and_the_table_alone():
    table = {p: dict(on) for p, on in list(surface._POINTS.items())[:32]}
    k = build_double_kummer()
    # one value shared by every caller, read-only all the way through: each
    # point's curve -> coordinate map, and the outer map too
    with pytest.raises(TypeError):
        k.markings["P11"]["E1"] = None
    with pytest.raises(TypeError):
        k.markings["P11"] = {"E1": None, "C11": None}
    with pytest.raises(TypeError):
        del k.markings["P'44"]
    x = extend_with_conics(k)
    with pytest.raises(TypeError):
        x.markings["P1"] = {"F1": None, "C1": None}
    assert {p: dict(on) for p, on in list(surface._POINTS.items())[:32]} == table
    fresh = build_double_kummer()
    assert fresh.markings == table
    assert len(extend_with_conics(fresh).markings) == 36
    # a changed copy is a configuration of its own, which extension refuses
    moved = Configuration(k.tag, k.labels, k.gram, {**k.markings, "P11": {"E1": None, "C11": None}})
    with pytest.raises(ValueError):
        extend_with_conics(moved)
    assert build_double_kummer().markings == table


def test_extend_fiber_class_constancy():
    # the pairing of any curve with 2*Fk + sum_j Ckj is the same for all k,
    # the constraint that forces the diagonal values above
    ext = extend_with_conics(build_double_kummer())

    def against_fiber(lab, k):
        total = 2 * ext.pairing(lab, f"F{k}")
        for j in range(1, 5):
            total += ext.pairing(lab, f"C{k}{j}")
        return total

    for lab in ext.labels:
        values = {against_fiber(lab, k) for k in range(1, 5)}
        assert len(values) == 1, lab


# -- isometries -------------------------------------------------------------------


def test_epsilon_images():
    ext = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(ext)
    assert eps.apply("E2") == "F2"
    assert eps.apply("F2") == "E2"
    assert eps.apply("C32") == "C23"
    assert eps.apply("C11") == "C1"
    assert eps.apply("C1") == "C11"
    assert eps.point_map["P32"] == "P'23"
    assert eps.point_map["P'32"] == "P23"
    assert eps.point_map["P22"] == "P2"
    assert eps.point_map["P2"] == "P22"
    assert "P'11" not in eps.point_map


def test_epsilon_is_fixed_point_free_isometry():
    ext = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(ext)
    assert verify_isometry(ext, eps) == ()
    assert eps.fixed_labels() == ()


def test_epsilon_needs_extended_configuration():
    with pytest.raises(ValueError):
        epsilon_involution(build_double_kummer())


def test_verify_isometry_names_corrupted_pair():
    ext = extend_with_conics(build_double_kummer())
    bad = with_intersection(ext, "E2", "C32", 0)
    failures = verify_isometry(bad, epsilon_involution(bad))
    assert failures
    # the pair itself, then each pair whose image is it
    assert failures == (
        "E2,C32: 0; image F2,C23: 1",
        "F2,C23: 1; image E2,C32: 0",
    )


def test_verify_isometry_rejects_non_permutation():
    x = build_double_kummer()
    cm = {lab: lab for lab in x.labels}
    cm["E1"] = "E2"
    failures = verify_isometry(x, IsometryPerm(cm, {}))
    assert failures
    # E2 is hit twice, so E1 is the curve that is no image
    assert failures == ("not a permutation at E1",)
    unknown = IsometryPerm({**{lab: lab for lab in x.labels}, "Q9": "E1"}, {})
    assert verify_isometry(x, unknown) == ("not a permutation at Q9",)


def test_verify_isometry_checks_declared_involution():
    gram = tuple(
        tuple(-2 if i == j else 0 for j in range(3)) for i in range(3)
    )
    cfg = Configuration("X_K3", ("A", "B", "C"), gram)
    cycle = IsometryPerm({"A": "B", "B": "C", "C": "A"}, {})
    failures = verify_isometry(cfg, cycle)
    assert failures
    assert failures == (
        "not an involution: A -> B -> C",
        "not an involution: B -> C -> A",
        "not an involution: C -> A -> B",
    )


def test_verify_isometry_checks_marking_incidence():
    # P12 lies on E2 and C12, whose images F2 and C21 carry P'21, not P'12
    ext = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(ext)
    moved = IsometryPerm(eps.curve_map, {**eps.point_map, "P12": "P'12", "P99": "P1"})
    assert verify_isometry(ext, moved) == (
        "marking P12 -> P'12 does not preserve incidence",
        "unknown marking in P99 -> P1",
    )


def test_verify_isometry_names_a_fixed_curve():
    # the identity preserves every pairing and is an involution: the fixed
    # curves are its only failures, and they alone fail the check
    ext = extend_with_conics(build_double_kummer())
    identity = IsometryPerm({lab: lab for lab in ext.labels}, {})
    failures = verify_isometry(ext, identity)
    assert failures
    assert failures == tuple(f"fixes {lab}" for lab in sorted(ext.labels))
    assert identity.fixed_labels() == tuple(sorted(ext.labels))


# -- quotient ---------------------------------------------------------------------


def quotient_fixture() -> Configuration:
    ext = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(ext)
    return quotient_pushforward(ext, eps, verify_isometry(ext, eps))


def test_quotient_labels_have_one_spelling():
    z = quotient_fixture()
    assert z.labels == (
        "H1", "H2", "H3", "H4",
        "D11", "D21", "D22", "D31", "D32", "D33", "D41", "D42", "D43", "D44",
    )
    # an off-diagonal class is D<max><min>; the reversed spelling names nothing
    for reversed_label in ("D23", "D34"):
        with pytest.raises(KeyError, match=f"no curve labeled {reversed_label}"):
            z.index(reversed_label)


def test_quotient_intersections():
    z = quotient_fixture()
    assert z.self_int("H2") == -2
    assert z.self_int("D32") == -2
    assert z.self_int("D11") == -2
    assert z.pairing("H2", "D32") == 1
    assert z.pairing("D11", "H1") == 2
    assert z.pairing("D11", "D22") == 2
    assert z.pairing("D11", "D21") == 0
    assert z.pairing("H1", "H2") == 0


def test_quotient_eight_cycle():
    z = quotient_fixture()
    cyc = ["H2", "D32", "H3", "D31", "H1", "D41", "H4", "D42"]
    for k, a in enumerate(cyc):
        for m, b in enumerate(cyc):
            expected = 1 if (k - m) % 8 in (1, 7) else (-2 if k == m else 0)
            assert z.pairing(a, b) == expected


def test_quotient_rank_and_signature():
    z = quotient_fixture()
    assert gram_rank(z.gram) == 10
    assert gram_rank(z.gram) <= 10
    assert signature(z.gram) == (1, 9, 4)


def test_quotient_markings():
    z = quotient_fixture()
    assert len(z.markings) == 16
    assert z.marking_coord("Q32", "H2") is INFINITY
    assert z.marking_coord("Q32", "D32") is None
    assert z.marking_coord("Q21", "H1") == t_coord()


def test_quotient_pushforward_is_even():
    ext = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(ext)
    z = quotient_pushforward(ext, eps, verify_isometry(ext, eps))
    orbits = {}
    for lab in ext.labels:
        image = eps.apply(lab)
        name = next(
            n for n in z.labels
            if sorted({lab, image}) == sorted(_orbit_members(n))
        )
        orbits[name] = tuple(sorted({lab, image}))
    for na in z.labels:
        for nb in z.labels:
            total = sum(
                ext.pairing(a, b) for a in orbits[na] for b in orbits[nb]
            )
            assert total % 2 == 0
            assert z.pairing(na, nb) == total // 2


def _orbit_members(name: str) -> list[str]:
    if name.startswith("H"):
        j = name[1]
        return sorted([f"E{j}", f"F{j}"])
    i, j = name[1], name[2]
    if i == j:
        return sorted([f"C{i}{i}", f"C{i}"])
    return sorted([f"C{i}{j}", f"C{j}{i}"])


def test_quotient_requires_free_involution():
    ext = extend_with_conics(build_double_kummer())
    fixing = IsometryPerm({lab: lab for lab in ext.labels}, {})
    # the error names the isometry check's first failure
    with pytest.raises(ValueError, match="^the involution fails the isometry check: fixes C1$"):
        quotient_pushforward(ext, fixing, verify_isometry(ext, fixing))


def test_quotient_rejects_broken_isometry():
    ext = extend_with_conics(build_double_kummer())
    bad = with_intersection(ext, "E2", "C32", 0)
    eps = epsilon_involution(bad)
    with pytest.raises(ValueError, match="isometry"):
        quotient_pushforward(bad, eps, verify_isometry(bad, eps))


def test_quotient_takes_a_held_isometry_report_in_place_of_the_check(monkeypatch):
    ext = extend_with_conics(build_double_kummer())
    bad = with_intersection(ext, "E2", "C32", 0)
    fixing = IsometryPerm({lab: lab for lab in ext.labels}, {})
    cases = [
        (ext, epsilon_involution(ext), None),
        (bad, epsilon_involution(bad), "isometry"),
        (ext, fixing, "isometry"),
    ]
    held = [(config, eps, verify_isometry(config, eps), match) for config, eps, match in cases]
    z = quotient_fixture()
    monkeypatch.setattr(surface, "verify_isometry", None)  # a call would raise TypeError
    for config, eps, failures, match in held:
        if match is None:
            assert quotient_pushforward(config, eps, failures) == z
        else:
            with pytest.raises(ValueError, match=match):
                quotient_pushforward(config, eps, failures)


# -- blow-up ledger -----------------------------------------------------------------


def test_standard_ledger_classes():
    ledger = BlowupLedger(quotient_fixture())
    assert ledger.exceptional_labels == ("E_inf'", "E321", "E322", "E323")
    assert ledger.class_vector("E_inf'") == (1, -1, -1, -1)
    assert ledger.class_vector("E321") == (0, 1, 0, 0)
    assert ledger.class_vector("E323") == (0, 0, 0, 1)
    assert ledger.self_intersection("E_inf'") == -4
    assert ledger.self_intersection("E322") == -1
    for label in ("E_inf", "E324", "Q32"):
        with pytest.raises(KeyError, match="no exceptional class"):
            ledger.class_vector(label)


def test_canonical_multiple_two_stage():
    ledger = BlowupLedger(quotient_fixture())
    assert canonical_multiple(ledger) == {
        "E_inf'": 2, "E321": 4, "E322": 4, "E323": 4,
    }


def test_ledger_validation():
    z = quotient_fixture()
    with pytest.raises(ValueError, match="quotient"):
        BlowupLedger(build_double_kummer())
    without_q32 = {q: on for q, on in z.markings.items() if q != "Q32"}
    with pytest.raises(ValueError, match="Q32 is not a marking"):
        BlowupLedger(Configuration(z.tag, z.labels, z.gram, without_q32))


# -- configuration plumbing ----------------------------------------------------------


def test_with_intersection_roundtrip():
    x = build_double_kummer()
    assert with_intersection(with_intersection(x, "E2", "C32", 0), "E2", "C32", 1) == x


@pytest.mark.parametrize("config", ["extended", "quotient"])
def test_curve_index_matches_label_position(config):
    x = extend_with_conics(build_double_kummer())
    c = x if config == "extended" else quotient_fixture()
    assert len(c.labels) == (28 if config == "extended" else 14)
    for k, lab in enumerate(c.labels):
        assert c.index(lab) == c.labels.index(lab) == k
    with pytest.raises(KeyError, match="no curve labeled Q9"):
        c.index("Q9")
    with pytest.raises(KeyError, match="no curve labeled Q9"):
        c.pairing(c.labels[0], "Q9")


def test_with_intersection_changes_one_symmetric_pair():
    z = quotient_fixture()
    changed = with_intersection(z, "D32", "H2", 5)
    i, j = z.labels.index("D32"), z.labels.index("H2")
    assert changed.gram[i][j] == changed.gram[j][i] == 5
    assert changed.pairing("H2", "D32") == 5
    assert sum(a != b for ra, rb in zip(z.gram, changed.gram) for a, b in zip(ra, rb)) == 2


def test_configurations_built_alike_compare_equal():
    assert build_double_kummer() == build_double_kummer()
    assert quotient_fixture() == quotient_fixture()
    x = extend_with_conics(build_double_kummer())
    assert with_intersection(x, "E1", "C11", 0) != x
    assert "_index" not in repr(build_double_kummer())


def test_configuration_validation():
    gram = ((-2, 0), (0, -2))
    # a marking needs a label and lies on some known curve
    for markings in ({"P": {}}, {"": {"A": None}}, {"P": {"Z": None}}):
        with pytest.raises(ValueError, match="label|curve"):
            Configuration("X_K3", ("A", "B"), gram, markings)
    # a coordinate is a polynomial, the point at infinity or None
    for coord in (RatFunc(1), {1: 1}, 0, "inf"):
        with pytest.raises(TypeError, match="coordinate of P on A not projective"):
            Configuration("X_K3", ("A", "B"), gram, {"P": {"B": None, "A": coord}})
    for coord in (INFINITY, MultiPoly.var("t"), MultiPoly.const(0)):
        assert Configuration("X_K3", ("A", "B"), gram, {"P": {"A": coord, "B": None}})
    with pytest.raises(ValueError, match="unknown surface tag"):
        Configuration("P2", ("A", "B"), gram)
    with pytest.raises(ValueError, match="negatively"):
        Configuration("X_K3", ("A", "B"), ((-2, -1), (-1, -2)))
    # the Gram is symmetric, so the scan reads each pair once, in label order
    with pytest.raises(ValueError, match="distinct curves B, C meet negatively"):
        Configuration("X_K3", ("A", "B", "C"), ((-2, 1, 0), (1, -2, -1), (0, -1, -2)))
    with pytest.raises(ValueError, match="-2"):
        Configuration("X_K3", ("A", "B"), ((-1, 0), (0, -2)))
