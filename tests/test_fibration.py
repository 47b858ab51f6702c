"""Tests for fiber validation and Kodaira classification."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autcert.fibration import (
    FiberDivisor,
    KodairaType,
    classify_kodaira,
    component_count,
    euler_number,
    map_fiber,
    shioda_tate_rank,
    validate_fiber,
)
from autcert.pipeline import Context, PipelineOptions
from autcert.surface import (
    Configuration,
    build_double_kummer,
    epsilon_involution,
    extend_with_conics,
    quotient_pushforward,
    verify_isometry,
)

N1 = FiberDivisor.of(["E2", "C32", "F3", "C31", "E1", "C41", "F4", "C42"])
N2 = FiberDivisor(
    {"E2": 1, "C32": 2, "E1": 1, "C31": 2, "E4": 1, "C34": 2, "F3": 3}
)
M1 = FiberDivisor.of(["H2", "D32", "H3", "D31", "H1", "D41", "H4", "D42"])
M2 = FiberDivisor(
    {"H2": 1, "D32": 2, "H1": 1, "D31": 2, "H4": 1, "D43": 2, "H3": 3}
)


def x_config():
    return extend_with_conics(build_double_kummer())


def z_config():
    ext = x_config()
    eps = epsilon_involution(ext)
    return quotient_pushforward(ext, eps, verify_isometry(ext, eps))


def synthetic(labels, pairs, diag=None):
    """Z-tagged configuration from sparse off-diagonal intersection data."""
    diag = diag or {}
    idx = {lab: k for k, lab in enumerate(labels)}
    gram = [[0] * len(labels) for _ in labels]
    for lab in labels:
        gram[idx[lab]][idx[lab]] = diag.get(lab, -2)
    for a, b, v in pairs:
        gram[idx[a]][idx[b]] = gram[idx[b]][idx[a]] = v
    return Configuration(
        "Z_Enriques", tuple(labels), tuple(tuple(r) for r in gram)
    )


# -- type symbols ------------------------------------------------------------------


def test_kodaira_type_strings():
    assert str(KodairaType("I", 8)) == "I8"
    assert str(KodairaType("I*", 0)) == "I0*"
    assert str(KodairaType("IV*")) == "IV*"


def test_kodaira_type_validation():
    with pytest.raises(ValueError):
        KodairaType("I", 0)
    with pytest.raises(ValueError):
        KodairaType("I*", -1)
    with pytest.raises(ValueError):
        KodairaType("V")
    with pytest.raises(ValueError):
        KodairaType("II", 3)


def test_euler_numbers():
    assert euler_number(KodairaType("I", 8)) == 8
    assert euler_number(KodairaType("I", 1)) == 1
    assert euler_number(KodairaType("II")) == 2
    assert euler_number(KodairaType("III")) == 3
    assert euler_number(KodairaType("IV")) == 4
    assert euler_number(KodairaType("I*", 0)) == 6
    assert euler_number(KodairaType("I*", 4)) == 10
    assert euler_number(KodairaType("IV*")) == 8
    assert euler_number(KodairaType("III*")) == 9
    assert euler_number(KodairaType("II*")) == 10


def test_component_counts():
    assert component_count(KodairaType("I", 8)) == 8
    assert component_count(KodairaType("II")) == 1
    assert component_count(KodairaType("III")) == 2
    assert component_count(KodairaType("IV")) == 3
    assert component_count(KodairaType("I*", 2)) == 7
    assert component_count(KodairaType("IV*")) == 7
    assert component_count(KodairaType("III*")) == 8
    assert component_count(KodairaType("II*")) == 9


# -- validation --------------------------------------------------------------------


def test_validate_passes_on_real_fibers():
    X, Z = x_config(), z_config()
    for cfg, fiber in ((X, N1), (X, N2), (Z, M1), (Z, M2)):
        report = validate_fiber(cfg, fiber)
        assert report.passed, report.failures


def test_validate_names_failures():
    X = x_config()
    report = validate_fiber(X, FiberDivisor.of(["E2"]))
    assert report.failures == ("E2 meets the fiber: -2", "fiber square: -2")
    report = validate_fiber(X, FiberDivisor.of(["E1", "E2"]))
    assert report.failures[-1] == "support disconnected"


def test_validate_flags_wrong_self_intersection():
    cfg = synthetic(["A", "B"], [("A", "B", 2)], diag={"A": 0})
    report = validate_fiber(cfg, FiberDivisor.of(["A", "B"]))
    assert report.failures[0] == "A has self-intersection 0"


def test_validate_rejects_unknown_and_duplicate_labels():
    X, Z = x_config(), z_config()
    with pytest.raises(KeyError):
        validate_fiber(X, FiberDivisor.of(["E9"]))
    # D23 is no spelling of D32: an off-diagonal class is D<max><min> only
    with pytest.raises(KeyError, match="no curve labeled D23"):
        validate_fiber(Z, FiberDivisor.of(["D32", "D23"]))


def test_fiber_divisor_validation():
    with pytest.raises(ValueError):
        FiberDivisor({})
    with pytest.raises(ValueError):
        FiberDivisor({"A": 0})
    with pytest.raises(ValueError):
        FiberDivisor({"A": -1})


# -- classification of the four pipeline fibers -------------------------------------


def test_classify_pipeline_fibers():
    X, Z = x_config(), z_config()
    assert str(classify_kodaira(X, N1).fiber_type) == "I8"
    assert str(classify_kodaira(X, N2).fiber_type) == "IV*"
    assert str(classify_kodaira(Z, M1).fiber_type) == "I8"
    assert str(classify_kodaira(Z, M2).fiber_type) == "IV*"


def test_epsilon_images_classify_identically():
    X = x_config()
    eps = epsilon_involution(X)
    for fiber in (N1, N2):
        a = classify_kodaira(X, fiber).fiber_type
        b = classify_kodaira(X, map_fiber(fiber, eps.curve_map)).fiber_type
        assert a == b


def test_epsilon_image_labels():
    eps = epsilon_involution(x_config())
    image = map_fiber(N1, eps.curve_map)
    assert image.labels() == tuple(
        sorted(["F2", "C23", "E3", "C13", "F1", "C14", "E4", "C24"])
    )


def test_map_fiber_rejects_a_shared_image():
    # two components sent to one curve would lose a multiplicity
    with pytest.raises(ValueError, match="share the image H1"):
        map_fiber(FiberDivisor({"E1": 1, "F1": 2}), {"E1": "H1", "F1": "H1"})


def test_derived_quotient_fibers_are_the_written_ones():
    # the pipeline pushes N1 and N2 down through QUOTIENT_CLASS; M1 and M2
    # above are written by hand
    fibers = Context(PipelineOptions()).fibers
    for name, written in (("M1", M1), ("M2", M2)):
        assert fibers[name].components == written.components, name


def test_validation_neighbours_of_n2():
    # the IV* tree: three arms of two curves meeting at F3
    report = validate_fiber(x_config(), N2)
    assert report.neighbours == {
        "E2": {"C32"}, "C32": {"E2", "F3"},
        "E1": {"C31"}, "C31": {"E1", "F3"},
        "E4": {"C34"}, "C34": {"E4", "F3"},
        "F3": {"C32", "C31", "C34"},
    }


# -- synthetic fibers for the remaining types ----------------------------------------


def test_classify_small_cycles_by_convention():
    # a double edge is read as I2, not III, and a triangle as I3, not IV
    two = synthetic(["A", "B"], [("A", "B", 2)])
    fc = classify_kodaira(two, FiberDivisor.of(["A", "B"]))
    assert str(fc.fiber_type) == "I2" and fc.cycle == ("A", "B")

    three = synthetic(
        ["A", "B", "C"], [("A", "B", 1), ("B", "C", 1), ("A", "C", 1)]
    )
    fc = classify_kodaira(three, FiberDivisor.of(["A", "B", "C"]))
    assert str(fc.fiber_type) == "I3" and fc.cycle == ("A", "B", "C")


def test_classify_i_star_zero():
    cfg = synthetic(
        ["Z", "L1", "L2", "L3", "L4"],
        [("Z", f"L{k}", 1) for k in range(1, 5)],
    )
    fiber = FiberDivisor({"Z": 2, "L1": 1, "L2": 1, "L3": 1, "L4": 1})
    assert str(classify_kodaira(cfg, fiber).fiber_type) == "I0*"


def test_classify_i_star_two():
    cfg = synthetic(
        ["c0", "c1", "c2", "l1", "l2", "l3", "l4"],
        [("c0", "c1", 1), ("c1", "c2", 1),
         ("l1", "c0", 1), ("l2", "c0", 1), ("l3", "c2", 1), ("l4", "c2", 1)],
    )
    fiber = FiberDivisor(
        {"c0": 2, "c1": 2, "c2": 2, "l1": 1, "l2": 1, "l3": 1, "l4": 1}
    )
    assert str(classify_kodaira(cfg, fiber).fiber_type) == "I2*"


def test_classify_iii_star():
    labels = [f"p{k}" for k in range(1, 8)] + ["q"]
    pairs = [(f"p{k}", f"p{k+1}", 1) for k in range(1, 7)] + [("q", "p4", 1)]
    cfg = synthetic(labels, pairs)
    mults = dict(zip(labels, [1, 2, 3, 4, 3, 2, 1, 2]))
    assert str(classify_kodaira(cfg, FiberDivisor(mults)).fiber_type) == "III*"


def test_classify_ii_star():
    labels = [f"p{k}" for k in range(1, 9)] + ["q"]
    pairs = [(f"p{k}", f"p{k+1}", 1) for k in range(1, 8)] + [("q", "p6", 1)]
    cfg = synthetic(labels, pairs)
    mults = dict(zip(labels, [1, 2, 3, 4, 5, 6, 4, 2, 3]))
    assert str(classify_kodaira(cfg, FiberDivisor(mults)).fiber_type) == "II*"


def affine_d(n):
    """Affine D_{n+4}: a chain of n + 1 nodes of multiplicity 2, two leaves at each end."""
    edges = [(k, k + 1) for k in range(n)]
    edges += [(n + 1, 0), (n + 2, 0), (n + 3, n), (n + 4, n)]
    return edges, [2] * (n + 1) + [1] * 4


def chain_with_arm(marks, anchor, arm):
    """A chain with multiplicities marks, and a further arm hung off chain node anchor."""
    edges = [(k, k + 1) for k in range(len(marks) - 1)]
    ends = [anchor] + list(range(len(marks), len(marks) + len(arm)))
    return edges + list(zip(ends, ends[1:])), list(marks) + list(arm)


# each starred type as its affine diagram, with the null vector as multiplicities
STARRED = [(f"I{n}*", *affine_d(n)) for n in range(5)] + [
    ("IV*", *chain_with_arm([1, 2, 3, 2, 1], 2, [2, 1])),
    ("III*", *chain_with_arm([1, 2, 3, 4, 3, 2, 1], 3, [2])),
    ("II*", *chain_with_arm([1, 2, 3, 4, 5, 6, 4, 2], 5, [3])),
]


def relabeled(edges, mults, seed):
    """The diagram as a configuration and fiber, its nodes named in a seeded order."""
    names = [f"K{k}" for k in range(len(mults))]
    random.Random(seed).shuffle(names)
    cfg = synthetic(sorted(names), [(names[a], names[b], 1) for a, b in edges])
    return cfg, FiberDivisor({names[k]: m for k, m in enumerate(mults)}), names


def test_classify_starred_types_from_their_affine_diagrams():
    for want, edges, mults in STARRED:
        deleted = set()
        for seed in range(6):
            cfg, fiber, names = relabeled(edges, mults, seed)
            fc = classify_kodaira(cfg, fiber)
            assert str(fc.fiber_type) == want and fc.cycle == (), (want, seed)
            assert len(fiber.components) == component_count(fc.fiber_type)
            # the classifier deletes the least-named component of multiplicity one
            deleted.add(min((names[k], k) for k, m in enumerate(mults) if m == 1)[1])
        # the seeds reach more than one choice wherever there is one
        assert len(deleted) > 1 or mults.count(1) == 1, want
    # a doubled affine D4 passes the fiber conditions but has no
    # component of multiplicity one
    edges, mults = affine_d(0)
    cfg, fiber, _ = relabeled(edges, [2 * m for m in mults], 0)
    assert classify_kodaira(cfg, fiber) == (None, ())


def test_doubled_cycle_is_unrecognized():
    X = x_config()
    doubled = FiberDivisor({lab: 2 for lab in N1.components})
    assert classify_kodaira(X, doubled) == (None, ())


def test_classify_raises_on_invalid_fiber():
    # the message names each violation in one short line, not a repr
    X = x_config()
    cases = (
        (X, ["E2"], "E2 meets the fiber: -2; fiber square: -2"),
        (X, ["E1", "E2"], "support disconnected"),
        (
            synthetic(["A", "B"], [("A", "B", 2)], diag={"A": 0}),
            ["A", "B"],
            "A has self-intersection 0",
        ),
    )
    for cfg, labels, part in cases:
        with pytest.raises(ValueError) as info:
            classify_kodaira(cfg, FiberDivisor.of(labels))
        message = str(info.value)
        assert message.startswith("not a fiber candidate: ")
        assert part in message
        assert "{" not in message and "'kind'" not in message


@given(st.permutations(list(range(7))))
def test_classification_is_relabeling_invariant(perm):
    base_labels = ["c0", "c1", "c2", "l1", "l2", "l3", "l4"]
    new_names = [f"K{k}" for k in perm]
    rename = dict(zip(base_labels, new_names))
    pairs = [("c0", "c1", 1), ("c1", "c2", 1),
             ("l1", "c0", 1), ("l2", "c0", 1), ("l3", "c2", 1), ("l4", "c2", 1)]
    cfg = synthetic(
        sorted(new_names),
        [(rename[a], rename[b], v) for a, b, v in pairs],
    )
    mults = {"c0": 2, "c1": 2, "c2": 2, "l1": 1, "l2": 1, "l3": 1, "l4": 1}
    fiber = FiberDivisor({rename[lab]: m for lab, m in mults.items()})
    assert str(classify_kodaira(cfg, fiber).fiber_type) == "I2*"


# -- component cycles ----------------------------------------------------------------


def test_component_cycle_of_n1():
    X, Z = x_config(), z_config()
    cycle = classify_kodaira(X, N1).cycle
    assert cycle == ("C31", "E1", "C41", "F4", "C42", "E2", "C32", "F3")
    for k, a in enumerate(cycle):
        assert X.pairing(a, cycle[(k + 1) % len(cycle)]) == 1
    # the orientations of its involution image and of its pushforward,
    # which the section heights and the dynamics shift are read in
    n1eps = map_fiber(N1, epsilon_involution(X).curve_map)
    assert classify_kodaira(X, n1eps).cycle == ("C13", "E3", "C23", "F2", "C24", "E4", "C14", "F1")
    assert classify_kodaira(Z, M1).cycle == ("D31", "H1", "D41", "H4", "D42", "H2", "D32", "H3")


def test_component_cycle_small_and_errors():
    # a cycle for every I_n, none for any other type
    two = synthetic(["A", "B"], [("A", "B", 2)])
    assert classify_kodaira(two, FiberDivisor.of(["A", "B"])).cycle == ("A", "B")
    three = synthetic(["C", "A", "B"], [("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])
    assert classify_kodaira(three, FiberDivisor.of(["C", "A", "B"])).cycle == ("A", "B", "C")
    X = x_config()
    fc = classify_kodaira(X, N2)
    assert str(fc.fiber_type) == "IV*" and fc.cycle == ()


# -- Shioda-Tate bookkeeping -----------------------------------------------------------


def test_shioda_tate_examples():
    assert shioda_tate_rank(18, [KodairaType("I", 8), KodairaType("I", 8)]) == 2
    assert shioda_tate_rank(10, [KodairaType("IV*")]) == 2
    assert shioda_tate_rank(2, []) == 0
    with pytest.raises(ValueError, match="exceeding"):
        shioda_tate_rank(10, [KodairaType("IV*"), KodairaType("IV*")])
    with pytest.raises(ValueError, match="exceeding"):
        shioda_tate_rank(1, [])
