"""Acceptance gate: the eight headline checks, printed one line each.

Every check is exact; there are no tolerances anywhere.  Each test
collects its sub-checks into a single boolean and reports exactly one
``acceptance N (...): PASS`` or ``FAIL`` line on the real stdout.
"""

import random

import pytest

from autcert.cremona import (
    X_VARS,
    QuadricForm,
    conjugate_translation,
    cremona_map,
    contraction_check,
    find_swap_specializations,
    scaling,
    translate,
    verify_pij_swap,
)
from autcert.fibration import (
    FiberDivisor,
    KodairaType,
    classify_kodaira,
    euler_number,
    map_fiber,
    shioda_tate_rank,
)
from autcert.fingen import certify_nonfg, membership
from autcert.lattice import (
    E6_IN_E8_NODES,
    SpanBasis,
    cartan_E,
    gauss_reduce_rank2,
    gram_rank,
    hnf,
    orth_complement,
    z_span_membership,
)
from autcert.mwl import ModInt, SectionData, height, section_from_config
from autcert.pipeline import run_stage
from autcert.scalars import MultiPoly, _canonical, matrix_rank_det
from autcert.surface import (
    BlowupLedger,
    Configuration,
    build_double_kummer,
    canonical_multiple,
    epsilon_involution,
    extend_with_conics,
    quotient_pushforward,
    verify_isometry,
)

from conftest import shifts, twice_matrix

I8 = KodairaType("I", 8)
IV_STAR = KodairaType("IV*")

N1 = FiberDivisor.of(("E2", "C32", "F3", "C31", "E1", "C41", "F4", "C42"))
N2 = FiberDivisor({"E2": 1, "C32": 2, "E1": 1, "C31": 2, "E4": 1, "C34": 2, "F3": 3})
M1 = FiberDivisor.of(("H2", "D32", "H3", "D31", "H1", "D41", "H4", "D42"))
M2 = FiberDivisor({"H2": 1, "D32": 2, "H1": 1, "D31": 2, "H4": 1, "D43": 2, "H3": 3})


@pytest.fixture
def announce(capsys):
    def _announce(num: int, name: str, ok: bool):
        with capsys.disabled():
            print(f"\nacceptance {num} ({name}): {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance {num} ({name})"

    return _announce


def test_criterion_1_configuration(announce):
    kummer = build_double_kummer()
    x = extend_with_conics(kummer)
    ok = gram_rank(kummer.gram) == 18

    eps_report = verify_isometry(x, epsilon_involution(x))
    ok = ok and eps_report.passed and eps_report.fixed_labels == ()
    announce(1, "configuration", ok)


def test_criterion_2_cremona(announce):
    tau = cremona_map()
    q = QuadricForm.standard()
    cofactor = MultiPoly.monomial(("a1", "a2", "a3", "x1", "x2", "x3", "x4"), (1,) * 7, 1)

    # each cofactor is multiplied back in, never recomputed by division
    ok = tau.pullback(q.poly) == cofactor * q.poly
    for comp, x in zip(tau.components, X_VARS):
        ok = ok and tau.pullback(comp) == cofactor * cofactor * MultiPoly.var(x)
    for i in (1, 2, 3, 4):
        point = tuple(int(k == i - 1) for k in range(4))
        ok = ok and contraction_check(tau, i) == point

    _, det = matrix_rank_det([list(r) for r in twice_matrix(q)])
    ok = ok and bool(det)

    reports = find_swap_specializations(0, tau)
    ok = ok and len({r.alpha for r in reports}) >= 3
    ok = ok and all(verify_pij_swap(r.alpha, tau).passed for r in reports)
    announce(2, "cremona", ok)


def test_criterion_3_quotient_fibrations(announce):
    x = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(x)
    zc = quotient_pushforward(x, eps, verify_isometry(x, eps))
    ok = len(zc.labels) == 14

    for config, fiber, want in (
        (zc, M1, "I8"),
        (zc, M2, "IV*"),
        (x, N1, "I8"),
        (x, N2, "IV*"),
    ):
        ok = ok and str(classify_kodaira(config, fiber).fiber_type) == want
    for fiber, want in ((N1, "I8"), (N2, "IV*")):
        image = map_fiber(fiber, eps.curve_map)
        ok = ok and str(classify_kodaira(x, image).fiber_type) == want

    ok = ok and 2 * euler_number(I8) <= 24 and 2 * euler_number(IV_STAR) <= 24
    ok = ok and euler_number(I8) <= 12 and euler_number(IV_STAR) <= 12
    announce(3, "quotient and fibrations", ok)


def test_criterion_4_lattice_theory(announce):
    ok = shioda_tate_rank(18, [I8, I8]) == 2

    x = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(x)
    n1eps = map_fiber(N1, eps.curve_map)
    fibers = [
        ("N1", classify_kodaira(x, N1).cycle),
        ("N1eps", classify_kodaira(x, n1eps).cycle),
    ]
    c12 = section_from_config(x, fibers, "C12", "C21")
    ok = ok and height(2, (("N1", I8), ("N1eps", I8)), c12) == 0

    heights_stage = run_stage("heights")
    notes = [a["note"] for a in heights_stage.evidence["annotations"]]
    ok = ok and any("evaluates to 4" in n for n in notes)

    _, induced = orth_complement(cartan_E(8), E6_IN_E8_NODES)
    ok = ok and gauss_reduce_rank2(induced) == ((2, -1), (-1, 2))

    narrow = SectionData("P", 0, {"M2": ModInt(0, 3)})
    ok = ok and height(1, (("M2", IV_STAR),), narrow) == 2
    announce(4, "lattice theory", ok)


def test_criterion_5_canonical_class(announce):
    x = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(x)
    ledger = BlowupLedger(quotient_pushforward(x, eps, verify_isometry(x, eps)))
    ok = canonical_multiple(ledger) == {
        "E_inf'": 2,
        "E321": 4,
        "E322": 4,
        "E323": 4,
    }
    ok = ok and ledger.self_intersection("E_inf'") == -4
    announce(5, "canonical class", ok)


def test_criterion_6_dynamics(announce):
    # the smooth-locus action (x, m) -> (t x, m + 4) squares to (t^2 x, m)
    t = scaling({1: 1})
    ok = t.compose(t) == scaling({2: 1}) and ModInt(4, 8) + ModInt(4, 8) == ModInt(0, 8)

    x = extend_with_conics(build_double_kummer())
    n1 = [("N1", classify_kodaira(x, N1).cycle)]
    idx_c11 = section_from_config(x, n1, "C11", "C21").components["N1"]
    idx_c2 = section_from_config(x, n1, "C2", "C21").components["N1"]
    ok = ok and idx_c11 + idx_c2 == ModInt(4, 8)

    for n in range(1, 11):
        ok = ok and conjugate_translation({2 * n: 1}) == translate({-2 * n: 1})
    announce(6, "dynamics", ok)


def test_criterion_7_non_finite_generation(announce):
    cert = certify_nonfg(shifts(5))
    ok = cert.passed and len(cert.stages) == 5

    def replay(k, n):
        """The integer problem of t^(-2n) over the first k stored exponents."""
        exponents = cert.generators[:k]
        columns = sorted(set(exponents) | {-2 * n})
        rows = [[int(c == e) for c in columns] for e in exponents]
        return z_span_membership(rows, [int(c == -2 * n) for c in columns])

    for k, stage in enumerate(cert.stages, start=1):
        escape = {-2 * k: 1}
        refute = membership(SpanBasis(shifts(k - 1)), escape)
        confirm = membership(SpanBasis(shifts(k)), escape)
        ok = ok and refute is None and confirm is not None

        # rebuild the integer rows from the stored exponents and replay
        # them through the Hermite-form solver
        n = stage.escape_exponent
        ok = ok and stage.refutation is None and replay(k, n) is None
        dense = replay(k + 1, n)
        ok = ok and dense is not None
        ok = ok and {i: c for i, c in enumerate(dense or ()) if c} == stage.next_span
    announce(7, "non-finite-generation certificate", ok)


# -- criterion 8: five property suites, 100+ seeded instances each ---------------------


def _random_poly(rng: random.Random) -> MultiPoly:
    p = MultiPoly.const(rng.randint(-3, 3))
    for _ in range(rng.randint(0, 3)):
        p = p + MultiPoly.monomial(
            ("x", "y"), (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-4, 4)
        )
    return p


def _suite_scalar_ring_axioms() -> int:
    rng = random.Random(1001)
    runs = 0
    zero, one = MultiPoly.const(0), MultiPoly.const(1)
    for _ in range(100):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert a + (-1) * a == zero
        runs += 1
    return runs


def _suite_hnf_idempotence() -> int:
    rng = random.Random(1002)
    runs = 0
    for _ in range(100):
        rows = [
            [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 4))
        ]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        h, _ = hnf(rows)
        again, _ = hnf(h)
        assert again == h
        runs += 1
    return runs


def _suite_membership_monotonicity() -> int:
    rng = random.Random(1003)
    runs = 0
    for _ in range(100):
        gens = [
            _canonical({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(2)})
            for _ in range(rng.randint(1, 3))
        ]
        coeffs = [rng.randint(-3, 3) for _ in gens]
        target = {}
        for g, m in zip(gens, coeffs):
            for e, c in g.items():
                target[e] = target.get(e, 0) + m * c
        target = _canonical(target)
        basis = SpanBasis(gens)
        assert membership(basis, target) is not None
        basis.insert({rng.randint(-3, 3): 1})
        assert membership(basis, target) is not None
        runs += 1
    return runs


def _suite_classifier_relabeling() -> int:
    rng = random.Random(1004)
    runs = 0
    for _ in range(100):
        n = rng.randint(3, 9)
        names = [f"V{k}" for k in range(n)]
        relabeled = names[:]
        rng.shuffle(relabeled)
        rename = dict(zip(names, relabeled))

        def cycle_config(labels):
            size = len(labels)
            gram = [[0] * size for _ in range(size)]
            pos = {lab: k for k, lab in enumerate(labels)}
            for k, lab in enumerate(labels):
                gram[pos[lab]][pos[lab]] = -2
                nxt = labels[(k + 1) % size]
                gram[pos[lab]][pos[nxt]] += 1
                gram[pos[nxt]][pos[lab]] += 1
            return Configuration(
                "Z_Enriques", tuple(labels), tuple(tuple(r) for r in gram)
            )

        base = cycle_config(names)
        image_order = [rename[lab] for lab in names]
        image = cycle_config(image_order)
        before = classify_kodaira(base, FiberDivisor.of(names))
        after = classify_kodaira(image, FiberDivisor.of(image_order))
        assert str(before.fiber_type) == str(after.fiber_type) == f"I{n}"
        runs += 1
    return runs


def _orbit_members(label: str) -> tuple[str, str]:
    if label.startswith("H"):
        return ("E" + label[1], "F" + label[1])
    i, j = label[1], label[2]
    if i == j:
        return (f"C{i}{i}", f"C{i}")
    return (f"C{i}{j}", f"C{j}{i}")


def _suite_pushforward_evenness() -> int:
    x = extend_with_conics(build_double_kummer())
    eps = epsilon_involution(x)
    z = quotient_pushforward(x, eps, verify_isometry(x, eps))
    runs = 0
    for a in z.labels:
        for b in z.labels:
            orbit_sum = sum(
                x.pairing(s, t_)
                for s in _orbit_members(a)
                for t_ in _orbit_members(b)
            )
            assert orbit_sum % 2 == 0
            assert orbit_sum == 2 * z.pairing(a, b)
            runs += 1
    return runs


def test_criterion_8_property_suites(announce):
    counts = {
        "scalar ring axioms": _suite_scalar_ring_axioms(),
        "hnf idempotence": _suite_hnf_idempotence(),
        "membership monotonicity": _suite_membership_monotonicity(),
        "classifier relabeling": _suite_classifier_relabeling(),
        "pushforward evenness": _suite_pushforward_evenness(),
    }
    ok = all(n >= 100 for n in counts.values())
    announce(8, "property suites", ok)
