"""Staged certificate runner.

The pipeline replays the whole verification chain in nine stages, each
producing a :class:`StageResult` with a neutral statement of the claim
being checked (the anchor) and a JSON-ready evidence payload.  Facts
imported from the classical literature are never presented as machine
checks: they appear under ``external_inputs`` with their citation, so
the certificate states exactly what was computed and what was assumed.

:class:`Context` is the single source of construction data: it takes
the curve configurations, built once at import, applies the
``corrupt_pair`` fault, checks the involution, measures the signatures
and classifies each named fiber once per run, and every stage reads
them there.  An injected fault therefore reaches every stage that reads
the data it corrupts, and a stage that cannot be built from faulty data
reports ``fail`` instead of raising.

Reports are deterministic: all randomized search is seeded through
:class:`PipelineOptions`, evidence dictionaries are built in a fixed
order, and a report is written as canonical compact JSON, with sorted
keys and no insignificant whitespace.  Every number is serialized as an
exact string.
"""

from __future__ import annotations

import json
from functools import cached_property

from . import __version__
from .cremona import (
    COORDINATE_POINTS,
    SWAP_DRAWS,
    AffineMap,
    QuadricForm,
    contraction_check,
    conjugate_translation,
    cremona_map,
    find_swap_specializations,
)
from .fibration import (
    FiberClass,
    FiberDivisor,
    KodairaType,
    classify_kodaira,
    euler_number,
    map_fiber,
    shioda_tate_rank,
)
from .fingen import certify_nonfg, translation_str
from .lattice import (
    E6_IN_E8_NODES,
    RootType,
    cartan_E,
    dynkin_classify,
    gauss_reduce_rank2,
    orth_complement,
    signature,
)
from .mwl import ModInt, SectionData, height, section_from_config
from .scalars import Frozen, MultiPoly, _canonical, laurent_text
from .surface import (
    INFINITY,
    PENCIL_X,
    QUOTIENT_CLASS,
    SURFACE_CHI,
    BlowupLedger,
    Configuration,
    IsometryPerm,
    build_double_kummer,
    canonical_multiple,
    construction_pairing,
    epsilon_involution,
    extend_with_conics,
    is_curve_label,
    quotient_pushforward,
    verify_isometry,
    with_intersection,
)

# -- citations for the external inputs -------------------------------------------------

CITE_OG89 = (
    "K. Oguiso, On Jacobian fibrations on the Kummer surfaces of the "
    "product of non-isogenous elliptic curves, J. Math. Soc. Japan 41 "
    "(1989), 651-680"
)
CITE_OS91 = (
    "K. Oguiso and T. Shioda, The Mordell-Weil lattice of a rational "
    "elliptic surface, Comment. Math. Univ. St. Pauli 40 (1991), 83-99"
)
CITE_MU10 = (
    "S. Mukai, Numerically trivial involutions of Kummer type of an "
    "Enriques surface, Kyoto J. Math. 50 (2010), 889-902"
)
CITE_UE75 = (
    "K. Ueno, Classification theory of algebraic varieties and compact "
    "complex spaces, Lecture Notes in Math. 439, Springer, 1975 "
    "(Theorem 14.10)"
)
CITE_KO63 = (
    "K. Kodaira, On compact analytic surfaces II, Ann. of Math. 77 "
    "(1963), 563-626 (Theorem 9.1)"
)
CITE_BHPV = (
    "W. Barth, K. Hulek, C. Peters and A. Van de Ven, Compact Complex "
    "Surfaces, 2nd ed., Springer, 2004 (Chapter VIII)"
)

class PipelineOptions(Frozen):
    """Run configuration; echoed verbatim into every report."""

    __slots__ = ("max_gens", "seed", "corrupt_pair")

    def __init__(
        self, max_gens: int = 5, seed: int = 0, corrupt_pair: tuple[str, str] | None = None
    ):
        if not isinstance(max_gens, int) or isinstance(max_gens, bool) or max_gens < 1:
            raise ValueError(f"max_gens must be a positive integer, got {max_gens!r}")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if corrupt_pair is not None:
            corrupt_pair = tuple(corrupt_pair)
            if len(corrupt_pair) != 2 or not all(isinstance(x, str) for x in corrupt_pair):
                raise ValueError("corrupt_pair takes two curve labels")
            unknown = [x for x in corrupt_pair if not is_curve_label(x)]
            if unknown:
                raise ValueError(f"corrupt_pair names no curve: {unknown[0]!r}")
            if corrupt_pair[0] == corrupt_pair[1]:
                raise ValueError("corrupt_pair takes two distinct curve labels")
            if not construction_pairing(*corrupt_pair):
                raise ValueError(f"corrupt_pair {','.join(corrupt_pair)} already meets in 0")
        self._set(max_gens, seed, corrupt_pair)

    def to_record(self) -> dict:
        """The report's record of the options, every number an exact string."""
        pair = None if self.corrupt_pair is None else list(self.corrupt_pair)
        return {"max_gens": str(self.max_gens), "seed": str(self.seed), "corrupt_pair": pair}


class StageResult(Frozen):
    """One stage of the certificate: claim anchor and evidence; its status
    is read off the evidence's checks, "fail" when any one fails."""

    __slots__ = ("name", "anchor", "evidence")

    def __init__(self, name: str, anchor: str, evidence: dict):
        self._set(name, anchor, evidence)

    @property
    def status(self) -> str:
        return "fail" if any(c["status"] == "fail" for c in self.evidence["checks"]) else "pass"

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "anchor": self.anchor,
            "evidence": self.evidence,
        }


class CertificateReport(Frozen):
    """The assembled certificate: ordered stages plus the verdict."""

    __slots__ = ("version", "options", "stages", "verdict")

    def __init__(
        self, version: str, options: PipelineOptions, stages: tuple[StageResult, ...], verdict: str
    ):
        self._set(version, options, stages, verdict)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "options": self.options.to_record(),
            "stages": [s.to_json_dict() for s in self.stages],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        # a report is a tree built here, so no cycle guard; a cycle still raises RecursionError
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":"), check_circular=False
        ) + "\n"


def _stringify(obj):
    """Copy a payload with every numeric or exotic leaf turned into its string.

    Dicts stay dicts, lists and tuples become lists, and a set raises
    ``TypeError``, since its hash order must not reach a report; anything
    else, a value type included, is a leaf written by its own ``str``.  A
    record writes itself instead, as ``PipelineOptions.to_record`` does.
    """
    kind = type(obj)  # the exact types a payload holds first, then subclasses
    if kind is str or kind is bool or obj is None:
        return obj
    if kind is int:
        return str(obj)
    if kind is dict or isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if kind is list or kind is tuple or isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, str):  # bool has no subclass
        return obj
    if isinstance(obj, (set, frozenset)):
        raise TypeError(f"a report cannot hold a {type(obj).__name__}: it has no fixed order")
    return str(obj)


def _check(claim: str, witness: str | None, **data) -> dict:
    """A check record; it fails exactly when it carries a witness, one line of text."""
    if witness is not None and not isinstance(witness, str):
        raise TypeError(f"a witness is a str or None, got {type(witness).__name__}")
    entry = {"claim": claim, "status": "pass" if witness is None else "fail"}
    if witness is not None:
        entry["witness"] = witness
    entry.update(_stringify(data))
    return entry


def _measured(name: str, value, want) -> str | None:
    """The witness "<name> <value>; expected <want>" of a measured figure
    that misses ``want``, or None when it equals it."""
    return None if value == want else f"{name} {value}; expected {want}"


def _external(claim: str, citation: str) -> dict:
    return {"claim": claim, "status": "external-input", "citation": citation}


def _annotation(note: str) -> dict:
    return {"status": "annotation", "note": note}


def _assemble(name: str, checks, external=(), annotations=()) -> StageResult:
    evidence: dict = {"checks": list(checks)}
    if external:
        evidence["external_inputs"] = list(external)
    if annotations:
        evidence["annotations"] = list(annotations)
    return StageResult(name, _ANCHORS[name], evidence)


# -- shared construction data ----------------------------------------------------------


class Context:
    """The construction, fault-injected and measured once per run.

    Stages read their inputs here, and nothing else applies
    ``corrupt_pair``.  The unfaulted curves are the one value built at
    import; a fault checks its own copy.  Each fact is a cached
    property, built on first use, so a stage run alone builds only what
    it reads.  A build that raises stores nothing: every build is
    deterministic, so each stage that reads the fact rebuilds it, raises
    the same exception and reports the same witness.  Each named fiber's
    :class:`FiberClass`, which gives its Kodaira type and, for I_n, its
    cycle, is kept the same way.  The conjugate of a translation by a
    scaling is one fact too, computed once over a symbolic unit:
    dynamics reads its shifts there and nonfg its generators.

    Config and the quotient share the involution's isometry failures,
    ``eps_failures``, and the 28-curve congruence gives the 24-curve
    inertia too: the Kummer form is no separate copy but x's leading
    24 x 24 block, faulted exactly when both labels of ``corrupt_pair`` are among the 24.
    """

    def __init__(self, options: PipelineOptions):
        self.options = options
        self._fiber_classes: dict[str, FiberClass] = {}

    @cached_property
    def x(self) -> Configuration:
        """The 28 curves upstairs, faulted; the first 24 are the double Kummer curves."""
        x = extend_with_conics(build_double_kummer())
        pair = self.options.corrupt_pair
        return x if pair is None else with_intersection(x, *pair, 0)

    @cached_property
    def eps(self) -> IsometryPerm:
        return epsilon_involution(self.x)

    @cached_property
    def eps_failures(self) -> tuple[str, ...]:
        """The isometry check's failures, none when the involution passes;
        read by config and by the quotient."""
        return verify_isometry(self.x, self.eps)

    @cached_property
    def z(self) -> Configuration:
        """The 14 classes on the quotient; raises if the involution is no free isometry."""
        return quotient_pushforward(self.x, self.eps, self.eps_failures)

    @cached_property
    def x_signatures(self) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """Inertia of the 24 Kummer curves' form, x's leading block, and of
        the 28-curve form, from the one congruence of x's Gram."""
        return signature(self.x.gram, leading=24)

    @cached_property
    def z_signature(self) -> tuple[int, int, int]:
        """Inertia of the 14-class intersection form."""
        return signature(self.z.gram)

    @property
    def x_rank(self) -> int:
        """The Picard number upstairs: n+ + n- of the one congruence."""
        return sum(self.x_signatures[1][:2])

    @property
    def z_rank(self) -> int:
        """The Picard number downstairs: n+ + n- of the one congruence."""
        return sum(self.z_signature[:2])

    @cached_property
    def fibers(self) -> dict[str, FiberDivisor]:
        """The named fibers, upstairs and on the quotient.

        N1 is an 8-cycle and N2 a IV* tree; N1eps and N2eps are their
        involution images, and M1 and M2 their pushforwards, each
        component mapped to its class by ``QUOTIENT_CLASS``.
        """
        up = {
            "N1": FiberDivisor.of(("E2", "C32", "F3", "C31", "E1", "C41", "F4", "C42")),
            "N2": FiberDivisor(
                {"E2": 1, "C32": 2, "E1": 1, "C31": 2, "E4": 1, "C34": 2, "F3": 3}
            ),
        }
        return {
            **up,
            **{f"{name}eps": map_fiber(f, self.eps.curve_map) for name, f in up.items()},
            **{f"M{name[1:]}": map_fiber(f, QUOTIENT_CLASS) for name, f in up.items()},
        }

    def fiber_class(self, name: str) -> FiberClass:
        """The named fiber, validated and classified once.

        A divisor that fails the fiber conditions raises ``ValueError``
        on each call, and nothing is kept for it.
        """
        if name not in self._fiber_classes:
            config = self.z if name.startswith("M") else self.x
            self._fiber_classes[name] = classify_kodaira(config, self.fibers[name])
        return self._fiber_classes[name]

    @cached_property
    def fiber_types(self) -> dict[str, KodairaType | None]:
        """The Kodaira type of each named fiber.

        None when the divisor fails the fiber conditions or its dual
        graph matches no type.  A quotient that cannot be built is no
        rejected divisor: it fails every reader of the types with its
        own error.
        """
        self.z  # a broken quotient raises here, not as a rejected M1 or M2
        types = {}
        for name in self.fibers:
            try:
                types[name] = self.fiber_class(name).fiber_type
            except ValueError:
                types[name] = None
        return types

    def kodaira(self, name: str) -> KodairaType:
        """The type of a named fiber, for stages that cannot go on without one."""
        kt = self.fiber_types[name]
        if kt is None:
            raise ValueError(f"fiber {name} has no Kodaira type")
        return kt

    def cycle(self, name: str) -> tuple[str, ...]:
        """The components of the named I_n fiber (N1 or N1eps) in cyclic order;
        a fiber that matches no Kodaira type has none and raises."""
        fiber = self.fiber_class(name)
        if fiber.fiber_type is None:
            raise ValueError(f"fiber {name} has no Kodaira type")
        return fiber.cycle

    @cached_property
    def conjugate(self) -> AffineMap:
        """scaling(u)^-1 . translate(1) . scaling(u), with t standing for the unit u."""
        return conjugate_translation({1: 1})

    def shifts(self, count: int) -> list[dict]:
        """The conjugate's shifts at u = t^2n for n = 0..count-1, each the
        coefficient of a in the conjugate by the n-th power of x -> t^2 x:
        for n != 0, e -> 2n*e is one-to-one, so canonical terms stay
        canonical, and u = 1 sums them.  Dynamics reads n = 1..10 and nonfg
        its generators, n = 0..max_gens."""
        terms = self.conjugate.shift
        return [
            {2 * n * e: c for e, c in terms} if n else _canonical({0: sum(c for _, c in terms)})
            for n in range(count)
        ]


# -- the nine stages ---------------------------------------------------------------------


# Each stage's claim, stated once; a stage that cannot be built fails with it.
_ANCHORS = {
    "config": (
        "Twenty-four smooth rational curves with the double Kummer incidence "
        "span a rank-18 lattice of signature (1, 17); four further curves "
        "extend it without changing the rank, and the curve swap is an "
        "isometry without fixed curves."
    ),
    "cremona": (
        "The reciprocal involution of projective 3-space preserves every "
        "member of the quadric family through the four coordinate points up "
        "to the cofactor a1*a2*a3*x1*x2*x3*x4, contracts the coordinate "
        "planes, and swaps the two rulings of each smooth member."
    ),
    "quotient": (
        "Pushing the 28 curves forward along the free involution yields 14 "
        "classes whose pairing is half the upstairs pairing of orbit sums, "
        "and the marked point lands on H2 at infinity."
    ),
    "fibrations": (
        "The eight-curve cycle and the seven-curve star, upstairs and on "
        "the quotient, have Kodaira types I8 and IV*; applying the free "
        "involution upstairs reproduces the same types on disjoint support."
    ),
    "lattice": (
        "Shioda-Tate bookkeeping gives Mordell-Weil rank 2 both for the "
        "I8 + I8 fibration (Picard number 18) and for the IV* fibration on "
        "the rational elliptic surface (Picard number 10); the orthogonal "
        "complement of E6 in E8 is the root lattice A2."
    ),
    "heights": (
        "In the Mordell-Weil lattice of the I8 + I8 fibration the section "
        "C12 is 2-torsion, C11 has height 2, and C22 re-based at C11 has "
        "height 0; the narrow lattice of the IV* fibration has a generator "
        "of height 2."
    ),
    "canonical": (
        "On the surface obtained by one blow-up at the marked point and "
        "three more on its exceptional curve, twice the canonical class is "
        "2 E_inf' + 4 (E321 + E322 + E323), with E_inf' of "
        "self-intersection -4."
    ),
    "dynamics": (
        "The section translation scales the smooth-locus coordinate by t "
        "and shifts components by 4; its square scales by t^2 with no "
        "shift, and conjugating a translation by its n-th power produces "
        "the translations x -> x + t^(-2n) a."
    ),
    "nonfg": (
        "The group generated by all translations x -> x + t^(-2n) a is the "
        "union of a strictly increasing chain of finitely generated "
        "subgroups, each escape certified by an integer-span membership "
        "refutation; such a group is not finitely generated."
    ),
}


def _stage_config(ctx: Context) -> StageResult:
    x = ctx.x
    signature_24 = ctx.x_signatures[0]
    checks = [
        _check(
            "the 24-curve intersection form has signature (1, 17)",
            _measured("signature", signature_24, (1, 17, 6)),
            signature=signature_24,
        ),
        _check(
            "adjoining the four extra curves keeps the rank at 18",
            _measured("rank", ctx.x_rank, 18),
            rank=ctx.x_rank,
            curves=len(x.labels),
        ),
        _check(
            "the curve swap E_i <-> F_i, C_ij <-> C_ji, C_ii <-> C_i is an "
            "isometry with no fixed curve",
            ctx.eps_failures[0] if ctx.eps_failures else None,
            fixed_labels=list(ctx.eps.fixed_labels()),
        ),
    ]
    return _assemble("config", checks)


# the claimed cofactors and the coordinates x1..x4, which the checks
# multiply back in on every run, and the cofactors' report text
_COFACTOR = MultiPoly.monomial(("a1", "a2", "a3", "x1", "x2", "x3", "x4"), (1,) * 7, 1)
_COFACTOR2 = _COFACTOR * _COFACTOR
_COFACTOR_TEXT, _COFACTOR2_TEXT = str(_COFACTOR), str(_COFACTOR2)
_COORDINATES = tuple(MultiPoly.var(f"x{k}") for k in range(1, 5))


def _stage_cremona(ctx: Context) -> StageResult:
    tau = cremona_map()
    q = QuadricForm.standard()
    c, c2 = _COFACTOR, _COFACTOR2
    # each claimed cofactor is multiplied back in; what misses is the witness
    composed = tau.pullback(q.poly)
    missed_components = [
        f"component {k}: {p}"
        for k, (p, x) in enumerate(zip(map(tau.pullback, tau.components), _COORDINATES), 1)
        if p != c2 * x
    ]
    points = [contraction_check(tau, i) for i in range(1, 5)]
    # plane {x_i = 0} must contract to e_i
    missed_planes = [
        f"plane {i}: {p}" for i, (p, e) in enumerate(zip(points, COORDINATE_POINTS), 1) if p != e
    ]
    det = q.determinant()
    reports = find_swap_specializations(seed=ctx.options.seed, tau=tau)
    checks = [
        _check(
            "substituting the map into the quadric returns the cofactor "
            "a1*a2*a3*x1*x2*x3*x4",
            None if composed == c * q.poly else f"q(map) = {composed}",
            cofactor=_COFACTOR_TEXT,
        ),
        _check(
            "composing the map with itself gives the identity times the "
            "squared cofactor",
            "; ".join(missed_components) or None,
            cofactor=_COFACTOR2_TEXT,
        ),
        _check(
            "each coordinate plane contracts to the matching coordinate point",
            "; ".join(missed_planes) or None,
            points=points,
        ),
        _check(
            "the symmetric matrix of the quadric has a nonzero determinant, "
            "so the generic member is smooth",
            None if det else f"determinant {det}; expected nonzero",
            determinant=det,
        ),
        _check(
            "at a seeded sample of parameter values the involution swaps the "
            "two rulings of the smooth quadric, exchanging all 12 marked "
            "intersection points in pairs",
            None
            if len(reports) >= 3
            else f"found {len(reports)} of 3 passing triples in {SWAP_DRAWS} draws",
            specializations=[
                {
                    "alpha": list(r.alpha),
                    "discriminants": list(r.discriminants),
                    "swaps_checked": r.swaps_checked,
                }
                for r in reports
            ],
        ),
    ]
    return _assemble(
        "cremona",
        checks,
        annotations=[
            _annotation(
                "the four tangency points of the coordinate planes are the "
                "coordinate points by construction, so their non-coplanarity "
                "is automatic here rather than an independent check"
            )
        ],
    )


def _stage_quotient(ctx: Context) -> StageResult:
    z = ctx.z
    samples = [("H2", "D32", 1), ("D11", "H1", 2), ("D11", "D22", 2), ("H1", "H2", 0)]
    read = [(a, b, z.pairing(a, b), v) for a, b, v in samples]
    missed = [f"{a},{b}: {p}; expected {v}" for a, b, p, v in read if p != v]
    missed += [f"{lab}: {s}; expected -2" for lab in z.labels if (s := z.self_int(lab)) != -2]
    q32 = z.marking_coord("Q32", "H2")
    checks = [
        _check(
            "the quotient classes span a rank-10 lattice of signature (1, 9)",
            _measured("signature", ctx.z_signature, (1, 9, 4)),
            signature=ctx.z_signature,
            rank=ctx.z_rank,
        ),
        _check(
            "pushed-forward pairings halve the upstairs orbit pairings and "
            "every class stays a (-2)-class",
            "; ".join(missed) or None,
            samples=[[a, b, v] for a, b, v in samples],
        ),
        _check(
            "the distinguished marked point descends to the class H2 with "
            "affine coordinate at infinity",
            _measured("coordinate", q32, INFINITY),
            coordinate=q32,
        ),
    ]
    return _assemble(
        "quotient",
        checks,
        external=[
            _external(
                "the covering involution acts freely on the surface, so "
                "intersection numbers descend by halving; the combinatorial "
                "check above only verifies that the induced permutation has "
                "no fixed curve and no fixed marked point",
                CITE_MU10,
            )
        ],
    )


def _stage_fibrations(ctx: Context) -> StageResult:
    expected = {"N1": "I8", "N2": "IV*", "M1": "I8", "M2": "IV*"}
    types = {name: ctx.fiber_types[name] for name in expected}
    eps_types = {f"{name}eps": ctx.fiber_types[f"{name}eps"] for name in ("N1", "N2")}
    # each miss is "<fiber>: <type>; expected <type>", or the labels an image shares
    missed = [
        f"{n}: {kt}; expected {expected[n]}" for n, kt in types.items() if str(kt) != expected[n]
    ]
    eps_missed = []
    for name in ("N1", "N2"):
        image = f"{name}eps"
        if str(eps_types[image]) != expected[name]:
            eps_missed.append(f"{image}: {eps_types[image]}; expected {expected[name]}")
        shared = set(ctx.fibers[name].labels()) & set(ctx.fibers[image].labels())
        if shared:
            eps_missed.append(f"{image} shares {','.join(sorted(shared))} with {name}")
    checks = [
        _check(
            "the two divisors upstairs and their pushforwards downstairs "
            "classify as Kodaira types I8 and IV*",
            "; ".join(missed) or None,
            types=types,
            expected=expected,
        ),
        _check(
            "the involution images of the upstairs divisors are disjoint "
            "from them and classify identically",
            "; ".join(eps_missed) or None,
            types=eps_types,
        ),
    ]
    return _assemble(
        "fibrations",
        checks,
        external=[
            _external(
                "for the two genus-one pencils in play, the reducible fibers "
                "listed here are the only ones, so the Shioda-Tate count in "
                "the next stage uses the complete fiber list",
                CITE_OG89,
            )
        ],
    )


def _stage_lattice(ctx: Context) -> StageResult:
    up = shioda_tate_rank(ctx.x_rank, [ctx.kodaira("N1"), ctx.kodaira("N1eps")])
    down = shioda_tate_rank(ctx.z_rank, [ctx.kodaira("M2")])
    e = {name: euler_number(ctx.kodaira(name)) for name in ctx.fibers}
    sums = {
        "two I8 on the covering surface": (e["N1"] + e["N1eps"], 24),
        "two IV* on the covering surface": (e["N2"] + e["N2eps"], 24),
        "one I8 on the rational surface": (e["M1"], 12),
        "one IV* on the rational surface": (e["M2"], 12),
    }
    _, induced = orth_complement(cartan_E(8), E6_IN_E8_NODES)
    reduced = gauss_reduce_rank2(induced)
    classified = dynkin_classify(reduced)
    over = [f"{k}: {t} > {b}" for k, (t, b) in sums.items() if t > b]
    checks = [
        _check(
            "rank 18 minus 2 minus the 14 non-identity components of two I8 "
            "fibers leaves Mordell-Weil rank 2",
            _measured("rank", up, 2),
            rank=up,
        ),
        _check(
            "rank 10 minus 2 minus the 6 non-identity components of one IV* "
            "fiber leaves Mordell-Weil rank 2 on the rational elliptic "
            "surface",
            _measured("rank", down, 2),
            rank=down,
        ),
        _check(
            "known reducible fibers never exceed the Euler number budget of "
            "the surface carrying them",
            "; ".join(over) or None,
            sums={k: [t, b] for k, (t, b) in sums.items()},
        ),
        _check(
            "the orthogonal complement of E6 inside E8 reduces to the Gram "
            "matrix [[2, -1], [-1, 2]] of the root lattice A2",
            None
            if reduced == ((2, -1), (-1, 2)) and classified == RootType("A", 2)
            else f"reduced {reduced}, classified {classified}; "
            "expected ((2, -1), (-1, 2)), A2",
            induced=[list(r) for r in induced],
            reduced=[list(r) for r in reduced],
            classified=classified,
        ),
    ]
    return _assemble(
        "lattice",
        checks,
        external=[
            _external(
                "a rational elliptic surface with a IV* fiber and "
                "Mordell-Weil rank 2 is entry No. 27 of the classification, "
                "and its narrow Mordell-Weil lattice is the positive "
                "definite root lattice A2",
                CITE_OS91,
            )
        ],
    )


def _stage_heights(ctx: Context) -> StageResult:
    x = ctx.x
    fids = ("N1", "N1eps")
    types = tuple((fid, ctx.kodaira(fid)) for fid in fids)
    chi, chi_z = SURFACE_CHI[x.tag], SURFACE_CHI[ctx.z.tag]
    cycles = [(fid, ctx.cycle(fid)) for fid in fids]
    c12 = section_from_config(x, cycles, "C12", "C21")
    c11 = section_from_config(x, cycles, "C11", "C21")
    c22 = section_from_config(x, cycles, "C22", "C11")
    h12, h11, h22 = (height(chi, types, c) for c in (c12, c11, c22))
    hp = height(chi_z, (("M2", ctx.kodaira("M2")),), SectionData("P", 0, {"M2": ModInt(0, 3)}))
    # 2-torsion needs both: height 0 and every doubled index the identity component
    c12_missed = [_measured("height", h12, 0)] + [
        _measured(f"{fid} doubled index", m + m, ModInt(0, m.modulus))
        for fid, m in c12.components.items()
    ]
    checks = [
        _check(
            "the section C12 has height 0 against the zero section C21 and "
            "doubling its component indices lands on the identity, so its "
            "class is 2-torsion",
            "; ".join(filter(None, c12_missed)) or None,
            height=h12,
            dot_zero=c12.dot_zero,
            indices={fid: c12.components[fid] for fid in fids},
        ),
        _check(
            "the section C11 has height 2",
            _measured("height", h11, 2),
            height=h11,
            indices={fid: c11.components[fid] for fid in fids},
        ),
        _check(
            "re-basing at the zero section C11, the section C22 has height "
            "0, so the difference of the classes of C22 and C11 is torsion "
            "and equals the unique nonzero torsion class",
            _measured("height", h22, 0),
            height=h22,
            dot_zero=c22.dot_zero,
            indices={fid: c22.components[fid] for fid in fids},
        ),
        _check(
            "a section of the IV* fibration through the identity component "
            "and disjoint from the zero section has height 2",
            _measured("height", hp, 2),
            height=hp,
        ),
    ]
    return _assemble(
        "heights",
        checks,
        external=[
            _external(
                "the Mordell-Weil group of the I8 + I8 fibration is "
                "Z^2 x Z/2; in particular there is exactly one nonzero "
                "torsion class",
                CITE_OG89,
            )
        ],
        annotations=[
            _annotation(
                "the customary display 2*2 + 2*2 - 4*(8-4)/8 - 4*(8-4)/8 "
                "evaluates to 4, not 0; the height computed from the "
                "recorded intersection data is 2*2 + 2*0 - 2 - 2 = 0, since "
                "the section meets the zero section in 0 points, not 2"
            )
        ],
    )


def _stage_canonical(ctx: Context) -> StageResult:
    ledger = BlowupLedger(ctx.z)
    twice = canonical_multiple(ledger)
    self_int = ledger.self_intersection("E_inf'")
    twice_text = " + ".join(f"{c} {e}" for e, c in twice.items())
    checks = [
        _check(
            "after blowing up the marked point and then three points on its "
            "exceptional curve, twice the canonical class is 2 E_inf' + "
            "4 (E321 + E322 + E323)",
            None
            if twice == {"E_inf'": 2, "E321": 4, "E322": 4, "E323": 4}
            else f"2K = {twice_text}; expected 2 E_inf' + 4 E321 + 4 E322 + 4 E323",
            coefficients=twice,
        ),
        _check(
            "the twice-blown-up exceptional curve E_inf' has "
            "self-intersection -4",
            _measured("self_intersection", self_int, -4),
            self_intersection=self_int,
            class_vector=list(ledger.class_vector("E_inf'")),
        ),
    ]
    return _assemble(
        "canonical",
        checks,
        external=[
            _external(
                "the canonical class of an Enriques surface is nonzero and "
                "2-torsion, so twice it vanishes and only the exceptional "
                "curves of the blow-ups carry twice the canonical class",
                CITE_BHPV,
            )
        ],
    )


def _stage_dynamics(ctx: Context) -> StageResult:
    x = ctx.x
    p22 = x.marking_coord("P22", "E2")
    p2 = x.marking_coord("P2", "F2")
    n1 = [("N1", ctx.cycle("N1"))]
    idx_c11 = section_from_config(x, n1, "C11", "C21").components["N1"]
    idx_c2 = section_from_config(x, n1, "C2", "C21").components["N1"]
    total = idx_c11 + idx_c2
    # one conjugation by x -> u*x, t standing for u; u = t^2n sends exponent e
    # to 2n*e, one-to-one, so every shift is t^-2n exactly when this one is u^-1
    conj = ctx.conjugate
    escapes = [translation_str(s) for s in ctx.shifts(11)[1:]]
    checks = [
        _check(
            "the marked points P22 on E2 and P2 on F2 carry the same affine "
            "coordinate t, so the two translation actions glue",
            None
            if p22 == p2 == PENCIL_X[1]
            else f"P22 {p22}, P2 {p2}; expected {PENCIL_X[1]}",
            coordinates={"P22": p22, "P2": p2},
        ),
        _check(
            "the component indices of C11 and C2 in the 8-cycle sum to 4 "
            "mod 8, so the induced action shifts components by 4 and its "
            "square by 0",
            _measured("sum", total, ModInt(4, 8)),
            indices={"C11": idx_c11, "C2": idx_c2},
            sum=total,
        ),
        _check(
            "conjugating the translation x -> x + a by the n-th power of "
            "x -> t^2 x yields x -> x + t^(-2n) a for n = 1..10, each "
            "fixing the point at infinity",
            None
            if conj == AffineMap({0: 1}, {-1: 1})
            else f"conjugate x -> ({laurent_text(dict([conj.scale]))})*x + "
            f"{translation_str(dict(conj.shift))}; expected x -> x + (t^-1)*a",
            shifts=escapes,
        ),
    ]
    return _assemble(
        "dynamics",
        checks,
        external=[
            _external(
                "the smooth locus of an 8-component cycle fiber is "
                "C* x Z/8, on which section translations act by the "
                "recorded scale-and-shift form",
                CITE_KO63,
            )
        ],
    )


def _stage_nonfg(ctx: Context) -> StageResult:
    failure, record = certify_nonfg(ctx.shifts(ctx.options.max_gens + 1))
    checks = [
        _check(
            "every one of the nested spans verified: stage k refutes "
            "membership of t^(-2k) a in the span of the first k shifts and "
            "confirms it in the span of the first k+1",
            failure,
            stage_count=len(record["stages"]),
        ),
    ]
    stage = _assemble(
        "nonfg",
        checks,
        external=[
            _external(
                "the pluricanonical representation of the automorphism "
                "group of a compact complex surface has finite image, which "
                "reduces finite generation of the full group to finite "
                "generation of the translation subgroup considered here",
                CITE_UE75,
            )
        ],
    )
    # the record is already strings and booleans, so it skips _stringify,
    # whose walk would copy all of it again
    stage.evidence["certificate"] = record
    return stage


_STAGE_FUNCS = {
    "config": _stage_config,
    "cremona": _stage_cremona,
    "quotient": _stage_quotient,
    "fibrations": _stage_fibrations,
    "lattice": _stage_lattice,
    "heights": _stage_heights,
    "canonical": _stage_canonical,
    "dynamics": _stage_dynamics,
    "nonfg": _stage_nonfg,
}

STAGE_ORDER = tuple(_STAGE_FUNCS)


def _run(names: tuple[str, ...], options: PipelineOptions | None) -> CertificateReport:
    """Run the named stages in order on one Context and give the verdict.

    A stage that raises ValueError or ArithmeticError could not be built
    from the construction it read.  It becomes a ``fail`` stage whose one
    check states the stage anchor and carries the exception's text as its
    witness, its class as ``detail`` and ``kind`` "stage-raised".  Any
    other exception is a bug and propagates.
    """
    for name in names:
        if name not in _STAGE_FUNCS:
            raise ValueError(f"unknown stage {name!r}; stages are {', '.join(STAGE_ORDER)}")
    options = options or PipelineOptions()
    ctx = Context(options)
    stages = []
    for name in names:
        try:
            stages.append(_STAGE_FUNCS[name](ctx))
        except (ValueError, ArithmeticError) as exc:
            raised = _check(
                _ANCHORS[name], str(exc), kind="stage-raised", detail=type(exc).__name__
            )
            stages.append(_assemble(name, [raised]))
    verdict = "pass" if all(s.status != "fail" for s in stages) else "fail"
    return CertificateReport(__version__, options, tuple(stages), verdict)


def run_stage(name: str, options: PipelineOptions | None = None) -> StageResult:
    """Run a single stage, building its inputs on demand."""
    return _run((name,), options).stages[0]


def run_all(options: PipelineOptions | None = None) -> CertificateReport:
    """Run all nine stages in order and assemble the certificate."""
    return _run(STAGE_ORDER, options)
