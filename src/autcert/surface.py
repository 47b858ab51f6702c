"""Curve configurations with exact intersection pairings.

The objects here are finite labeled sets of rational curves on a
surface together with their integer intersection table and a few named
points.  One table, built once at import, holds the 28 curves of the K3
construction with their checked Gram, the 36 marked points and the free
involution that swaps the two pencils.  Three configurations are read
from it: the 24-curve double Kummer pencil configuration (two
quadruples of sections and the sixteen exceptional curves), all 28
curves with the four rational curves meeting the diagonal of the grid,
and the quotient configuration on the Enriques surface.  A blow-up
ledger tracks the exceptional classes, and twice the canonical class,
of the quotient blown up at its marked point Q32 and then at three
points of that exceptional curve.

Everything is exact and everything is checkable: intersection numbers
are integers, coordinates of marked points are polynomials in t or s
(each a constant or a variable) or the point at infinity ``INFINITY``,
and the quotient intersection rule is the double-cover pushforward
(A.B) = (pull A . pull B)/2, computed only after the involution has
passed its isometry check.
"""

from __future__ import annotations

from operator import add
from types import MappingProxyType
from typing import Mapping

from .lattice import Gram, Mat
from .scalars import Frozen, MultiPoly

SURFACE_CHI = {"X_K3": 2, "Z_Enriques": 1}


class _Infinity:
    """The point at infinity of a pencil's affine line, written "inf"."""

    __slots__ = ()

    def __str__(self) -> str:
        return "inf"

    __repr__ = __str__


INFINITY = _Infinity()

# affine parameter values of the four special members of each pencil
PENCIL_X = (MultiPoly.const(1), MultiPoly.var("t"), INFINITY, MultiPoly.const(0))
PENCIL_U = (MultiPoly.const(1), MultiPoly.var("s"), INFINITY, MultiPoly.const(0))


def _construction():
    """The 28 curves, their Gram, the 36 marked points and the pencil swap.

    Curves, in order: sections E1..E4 and F1..F4 of the two genus-one
    pencils, the sixteen exceptional curves C11..C44 of the double
    Kummer grid, and the four extra rational curves C1..C4, all of
    self-intersection -2.  Cij meets Ej and Fi once each.  Ci meets Ei
    and Fi once, misses its own Cii, and meets each other diagonal Cjj
    twice; these diagonal values are forced by constancy of the pencil
    fiber classes 2Fk + sum_j Ckj, since pairing any curve with a fiber
    class is independent of the chosen fiber.  No other distinct pair
    meets.

    Marked points, each a read-only curve -> coordinate view shared by
    every build: Pij = Ej . Cij with x = 1, t, infinity, 0 as i = 1..4
    and P'ij = Fi . Cij with u = 1, s, infinity, 0 as j = 1..4,
    interleaved by (i, j), then Pi = Ci . Fi with u = t for i = 2 only.

    The pencil swap maps each curve to its image (Ei <-> Fi, Cij <-> Cji
    for i != j, Cii <-> Ci) and to the class of its orbit on the
    quotient (Hi, Dii, and D<max><min> for the off-diagonal pairs, the
    one spelling of each class); each marked point Pij, P'ij (i != j)
    and Pi to its image (Pij -> P'ji, P'ij -> Pji, Pii <-> Pi); and each
    Pij to the marking Qij it pushes down to.
    """
    labels = [f"{x}{i}" for x in "EF" for i in range(1, 5)]
    labels += [f"C{i}{j}" for i in range(1, 5) for j in range(1, 5)]
    labels += [f"C{i}" for i in range(1, 5)]
    pos = {lab: k for k, lab in enumerate(labels)}
    gram = [[-2 * (a == b) for b in labels] for a in labels]

    def meet(a, b, v=1):
        gram[pos[a]][pos[b]] = gram[pos[b]][pos[a]] = v

    image, klass, points, point_image, pushed = {}, {}, {}, {}, {}
    for i in range(1, 5):
        image[f"E{i}"], image[f"F{i}"] = f"F{i}", f"E{i}"
        klass[f"E{i}"] = klass[f"F{i}"] = f"H{i}"
        image[f"C{i}"], klass[f"C{i}"] = f"C{i}{i}", f"D{i}{i}"
        point_image[f"P{i}"] = f"P{i}{i}"
        meet(f"C{i}", f"E{i}")
        meet(f"C{i}", f"F{i}")
        for j in range(1, 5):
            c = f"C{i}{j}"
            meet(c, f"E{j}")
            meet(c, f"F{i}")
            image[c] = f"C{i}" if i == j else f"C{j}{i}"
            klass[c] = f"D{max(i, j)}{min(i, j)}"
            points[f"P{i}{j}"] = {f"E{j}": PENCIL_X[i - 1], c: None}
            points[f"P'{i}{j}"] = {f"F{i}": PENCIL_U[j - 1], c: None}
            pushed[f"P{i}{j}"] = f"Q{i}{j}"
            if i == j:
                point_image[f"P{i}{i}"] = f"P{i}"
            else:
                meet(f"C{i}", f"C{j}{j}", 2)
                point_image[f"P{i}{j}"] = f"P'{j}{i}"
                point_image[f"P'{i}{j}"] = f"P{j}{i}"
    for i in range(1, 5):
        points[f"P{i}"] = {f"F{i}": PENCIL_X[1] if i == 2 else None, f"C{i}": None}
    points = {p: MappingProxyType(on) for p, on in points.items()}
    return tuple(labels), Gram(gram), points, image, klass, point_image, pushed


(_LABELS, _GRAM, _POINTS, _EPSILON, QUOTIENT_CLASS, _POINT_EPSILON, _PUSHED_MARKING) = (
    _construction()
)


def is_curve_label(label: str) -> bool:
    """Whether ``label`` names one of the 28 curves of the extended configuration."""
    return label in _EPSILON


def construction_pairing(a: str, b: str) -> int:
    """The intersection number of two of the 28 curves in the construction table."""
    return _GRAM[_LABELS.index(a)][_LABELS.index(b)]


class Configuration(Frozen):
    """Labeled curves with an exact symmetric intersection table.

    ``markings`` is a read-only map of each named point to the curves it
    lies on, each curve label to the point's affine coordinate along that
    curve (a ``MultiPoly`` in t or s, or ``INFINITY``), or to None when
    the construction does not pin the coordinate down.
    ``gram`` is a :class:`~autcert.lattice.Gram`, checked once, here.
    Every curve has one spelling, its label.  Lookups go through a label
    -> index map built once; it takes no part in equality or repr.
    """

    __slots__ = ("tag", "labels", "gram", "markings", "_index")

    def __init__(
        self,
        tag: str,
        labels: tuple[str, ...],
        gram: Mat,
        markings: Mapping[str, Mapping[str, MultiPoly | _Infinity | None]] | None = None,
    ):
        if tag not in SURFACE_CHI:
            raise ValueError(f"unknown surface tag {tag!r}")
        labels = tuple(labels)
        if len(set(labels)) != len(labels) or not labels:
            raise ValueError("curve labels must be nonempty and distinct")
        gram = Gram(gram)
        if len(gram) != len(labels):
            raise ValueError("Gram size does not match label count")
        for i, row in enumerate(gram):  # symmetric: each pair once
            for j in range(i + 1, len(row)):
                if row[j] < 0:
                    raise ValueError(
                        f"distinct curves {labels[i]}, {labels[j]} meet negatively"
                    )
        if tag == "X_K3":
            for i, lab in enumerate(labels):
                if gram[i][i] != -2:
                    raise ValueError(f"curve {lab} on a K3 configuration must be a (-2)-curve")
        markings = dict(markings or {})
        index = {lab: i for i, lab in enumerate(labels)}
        for point, on in markings.items():
            if not point or not on:
                raise ValueError(f"marking {point!r} needs a label and lies on no curve")
            for curve, coord in on.items():
                if not (coord is None or coord is INFINITY or isinstance(coord, MultiPoly)):
                    raise TypeError(f"coordinate of {point} on {curve} not projective")
                if curve not in index:
                    raise ValueError(f"marking {point} lies on unknown curve {curve}")
        self._set(tag, labels, gram, MappingProxyType(markings), index)

    # -- lookups -------------------------------------------------------

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no curve labeled {label}") from None

    def pairing(self, a: str, b: str) -> int:
        return self.gram[self.index(a)][self.index(b)]

    def self_int(self, a: str) -> int:
        i = self.index(a)
        return self.gram[i][i]

    def marking_coord(self, point: str, curve: str) -> MultiPoly | _Infinity | None:
        on = self.markings[point]
        if curve not in on:
            raise KeyError(f"marking {point} does not lie on {curve}")
        return on[curve]


def with_intersection(config: Configuration, a: str, b: str, value: int) -> Configuration:
    """Copy of the configuration with one intersection number replaced.

    Exists to exercise failure paths: downstream verifications must
    notice and name the altered pair.
    """
    i, j = config.index(a), config.index(b)
    rows = [list(r) for r in config.gram]
    rows[i][j] = rows[j][i] = value
    return Configuration(
        config.tag,
        config.labels,
        tuple(tuple(r) for r in rows),
        config.markings,
    )


# -- the K3 configurations -----------------------------------------------------

_KUMMER = Configuration(
    "X_K3", _LABELS[:24], [row[:24] for row in _GRAM[:24]], dict(list(_POINTS.items())[:32])
)
_EXTENDED = Configuration("X_K3", _LABELS, _GRAM, _POINTS)


def build_double_kummer() -> Configuration:
    """The 24-curve double Kummer pencil configuration.

    The leading 24 curves of the construction table, E1..E4, F1..F4 and
    C11..C44, with their Gram block and their 32 marked points Pij and
    P'ij: one value, built and checked at import and immutable all the
    way through, returned to every caller.
    """
    return _KUMMER


def extend_with_conics(config: Configuration) -> Configuration:
    """Adjoin the four extra rational curves C1..C4 to the grid.

    ``config`` must equal the 24-curve double Kummer configuration; the
    result is the whole construction table, all 28 curves with their
    one stored Gram and all 36 marked points, P1..P4 included, built and
    checked once at import as ``build_double_kummer``'s value is.
    """
    if config != _KUMMER:
        raise ValueError("expected the 24-curve double Kummer configuration")
    return _EXTENDED


# -- isometries -----------------------------------------------------------------


class IsometryPerm(Frozen):
    """An involution of the curve labels and its action on markings."""

    __slots__ = ("curve_map", "point_map")

    def __init__(self, curve_map: Mapping[str, str], point_map: Mapping[str, str]):
        self._set(dict(curve_map), dict(point_map))

    def apply(self, label: str) -> str:
        return self.curve_map[label]

    def fixed_labels(self) -> tuple[str, ...]:
        return tuple(sorted(a for a, b in self.curve_map.items() if a == b))


def epsilon_involution(config: Configuration) -> IsometryPerm:
    """The pencil-swapping involution on the extended configuration.

    Read off the pencil-swap table: Ei <-> Fi, Cij <-> Cji for i != j,
    and Cii <-> Ci.  On markings: Pij -> P'ji and P'ij -> Pji for
    i != j, Pii -> Pi and Pi -> Pii.  The image of P'ii carries no
    marking label, so the point map is partial there.
    """
    needed = {f"C{i}" for i in range(1, 5)}
    if not needed <= set(config.labels):
        raise ValueError("the involution needs the extended configuration with C1..C4")
    unknown = [lab for lab in config.labels if lab not in _EPSILON]
    if unknown:
        raise ValueError(f"unexpected curve label {unknown[0]}")
    curve_map = {lab: _EPSILON[lab] for lab in config.labels}
    point_map = {p: _POINT_EPSILON[p] for p in config.markings if p in _POINT_EPSILON}
    return IsometryPerm(curve_map, point_map)


def verify_isometry(config: Configuration, perm: IsometryPerm) -> tuple[str, ...]:
    """Check that a label involution preserves the intersection table.

    Also checks bijectivity, that the map is its own inverse and fixes no
    curve, and that each pair of the point map takes a marking to a
    marking lying on exactly the image curves.  Returns the failures, none
    when it passes, each naming a pair or label: "E2,C32: 0; image F2,C23: 1", "fixes C11".
    """
    failures: list[str] = []
    labels = set(config.labels)
    cm = perm.curve_map
    if set(cm) != labels or set(cm.values()) != labels:
        # the labels missing from or foreign to the domain, else those not an image
        stray = ",".join(sorted(labels ^ set(cm)) or sorted(labels - set(cm.values())))
        return (f"not a permutation at {stray}",)
    gram = config.gram
    image = [config.index(cm[a]) for a in config.labels]
    for i, a in enumerate(config.labels):
        row, image_row = gram[i], gram[image[i]]
        for j in range(i, len(image)):
            before, after = row[j], image_row[image[j]]
            if before != after:
                b = config.labels[j]
                failures.append(f"{a},{b}: {before}; image {cm[a]},{cm[b]}: {after}")
    for a in config.labels:
        if cm[cm[a]] != a:
            failures.append(f"not an involution: {a} -> {cm[a]} -> {cm[cm[a]]}")
    failures += [f"fixes {a}" for a in perm.fixed_labels()]
    for p, q in perm.point_map.items():
        if p not in config.markings or q not in config.markings:
            failures.append(f"unknown marking in {p} -> {q}")
        elif {cm[c] for c in config.markings[p]} != set(config.markings[q]):
            failures.append(f"marking {p} -> {q} does not preserve incidence")
    return tuple(failures)


# -- quotient --------------------------------------------------------------------


def quotient_pushforward(
    config: Configuration, eps: IsometryPerm, failures: tuple[str, ...]
) -> Configuration:
    """Configuration of orbit curves on the free quotient.

    Orbits, named by ``QUOTIENT_CLASS``: Hj = {Ej, Fj}, the
    off-diagonal D-curves {Cij, Cji} (labeled D<max><min> only), and
    Dii = {Cii, Ci}; an orbit of ``eps`` that is none of these raises.
    Each curve's class is looked up once, and each orbit is checked by
    its image's class.  Intersections follow the double-cover rule
    (A.B) = (pull A . pull B)/2: A's two Gram rows are added once, and
    the sum is read at B's two indices.  The division is exact: for an
    isometric involution with orbits {a, a'} and {b, b'} the sum is
    2((a.b) + (a.b')).  Markings Qij are pushed down from Pij with their
    coordinates along the section curves.  ``failures`` is
    ``verify_isometry(config, eps)``, run by the caller; an involution
    that fails it, which includes fixing a curve, raises with its first failure.
    """
    if failures:
        raise ValueError(f"the involution fails the isometry check: {failures[0]}")

    # each class's summed Gram row, and the indices of its two curves
    classes = [QUOTIENT_CLASS.get(lab) for lab in config.labels]
    summed: dict[str, list[int]] = {}
    members: dict[str, list[int]] = {}
    for i, (lab, name) in enumerate(zip(config.labels, classes)):
        image = config.index(eps.apply(lab))
        if name is None or classes[image] != name:
            raise ValueError(f"unexpected orbit {sorted({lab, config.labels[image]})}")
        row = config.gram[i]
        if name in summed:
            summed[name] = list(map(add, summed[name], row))
            members[name].append(i)
        else:
            summed[name], members[name] = row, [i]

    z_labels = tuple(sorted(n for n in summed if n.startswith("H"))) + tuple(
        sorted(n for n in summed if n.startswith("D"))
    )
    columns = [members[nb] for nb in z_labels]
    gram = [tuple((r[j] + r[k]) // 2 for j, k in columns) for r in map(summed.get, z_labels)]

    markings = {
        q: {QUOTIENT_CLASS[c]: coord for c, coord in config.markings[p].items()}
        for p, q in _PUSHED_MARKING.items()
        if p in config.markings
    }

    return Configuration("Z_Enriques", z_labels, gram, markings)


# -- blow-up ledger ----------------------------------------------------------------


class BlowupLedger(Frozen):
    """Exceptional-class bookkeeping for the blown-up quotient.

    The marked point Q32 of Z is blown up, and then three distinct
    points Q321, Q322, Q323 on that exceptional curve.  Those three
    points are abstract labels: only their distinctness and position
    are used, so no coordinates are stored.  Classes live in the
    orthogonal exceptional basis with self-intersection -1 each; proper
    transforms are differences.
    """

    __slots__ = ("base",)
    exceptional_labels = ("E_inf'", "E321", "E322", "E323")

    def __init__(self, base: Configuration):
        if base.tag != "Z_Enriques":
            raise ValueError("ledger base must be the quotient configuration")
        if "Q32" not in base.markings:
            raise ValueError("the center Q32 is not a marking")
        self._set(base)

    def class_vector(self, label: str) -> tuple[int, ...]:
        """Coordinates in the orthogonal total-transform basis."""
        if label not in self.exceptional_labels:
            raise KeyError(f"no exceptional class {label}")
        k = self.exceptional_labels.index(label)
        return (1, -1, -1, -1) if k == 0 else tuple(int(m == k) for m in range(4))

    def self_intersection(self, label: str) -> int:
        v = self.class_vector(label)
        return -sum(x * x for x in v)


def canonical_multiple(ledger: BlowupLedger) -> dict[str, int]:
    """Twice the canonical class of the blown-up surface, in exceptional classes.

    The canonical class of the base is 2-torsion, so twice it vanishes
    and 2K of the blow-up is supported on the exceptional curves: each
    blow-up adds its exceptional curve to K, and pulling the first
    exceptional curve through the second blow-ups turns it into the
    proper transform plus the three new curves, giving coefficient
    pattern (2; 4, 4, 4).
    """
    first, *second = ledger.exceptional_labels
    return {first: 2, **dict.fromkeys(second, 4)}
