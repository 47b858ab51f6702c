"""Kodaira classification of reducible fibers from intersection data.

A fiber is presented as a formal nonnegative combination of
configuration curves.  Validation checks exactly what makes such a
divisor a genus-one fiber candidate built from (-2)-curves: every
component meets the whole divisor in zero, the support is connected,
and consequently the divisor has square zero.  Classification
validates the divisor, then reads the weighted dual graph, in one
pass: ``classify_kodaira`` gives the type and, for I_n, the components
in cyclic order.

Every type is read off an affine Dynkin diagram (K. Kodaira, Ann. of
Math. 77, 1963): the dual graph of I_n is affine A_{n-1}, that of I_n*
is affine D_{n+4}, and those of IV*, III* and II* are affine E6, E7
and E8, each with the diagram's null vector as multiplicities.  As
distinct curves meet nonnegatively, the multiplicities of a validated
fiber are a positive multiple of such a null vector.  So a fiber with
all multiplicities one is a single cycle, type I_n, and any other
fiber with a component of multiplicity one is read by deleting that
component: what is left is the finite diagram D_n or E_n, which
``lattice.dynkin_classify`` recognizes by its arm lengths.

Two classical collisions are resolved by convention: a double edge on
two components is reported as I2 (type III has the same dual graph)
and a triangle as I3 (type IV likewise).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .lattice import RootType, dynkin_classify, is_connected
from .scalars import Frozen
from .surface import Configuration

_PLAIN_SYMBOLS = ("II", "III", "IV", "II*", "III*", "IV*")
_INDEXED_SYMBOLS = ("I", "I*")


class KodairaType(Frozen):
    """A Kodaira fiber type symbol, e.g. I8, I*0, IV*."""

    __slots__ = ("symbol", "index")

    def __init__(self, symbol: str, index: int | None = None):
        if symbol in _PLAIN_SYMBOLS:
            if index is not None:
                raise ValueError(f"type {symbol} takes no index")
        elif symbol in _INDEXED_SYMBOLS:
            if not isinstance(index, int) or isinstance(index, bool):
                raise ValueError(f"type {symbol} needs an integer index")
            if symbol == "I" and index < 1:
                raise ValueError("type I_n needs n >= 1")
            if symbol == "I*" and index < 0:
                raise ValueError("type I*_n needs n >= 0")
        else:
            raise ValueError(f"unknown Kodaira symbol {symbol!r}")
        self._set(symbol, index)

    def __str__(self) -> str:
        if self.index is None:
            return self.symbol
        if self.symbol == "I":
            return f"I{self.index}"
        return f"I{self.index}*"


def euler_number(kt: KodairaType) -> int:
    if kt.symbol == "I":
        return kt.index
    if kt.symbol == "I*":
        return kt.index + 6
    return {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}[kt.symbol]


def component_count(kt: KodairaType) -> int:
    if kt.symbol == "I":
        return kt.index
    if kt.symbol == "I*":
        return kt.index + 5
    return {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}[kt.symbol]


class FiberDivisor(Frozen):
    """Formal positive integer combination of configuration curves."""

    __slots__ = ("components",)

    def __init__(self, components: Mapping[str, int]):
        comps = dict(components)
        if not comps:
            raise ValueError("a fiber needs at least one component")
        for lab, mult in comps.items():
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ValueError(f"bad multiplicity {mult!r} at {lab}")
        self._set(comps)

    @staticmethod
    def of(labels: Iterable[str]) -> "FiberDivisor":
        return FiberDivisor({lab: 1 for lab in labels})

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.components))


def map_fiber(fiber: FiberDivisor, curve_map: Mapping[str, str]) -> FiberDivisor:
    """Image of a fiber under a curve relabeling; no two components may
    share an image, since their multiplicities would collide."""
    image: dict[str, int] = {}
    for lab, m in fiber.components.items():
        target = curve_map[lab]
        if target in image:
            raise ValueError(f"components of the fiber share the image {target}")
        image[target] = m
    return FiberDivisor(image)


class FiberReport(NamedTuple):
    """The fiber-candidate verdict and its failures, one line of text each;
    each component's neighbours in the support, which classification reads
    cycles from; and each component as label -> (Gram index, multiplicity),
    which it reads the weighted dual graph from."""

    passed: bool
    failures: tuple[str, ...]
    neighbours: Mapping[str, set[str]]
    components: Mapping[str, tuple[int, int]]


def validate_fiber(config: Configuration, fiber: FiberDivisor) -> FiberReport:
    """Check the fiber-candidate conditions, naming each violation.

    The components are indexed once; one pass then reads each
    component's Gram row, by index, for its self-intersection, its
    pairing with the fiber (the fiber's square is their weighted sum)
    and its neighbours in the support.  Failures read "A has
    self-intersection 0", "E2 meets the fiber: -1", "fiber square: -2".
    """
    comps = {lab: (config.index(lab), mult) for lab, mult in fiber.components.items()}
    selfs: list[str] = []
    meets: list[str] = []
    square = 0
    adj = {}
    for lab, (i, mult) in comps.items():
        row = config.gram[i]
        if row[i] != -2:
            selfs.append(f"{lab} has self-intersection {row[i]}")
        against = sum(m * row[j] for j, m in comps.values())
        if against != 0:
            meets.append(f"{lab} meets the fiber: {against}")
        square += mult * against
        adj[lab] = {b for b, (j, _) in comps.items() if j != i and row[j]}
    failures = selfs + meets
    if square != 0:
        failures.append(f"fiber square: {square}")
    if not is_connected(adj):
        failures.append("support disconnected")
    return FiberReport(not failures, tuple(failures), adj, comps)


class FiberClass(NamedTuple):
    """A validated fiber's type.

    ``cycle`` lists the components of an I_n fiber in cyclic order: it
    starts at the least label and steps first to its smaller neighbor.
    It is empty for every other type.
    """

    fiber_type: KodairaType | None
    cycle: tuple[str, ...] = ()


def _affine_type(root: RootType) -> KodairaType:
    """The starred fiber type whose dual graph is the affine diagram of root."""
    if root.family == "D":
        return KodairaType("I*", root.rank - 4)
    return KodairaType({6: "IV*", 7: "III*", 8: "II*"}[root.rank])


def classify_kodaira(config: Configuration, fiber: FiberDivisor) -> FiberClass:
    """Validate a fiber and read its Kodaira type off the weighted dual graph.

    Raises if validation fails.  Returns fiber_type None when the
    weighted graph matches no type.
    """
    report = validate_fiber(config, fiber)
    if not report.passed:
        raise ValueError(f"not a fiber candidate: {'; '.join(report.failures)}")
    comps = report.components
    nodes = sorted(comps)
    if all(m == 1 for _, m in comps.values()):
        # component-meets-fiber zero forces weighted degree 2 at every
        # node here, so the connected support is a single cycle
        adj = report.neighbours
        cycle = [nodes[0], min(adj[nodes[0]])]
        while len(cycle) < len(nodes):
            prev, here = cycle[-2], cycle[-1]
            cycle.append(next(b for b in adj[here] if b != prev))
        return FiberClass(KodairaType("I", len(nodes)), tuple(cycle))

    # the multiplicities are a multiple of the affine diagram's null
    # vector; a component of multiplicity one makes them that vector,
    # and deleting it leaves the finite diagram
    ones = [a for a in nodes if comps[a][1] == 1]
    if ones:
        rest = [comps[a][0] for a in nodes if a != ones[0]]
        root = dynkin_classify([[-config.gram[i][j] for j in rest] for i in rest])
        if root is not None:
            return FiberClass(_affine_type(root))
    return FiberClass(None)


def shioda_tate_rank(rho: int, fiber_types: Sequence[KodairaType]) -> int:
    """Mordell-Weil rank from the Picard number and the reducible fibers.

    rho = 2 + sum over fibers of (component count - 1) + MW rank; the
    inputs must leave a nonnegative rank.
    """
    used = 2 + sum(component_count(kt) - 1 for kt in fiber_types)
    rank = rho - used
    if rank < 0:
        raise ValueError(
            f"fiber components use rank {used}, exceeding the Picard number {rho}"
        )
    return rank
