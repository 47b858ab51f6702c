"""Mordell-Weil heights from combinatorial section data.

The canonical height of a section of a genus-one fibration is
computed from exact integer inputs: the Euler characteristic chi,
the intersection of each section with the zero section, and the fiber
component each section meets, encoded per fiber.  Local correction
terms are looked up in the classical contribution tables; only the
fiber types that actually occur here (I_n and IV*) carry a table, and
anything else raises ValueError rather than guessing.  A section meets
a fiber in an element of its component group: Z/n for I_n, Z/3 for
IV*, with 0 the identity component.

Also here: arithmetic on the cyclic component groups of I_n fibers,
and extraction of section data from a curve configuration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .fibration import KodairaType
from .scalars import Frozen
from .surface import Configuration


class ModInt(Frozen):
    """An element of Z/n, used for fiber component groups."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        if not isinstance(modulus, int) or modulus < 1:
            raise ValueError(f"bad modulus {modulus!r}")
        self._set(value % modulus, modulus)

    def _check(self, other: "ModInt"):
        if self.modulus != other.modulus:
            raise ValueError(
                f"mixed moduli {self.modulus} and {other.modulus}"
            )

    def __add__(self, other: "ModInt") -> "ModInt":
        self._check(other)
        return ModInt(self.value + other.value, self.modulus)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


def contribution(kt: KodairaType, comp: ModInt) -> Fraction:
    """Local height correction of one section at one fiber."""
    if kt.symbol == "I":
        n = kt.index
    elif kt.symbol == "IV*":
        n = 3
    else:
        raise ValueError(f"no contribution table for fiber type {kt}")
    if not isinstance(comp, ModInt):
        raise ValueError(f"fiber components are ModInt, got {comp!r}")
    if comp.modulus != n:
        raise ValueError(f"component group of {kt} is Z/{n}, got modulus {comp.modulus}")
    if kt.symbol == "I":
        return Fraction(comp.value * (n - comp.value), n)
    return Fraction(4, 3) if comp.value else Fraction(0)


class SectionData(Frozen):
    """One section: its name, (P.O), and met component per fiber."""

    __slots__ = ("name", "dot_zero", "components")

    def __init__(self, name: str, dot_zero: int, components: Mapping[str, ModInt]):
        if not isinstance(dot_zero, int) or dot_zero < 0:
            raise ValueError(f"bad intersection number {dot_zero!r}")
        self._set(name, dot_zero, dict(components))


def height(chi: int, fibers: Sequence[tuple[str, KodairaType]], P: SectionData) -> Fraction:
    """Canonical height by Shioda's formula, 2 chi + 2 (P.O) - sum of contr_v(P).

    ``fibers`` lists each reducible fiber as (id, type), and the section
    must list its component for exactly those fibers, each once.
    """
    have, want = sorted(P.components), sorted(fid for fid, _ in fibers)
    if have != want:
        raise ValueError(
            f"section {P.name} lists components for {have}, the fibers given are {want}"
        )
    total = Fraction(2 * chi + 2 * P.dot_zero)
    for fid, kt in fibers:
        total -= contribution(kt, P.components[fid])
    return total


# -- section data from a configuration ----------------------------------------------


def section_from_config(
    config: Configuration,
    cycles: Sequence[tuple[str, Sequence[str]]],
    section: str,
    zero: str,
) -> SectionData:
    """Read (P.O) and the per-fiber component indices off the Gram table.

    Only I_n fibers are supported: each is given by its id and its
    component cycle, as ``fibration.FiberClass.cycle`` orients it, and
    the index is the cyclic distance from the zero section's component
    to the section's.  The section must meet exactly one component,
    once, and must not itself be a fiber component.
    """
    components: dict[str, ModInt] = {}
    for fid, cycle in cycles:
        positions = {}
        for who in (section, zero):
            i = config.index(who)
            if config.labels[i] in cycle:
                raise ValueError(f"{who} is a component of fiber {fid}")
            row = config.gram[i]
            met = [(k, row[j]) for k, j in enumerate(map(config.index, cycle)) if row[j]]
            if len(met) != 1 or met[0][1] != 1:
                raise ValueError(
                    f"{who} meets fiber {fid} in {met}, expected one simple point"
                )
            positions[who] = met[0][0]
        n = len(cycle)
        components[fid] = ModInt(positions[section] - positions[zero], n)
    return SectionData(
        section, config.gram[config.index(section)][config.index(zero)], components
    )
