"""Machine-checkable certificates of non-finite-generation.

The group under study is abelian: translations z -> z + c*a where the
coefficient c ranges over Laurent polynomials in t.  Its elements are
integer combinations of any chosen generators, so subgroup membership
is an exact lattice problem over the union of the Laurent supports.
The certificate exhibits, for each k, the generator set
{t^0*a, t^-2*a, ..., t^(-2(k-1))*a} together with an element
t^(-2k)*a that escapes its span, checked two independent ways: a
degree bound (every combination keeps its support above the least
generator exponent) and a Hermite normal form membership refutation on
the cleared integer matrix.  The same element lies in the next span,
so the chain is strictly increasing, and a group exhausted by a
strictly increasing chain of proper subgroups is not finitely
generated.  The certificate stores the integer matrices and target
vectors so a third party can recheck the lattice computations alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .lattice import z_span_membership
from .scalars import LaurentT, laurent_degree_range


@dataclass(frozen=True)
class LaurentElement:
    """The translation z -> z + coeffs * a, identified by its coefficient."""

    coeffs: LaurentT

    def __post_init__(self):
        if not isinstance(self.coeffs, LaurentT):
            raise TypeError("coefficient must be a Laurent polynomial")

    @staticmethod
    def t_power(k: int, coeff=1) -> "LaurentElement":
        return LaurentElement(LaurentT.t_power(k, coeff))

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        return LaurentElement(self.coeffs + other.coeffs)

    def __mul__(self, k: int) -> "LaurentElement":
        if not isinstance(k, int):
            return NotImplemented
        return LaurentElement(self.coeffs * LaurentT.const(k))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.coeffs})*a"


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of one integer-span membership test with recheck data."""

    member: bool
    witness: tuple[int, ...] | None
    monomials: tuple[int, ...]
    generator_rows: tuple[tuple[int, ...], ...]
    target_vector: tuple[int, ...]
    denominator_lcm: int

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "witness": None if self.witness is None else [str(w) for w in self.witness],
            "monomials": [str(m) for m in self.monomials],
            "generator_rows": [[str(x) for x in row] for row in self.generator_rows],
            "target_vector": [str(x) for x in self.target_vector],
            "denominator_lcm": str(self.denominator_lcm),
        }


def membership(
    gens: Sequence[LaurentElement], target: LaurentElement
) -> MembershipResult:
    """Integer-span membership over the union of Laurent supports.

    Denominators are cleared by their least common multiple, the
    resulting integer lattice problem is solved in Hermite normal
    form, and a found witness is re-verified in Laurent arithmetic.
    """
    support: set[int] = set(target.coeffs.terms)
    for g in gens:
        support.update(g.coeffs.terms)
    monomials = tuple(sorted(support))
    denoms = [c.denominator for c in target.coeffs.terms.values()]
    for g in gens:
        denoms.extend(c.denominator for c in g.coeffs.terms.values())
    scale = lcm(*denoms) if denoms else 1

    def vector(elt: LaurentElement) -> tuple[int, ...]:
        out = []
        for m in monomials:
            c = elt.coeffs.terms.get(m, Fraction(0)) * scale
            assert c.denominator == 1
            out.append(int(c))
        return tuple(out)

    rows = tuple(vector(g) for g in gens)
    tvec = vector(target)
    witness = z_span_membership(list(rows), tvec) if rows else None
    if witness is None and not any(tvec):
        witness = (0,) * len(rows)
    if witness is not None:
        combo = LaurentT.zero()
        for w, g in zip(witness, gens):
            combo = combo + g.coeffs * LaurentT.const(w)
        if combo != target.coeffs:
            raise ArithmeticError("membership witness failed re-verification")
    return MembershipResult(
        witness is not None, witness, monomials, rows, tvec, scale
    )


def escape_exponent(gens: Sequence[LaurentElement]) -> int:
    """Least positive N with -2N below every exponent used by the generators."""
    if not gens:
        raise ValueError("no generators")
    if any(g.is_zero() for g in gens):
        raise ValueError("zero generator has no degree bound")
    mindeg = min(laurent_degree_range(g.coeffs)[0] for g in gens)
    n = 1
    while -2 * n >= mindeg:
        n += 1
    return n


def shift_generators(k: int) -> list[LaurentElement]:
    """The first k conjugated translations: coefficients t^0, t^-2, ..."""
    if k < 1:
        raise ValueError("need at least one generator")
    return [LaurentElement.t_power(-2 * n) for n in range(k)]


@dataclass(frozen=True)
class EscapeStage:
    k: int
    generators: tuple[str, ...]
    escape: str
    escape_exponent: int
    refutation: MembershipResult
    next_span: MembershipResult

    def to_json_dict(self) -> dict:
        return {
            "k": str(self.k),
            "generators": list(self.generators),
            "escape": self.escape,
            "escape_exponent": str(self.escape_exponent),
            "refutation": self.refutation.to_json_dict(),
            "next_span": self.next_span.to_json_dict(),
        }


DEGREE_ARGUMENT = (
    "every element of the subgroup generated by a finite set S is an "
    "integer combination of members of S, so its Laurent support lies "
    "inside the union of the supports of S; choosing N with -2N strictly "
    "below the least exponent appearing in S, the element t^(-2N)*a "
    "cannot lie in the span.  The staged checks below instantiate this "
    "for the nested generator sets; the argument itself applies to every "
    "finite subset of the group, which is what excludes finite generation."
)

CHAIN_FACT = (
    "a group that is the union of a strictly increasing chain of proper "
    "subgroups is not finitely generated: any finite generating set would "
    "lie in some stage of the chain (standard group theory)"
)


@dataclass(frozen=True)
class NonFGCertificate:
    max_k: int
    stages: tuple[EscapeStage, ...]
    degree_argument: str
    external_facts: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(
            (not stage.refutation.member) and stage.next_span.member
            for stage in self.stages
        )

    def to_json_dict(self) -> dict:
        return {
            "max_k": str(self.max_k),
            "passed": self.passed,
            "stages": [s.to_json_dict() for s in self.stages],
            "degree_argument": self.degree_argument,
            "external_facts": list(self.external_facts),
        }


def certify_nonfg(max_k: int = 5) -> NonFGCertificate:
    """Escape certificates for the nested translation subgroups k = 1..max_k.

    Each stage k records that t^(-2k)*a avoids the span of the first k
    generators (degree bound and lattice refutation agree) and lands in
    the span of the first k+1, so the chain strictly increases.
    """
    if max_k < 1:
        raise ValueError("need at least one stage")
    stages = []
    for k in range(1, max_k + 1):
        gens = shift_generators(k)
        n = escape_exponent(gens)
        if n != k:
            raise ArithmeticError(f"degree bound expected {k}, got {n}")
        escape = LaurentElement.t_power(-2 * n)
        refutation = membership(gens, escape)
        if refutation.member:
            raise ArithmeticError(
                f"stage {k}: escape element unexpectedly in the span"
            )
        next_span = membership(shift_generators(k + 1), escape)
        if not next_span.member:
            raise ArithmeticError(
                f"stage {k}: escape element missing from the next span"
            )
        stages.append(
            EscapeStage(
                k,
                tuple(str(g) for g in gens),
                str(escape),
                n,
                refutation,
                next_span,
            )
        )
    return NonFGCertificate(max_k, tuple(stages), DEGREE_ARGUMENT, (CHAIN_FACT,))
