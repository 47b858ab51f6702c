"""Machine-checkable certificates of non-finite-generation.

The group under study is abelian: translations z -> z + c*a where the
coefficient c ranges over Laurent polynomials in t.  A translation is
handled as its coefficient, a ``LaurentT``, and written as ``(c)*a``
only for the report.  Its elements are integer combinations of any chosen generators, so subgroup membership
is an exact lattice problem over the union of the Laurent supports.
The certificate exhibits, for each k, the generator set
{t^0*a, t^-2*a, ..., t^(-2(k-1))*a} together with an element
t^(-2k)*a that escapes its span, checked two independent ways: a
degree bound (every combination keeps its support above the least
generator exponent) and a Hermite normal form membership refutation on
the cleared integer matrix.  The same element lies in the next span,
so the chain is strictly increasing, and a group exhausted by a
strictly increasing chain of proper subgroups is not finitely
generated.  The certificate stores each fact once: the t-exponents of
the generators, and per stage the support bound, the escape exponent
and a sparse next-span witness.  The integer matrices are unit vectors
rebuilt from those exponents, so a third party can recheck every stage
from the stored numbers alone.  Its records hold plain integers and
strings; the pipeline writes them out as exact strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .lattice import z_span_membership
from .scalars import LaurentT


def translation_str(c: LaurentT) -> str:
    """Report text of the translation z -> z + c*a."""
    return f"({c})*a"


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of one integer-span membership test.

    ``witness`` maps a generator index to its nonzero coefficient in a
    combination equal to the target; it is None when the target is not
    in the span.
    """

    member: bool
    witness: dict[int, int] | None


def membership(gens: Sequence[LaurentT], target: LaurentT) -> MembershipResult:
    """Integer-span membership over the union of Laurent supports.

    Denominators are cleared by their least common multiple, the
    resulting integer lattice problem is solved in Hermite normal
    form, and a found witness is re-verified in Laurent arithmetic.
    """
    if target.is_zero():
        return MembershipResult(True, {})
    polys = (target, *gens)
    monomials = sorted({m for p in polys for m in p.terms})
    column = {m: i for i, m in enumerate(monomials)}
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))

    def vector(p: LaurentT) -> list[int]:
        out = [0] * len(monomials)
        for m, c in p.terms.items():
            out[column[m]] = c.numerator * (scale // c.denominator)
        return out

    dense = z_span_membership([vector(g) for g in gens], vector(target))
    if dense is None:
        return MembershipResult(False, None)
    witness = {i: w for i, w in enumerate(dense) if w}
    combo = LaurentT.zero()
    for i, w in witness.items():
        combo = combo + gens[i] * w
    if combo != target:
        raise ArithmeticError("membership witness failed re-verification")
    return MembershipResult(True, witness)


def escape_exponent(gens: Sequence[LaurentT]) -> int:
    """Least positive N with -2N below every exponent used by the generators."""
    if not gens:
        raise ValueError("no generators")
    if any(g.is_zero() for g in gens):
        raise ValueError("zero generator has no degree bound")
    mindeg = min(min(g.terms) for g in gens)
    n = 1
    while -2 * n >= mindeg:
        n += 1
    return n


def shift_generators(k: int) -> list[LaurentT]:
    """The first k conjugated translations: coefficients t^0, t^-2, ..."""
    if k < 1:
        raise ValueError("need at least one generator")
    return [LaurentT.t_power(-2 * n) for n in range(k)]


@dataclass(frozen=True)
class EscapeStage:
    """Stage k: the escape t^(-2N)*a against the first k generators.

    ``support_bound`` is the least exponent among those generators, the
    number the degree argument compares -2N against.
    """

    k: int
    support_bound: int
    escape: str
    escape_exponent: int
    refutation: MembershipResult
    next_span: MembershipResult


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
    """The escape stages; ``generators`` holds the t-exponents of the shifts.

    Stage k uses the first k generators and its next span the first k+1,
    so the max_k + 1 exponents are stored once, for every stage.
    """

    max_k: int
    passed: bool
    generators: tuple[int, ...]
    stages: tuple[EscapeStage, ...]
    degree_argument: str
    external_facts: tuple[str, ...]
    format: str = "2"


def certify_nonfg(max_k: int = 5) -> NonFGCertificate:
    """Escape certificates for the nested translation subgroups k = 1..max_k.

    Each stage k records whether t^(-2k)*a avoids the span of the first
    k generators (degree bound and lattice refutation agree) and lands
    in the span of the first k+1, so the chain strictly increases; the
    certificate passes when every stage does.
    """
    if max_k < 1:
        raise ValueError("need at least one stage")
    shifts = shift_generators(max_k + 1)
    exponents = tuple(min(g.terms) for g in shifts)
    stages = []
    passed = True
    for k in range(1, max_k + 1):
        gens = shifts[:k]
        n = escape_exponent(gens)
        escape = LaurentT.t_power(-2 * n)
        refutation = membership(gens, escape)
        next_span = membership(shifts[: k + 1], escape)
        passed = passed and n == k and not refutation.member and next_span.member
        stages.append(
            EscapeStage(
                k,
                min(exponents[:k]),
                translation_str(escape),
                n,
                refutation,
                next_span,
            )
        )
    return NonFGCertificate(
        max_k, passed, exponents, tuple(stages), DEGREE_ARGUMENT, (CHAIN_FACT,)
    )
