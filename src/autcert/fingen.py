"""Machine-checkable certificates of non-finite-generation.

The group under study is abelian: translations z -> z + c*a where the
coefficient c ranges over Laurent polynomials in t.  A translation is
handled as its coefficient's term dict and written as ``(c)*a`` only
for the report.  Its elements are integer combinations of any
chosen generators, so subgroup membership is an exact lattice problem
over the union of the Laurent supports.  The certificate exhibits, for
each k, the generator set {t^0*a, t^-2*a, ..., t^(-2(k-1))*a} together
with an element t^(-2k)*a that escapes its span, checked two
independent ways: a degree bound (every combination keeps its support
above the least generator exponent) and a membership refutation in an
echelon basis of the span.  The same element lies in the next span, so
the chain is strictly increasing, and a group exhausted by a strictly
increasing chain of proper subgroups is not finitely generated.  One
``SpanBasis`` serves every stage: stage k refutes the escape against
the first k generators, inserts generator k, and confirms the escape;
the support bound is a running minimum over the inserted generators,
and ``membership`` re-verifies each witness it finds.  The caller
passes the generators: the pipeline reads the shifts t^(-2n), the term
dicts {-2n: 1}, off its one conjugation of a translation by a scaling,
so a wrong conjugate fails the chain here.  The escape t^(-2N) is
{-2N: 1}, held as N alone, and a reader writes it as
``translation_str({-2 * N: 1})``.  The certificate is its record,
written stage by stage in the loop that judges the chain: the
t-exponents of the generators once, and per stage only what a reader
cannot derive, the escape exponent, a bare refutation and a sparse
next-span witness, every number an exact string.  Stage k is the k-th
entry and its support bound is the least of the first k exponents, so
neither is written; whether every stage holds is the nonfg check's own
status, so the record does not repeat it.  The integer matrices are unit
vectors rebuilt from those exponents, so a third party can recheck every
stage from the stored numbers alone.
"""

from __future__ import annotations

from typing import Sequence

from .lattice import SpanBasis
from .scalars import _canonical, laurent_text


def translation_str(c: dict) -> str:
    """Report text of the translation z -> z + c*a, for c a term dict."""
    return f"({laurent_text(c)})*a"


def membership(basis: SpanBasis, target: dict) -> dict[int, int] | None:
    """Integer-span membership of a term dict in the span of the basis generators.

    Generators and target are Laurent terms, exponent -> ``int``
    coefficient (a ``Fraction`` only where it is not integral; another
    type raises ``TypeError``).  Returns the witness, generator index ->
    nonzero coefficient, or None off the span, as ``SpanBasis.solve``
    does; the empty target's witness is ``{}``, so test the result with
    ``is None``.  A found witness is re-verified by one sparse sum of
    w * generator over its terms, whose canonical form must equal the
    target: a target with a zero entry is never a member.
    """
    witness = basis.solve(target)
    if witness is None:
        return None
    combo: dict = {}
    for i, w in witness.items():
        for e, c in basis.generators[i].items():
            combo[e] = combo.get(e, 0) + w * c
    if _canonical(combo) != target:
        raise ArithmeticError("membership witness failed re-verification")
    return witness


def _membership_record(w: dict[int, int] | None) -> dict:
    """The report record of a membership witness or None, a new dict on every
    call: it carries a ``witness`` exactly when it is a member."""
    if w is None:
        return {"member": False}
    return {"member": True, "witness": {str(i): str(c) for i, c in w.items()}}


def _support(g: dict) -> int:
    """Least exponent of a term dict, the bound every combination stays at or above."""
    if not g:
        raise ValueError("zero generator has no degree bound")
    return min(g)


def _escape_below(bound: int) -> int:
    """Least positive N with -2N strictly below bound."""
    return max(1, -bound // 2 + 1)


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


def _stage_failure(k: int, n: int, refutation, next_span) -> str | None:
    """How stage k breaks, or None when it holds: its escape t^(-2n) must be
    t^(-2k), off the span of the first k shifts (``refutation`` None) and in
    that of the first k+1 (``next_span`` a witness)."""
    if n == k and refutation is None and next_span is not None:
        return None
    escape = translation_str({-2 * n: 1})
    if n != k:
        return f"stage {k}: escape {escape}; expected {translation_str({-2 * k: 1})}"
    if refutation is not None:
        return f"stage {k}: {escape} lies in the span of the first {k} shifts"
    return f"stage {k}: {escape} misses the span of the first {k + 1} shifts"


def certify_nonfg(shifts: Sequence[dict]) -> tuple[str | None, dict]:
    """Escape certificates for the nested translation subgroups k = 1..max_k.

    ``shifts`` holds the max_k + 1 generators, the term dicts of the
    shifts for n = 0..max_k.  Stage k tests whether t^(-2N)*a, N the
    least with -2N below the support bound, avoids the span of the first
    k generators and lands in the span of the first k+1, and writes its
    record in the same step.  Returns the first broken stage's text, or
    None when every stage holds, as the shifts t^(-2n) do, and the
    report's record: every number an exact string, ``member`` booleans,
    and per stage only the escape exponent and its two membership records.
    """
    max_k = len(shifts) - 1
    if max_k < 1:
        raise ValueError("need at least one stage")
    exponents = tuple(_support(g) for g in shifts)
    basis = SpanBasis([shifts[0]])
    bound = exponents[0]
    stages = []
    failure = None
    for k in range(1, max_k + 1):
        n = _escape_below(bound)
        escape = {-2 * n: 1}
        refutation = membership(basis, escape)
        basis.insert(shifts[k])
        next_span = membership(basis, escape)
        failure = failure or _stage_failure(k, n, refutation, next_span)
        stages.append(
            {
                "escape_exponent": str(n),
                "refutation": _membership_record(refutation),
                "next_span": _membership_record(next_span),
            }
        )
        bound = min(bound, exponents[k])
    return failure, {
        "max_k": str(max_k),
        "generators": [str(e) for e in exponents],
        "stages": stages,
        "degree_argument": DEGREE_ARGUMENT,
        "external_facts": [CHAIN_FACT],
        "format": "5",
    }
