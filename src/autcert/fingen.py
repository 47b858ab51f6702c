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
the support bound is a running minimum over the inserted generators.
``membership`` returns each found witness, re-verified on its own, or
None: the terms of the stored generators, not of the echelon rows that
found it, are summed with the witness coefficients into one sparse
dict, whose canonical form must equal the target's term dict.  The
caller passes the generators: the pipeline reads the shifts t^(-2n),
the term dicts {-2n: 1}, off its one conjugation of a translation by a
scaling, so a wrong conjugate fails the chain here.  The escape t^(-2N)
is {-2N: 1}, held as N alone, and a reader writes it as
``translation_str({-2 * N: 1})``.  The record stores the t-exponents
of the generators once, whether every stage holds, judged here alone,
and per stage only what a reader cannot derive: the escape exponent,
its refutation and a sparse next-span witness.  Stage k is the k-th
entry and its support bound is the least of the first k exponents, so
neither is written.  The integer matrices are unit vectors rebuilt
from those exponents, so a third party can recheck every stage from
the stored numbers alone.  Its records hold plain integers and
strings, and ``NonFGCertificate.to_record`` gives the report's record
directly, with every number an exact string.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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


class EscapeStage(NamedTuple):
    """Stage k: the escape t^(-2N)*a, held as ``escape_exponent`` N, against
    the first k generators.

    ``support_bound`` is the least exponent among those generators, the
    number the degree argument compares -2N against.  ``refutation`` and
    ``next_span`` are ``membership``'s witness dicts, or None.  The record
    writes neither ``k`` nor ``support_bound``: a reader derives both from
    the stage's position and the certificate's generators.
    """

    k: int
    support_bound: int
    escape_exponent: int
    refutation: dict[int, int] | None
    next_span: dict[int, int] | None


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


class NonFGCertificate(NamedTuple):
    """The escape stages; ``generators`` holds the t-exponents of the shifts.

    Stage k uses the first k generators and its next span the first k+1,
    so the max_k + 1 exponents are stored once, for every stage, and
    stage k is the k-th entry of ``stages``.  ``failure`` is the first
    broken stage's text, None when every stage holds.
    """

    max_k: int
    failure: str | None
    generators: tuple[int, ...]
    stages: tuple[EscapeStage, ...]
    degree_argument: str
    external_facts: tuple[str, ...]
    format: str = "4"

    def to_record(self) -> dict:
        """The report record: every number an exact string, ``passed`` and
        ``member`` booleans, and per stage only the escape exponent and its
        two membership records."""
        return {
            "max_k": str(self.max_k),
            "passed": self.failure is None,
            "generators": [str(e) for e in self.generators],
            "stages": [
                {
                    "escape_exponent": str(st.escape_exponent),
                    "refutation": _membership_record(st.refutation),
                    "next_span": _membership_record(st.next_span),
                }
                for st in self.stages
            ],
            "degree_argument": self.degree_argument,
            "external_facts": list(self.external_facts),
            "format": self.format,
        }


def _stage_failure(stage: EscapeStage) -> str | None:
    """How an escape stage breaks, or None when it holds: its escape is
    t^(-2k), off the span of the first k shifts and in that of the first k+1."""
    k, _, n, refutation, next_span = stage
    if n == k and refutation is None and next_span is not None:
        return None
    escape = translation_str({-2 * n: 1})
    if n != k:
        return f"stage {k}: escape {escape}; expected {translation_str({-2 * k: 1})}"
    if refutation is not None:
        return f"stage {k}: {escape} lies in the span of the first {k} shifts"
    return f"stage {k}: {escape} misses the span of the first {k + 1} shifts"


def certify_nonfg(shifts: Sequence[dict]) -> NonFGCertificate:
    """Escape certificates for the nested translation subgroups k = 1..max_k.

    ``shifts`` holds the max_k + 1 generators, the term dicts of the
    shifts for n = 0..max_k.  Each stage k records whether t^(-2k)*a
    avoids the span of the first k generators (degree bound and lattice
    refutation agree) and lands in the span of the first k+1, so the
    chain strictly increases; the certificate's ``failure`` names the
    first stage that does not, and the shifts t^(-2n) leave it None.
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
        stages.append(EscapeStage(k, bound, n, refutation, next_span))
        failure = failure or _stage_failure(stages[-1])
        bound = min(bound, exponents[k])
    return NonFGCertificate(
        max_k, failure, exponents, tuple(stages), DEGREE_ARGUMENT, (CHAIN_FACT,)
    )
