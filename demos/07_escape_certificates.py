"""
Escape certificates: why the translation group has no finite basis
==================================================================

The additive group generated by all shifts t^(-2n)*a is checked to be
a strictly increasing union of finitely generated subgroups: for each
k, the shift t^(-2k)*a escapes the span of the first k generators.
"""

import json

from autcert.fingen import certify_nonfg, membership, translation_str
from autcert.lattice import SpanBasis
from autcert.pipeline import Context, PipelineOptions, run_stage

# The generators of the k-th subgroup in the chain, here k = 3: the
# shifts t^(-2n), n = 0..2, which the pipeline reads off its one
# conjugation of the translation x -> x + a by the scaling x -> u*x.  A
# translation is the term dict of its Laurent coefficient c, and the
# report writes it (c)*a.
ctx = Context(PipelineOptions())
gens = ctx.shifts(3)
print("generators:", [translation_str(g) for g in gens])

# Membership of a term dict in their integer span is decided by an
# echelon basis that grows one generator at a time: the answer is the
# witness, generator index -> coefficient, or None for a non-member...
basis = SpanBasis(gens)
inside = membership(basis, {0: 3, -2: -2})
print("member:", inside is not None, "witness:", inside)

# ...and the next shift in the family is refused.  Its exponent is the
# one the certificate records for the stage of these three generators.
_, record = certify_nonfg(ctx.shifts(4))
escape = {-2 * int(record["stages"][-1]["escape_exponent"]): 1}
outside = membership(basis, escape)
print("escape:", translation_str(escape), "member:", outside is not None)

# The full certificate judges one escape per stage, each re-verified, and
# writes its record in the same loop; it takes max_k + 1 generators, here
# max_k = 5, and returns the first broken stage's text, None when all hold.
failure, record = certify_nonfg(ctx.shifts(6))
print("stages:", len(record["stages"]), "failure:", failure)
for k, stage in enumerate(record["stages"], start=1):
    escape = translation_str({-2 * int(stage["escape_exponent"]): 1})
    print(f"  k={k}: {escape} escapes span of {k}, joins span of {k + 1}")

# The record is what the nonfg stage writes for third-party checks, with
# exact string numbers: the generator exponents once, and per stage only
# the escape exponent, a bare refutation and a sparse next-span witness.
# A reader takes k from the stage's position and the support bound as the
# least of the first k exponents; whether every stage holds is the nonfg
# check's own status.
stage = run_stage("nonfg", PipelineOptions(max_gens=5))
blob = stage.evidence["certificate"]
print("check:", stage.evidence["checks"][0]["status"])
print("json generators:", json.dumps(blob["generators"]))
print("json stage 1:", json.dumps(blob["stages"][0], sort_keys=True))
