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
stage = certify_nonfg(ctx.shifts(4)).stages[-1]
escape = {-2 * stage.escape_exponent: 1}
outside = membership(basis, escape)
print("escape:", translation_str(escape), "member:", outside is not None)

# The full certificate packages one escape per stage, each re-verified;
# it takes max_k + 1 generators, here max_k = 5.
cert = certify_nonfg(ctx.shifts(6))
print("stages:", len(cert.stages), "failure:", cert.failure)
for stage in cert.stages:
    escape = translation_str({-2 * stage.escape_exponent: 1})
    print(f"  k={stage.k}: {escape} escapes span of {stage.k}, joins span of {stage.k + 1}")

# The nonfg stage writes the certificate with exact string numbers for
# third-party checks: the generator exponents once, and per stage only the
# escape exponent, a bare refutation and a sparse next-span witness.  A
# reader takes k from the stage's position and the support bound as the
# least of the first k exponents.
blob = run_stage("nonfg", PipelineOptions(max_gens=5)).evidence["certificate"]
print("json generators:", json.dumps(blob["generators"]))
print("json stage 1:", json.dumps(blob["stages"][0], sort_keys=True))
