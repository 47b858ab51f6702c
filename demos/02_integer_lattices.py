"""
Integer lattices: Hermite form, membership witnesses, root lattices
===================================================================

An echelon basis grown one row at a time decides membership in integer
spans and hands back a witness that can be rechecked by plain matrix
arithmetic; the Hermite normal form gives the canonical rows.
"""

from autcert.lattice import (
    E6_IN_E8_NODES,
    cartan_E,
    dynkin_classify,
    gauss_reduce_rank2,
    hnf,
    orth_complement,
    signature,
    z_span_membership,
)

# Hermite normal form of a small integer matrix, with transform record.
rows = [[4, 2, 0], [2, 8, 2], [0, 2, 4]]
h, u = hnf(rows)
print("HNF rows:")
for r in h:
    print("   ", r)

# Membership in the row span comes with an explicit witness...
witness = z_span_membership(rows, [6, 10, 2])
print("witness for [6, 10, 2]:", witness)

# ...and near-misses are refused outright.
print("witness for [1, 0, 0]:", z_span_membership(rows, [1, 0, 0]))

# The orthogonal complement of E6 inside E8 is a rank-2 lattice.
basis, induced = orth_complement(cartan_E(8), E6_IN_E8_NODES)
print("complement Gram:", induced)

# Gauss reduction normalizes it to the A2 Cartan matrix.
reduced = gauss_reduce_rank2(induced)
print("reduced:", reduced, "->", dynkin_classify(reduced))

# Signatures are computed exactly from leading principal minors.
print("E8 signature:", signature(cartan_E(8)))
