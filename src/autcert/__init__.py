"""Exact-arithmetic certificates for a surface automorphism construction.

The library verifies, step by step and without floating point, the
computable content of a construction of a projective surface whose
automorphism group is discrete but not finitely generated.  It is
organized in independent layers:

* :mod:`autcert.scalars` -- exact rationals, multivariate polynomials,
  the text of Laurent term dicts, rational square roots, fraction-free linear
  algebra over rationals and polynomials, and rational functions with
  a single-term denominator;
* :mod:`autcert.lattice` -- integer row reduction (Hermite form), span
  membership with witnesses, orthogonal complements, ADE recognition,
  and exact signatures;
* :mod:`autcert.surface` -- labeled curve configurations with exact
  intersection pairings, marked points whose coordinates are
  polynomials or the point at infinity, involution bookkeeping,
  free-quotient pushforward, and the ledger of the quotient blown up
  at Q32;
* :mod:`autcert.fibration` -- elliptic fiber validation and Kodaira
  classification from weighted dual graphs, Euler numbers, and the
  Shioda-Tate rank count;
* :mod:`autcert.mwl` -- Mordell-Weil heights from local correction
  terms, and section data read off a configuration;
* :mod:`autcert.cremona` -- the reciprocal Cremona involution in
  cleared form, quadric preservation certificates, ruling swaps at
  rational specializations, and conjugation of translations by
  scalings as affine maps on Laurent term dicts;
* :mod:`autcert.fingen` -- escape certificates showing an additive
  group of Laurent polynomials admits no finite generating set;
* :mod:`autcert.pipeline` -- the staged certificate runner; the
  command line interface is ``python -m autcert``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
