"""Hermite forms, integer kernels, signatures, and Dynkin recognition.

The root-lattice machinery is checked against a reflection-closure
oracle: root systems are regenerated from scratch by closing the
simple roots under the reflections the Cartan matrix defines, and the
frozen root counts (240 for E8, 72 for E6) pin the construction down.
"""

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
import hypothesis.strategies as st

from autcert import lattice
from autcert.lattice import (
    E6_IN_E8_NODES,
    Gram,
    RootType,
    SpanBasis,
    adjacency_from_gram,
    cartan_E,
    dynkin_classify,
    gauss_reduce_rank2,
    gram_rank,
    hnf,
    integer_kernel,
    is_connected,
    orth_complement,
    pairing,
    signature,
    z_span_membership,
)
from autcert.scalars import matrix_rank_det
from autcert.surface import build_double_kummer

from conftest import cartan_A, cartan_D, int_matrix, reflection_closure


def matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


@st.composite
def unimodular(draw, n):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        kind = draw(st.sampled_from(["add", "swap", "neg"]))
        if kind == "add" and i != j:
            k = draw(st.integers(min_value=-2, max_value=2))
            U[i] = [a + k * b for a, b in zip(U[i], U[j])]
        elif kind == "swap":
            U[i], U[j] = U[j], U[i]
        elif kind == "neg":
            U[i] = [-a for a in U[i]]
    return U


def assert_hnf_shape(H):
    seen_zero = False
    last_pivot = -1
    nonzero = []
    for row in H:
        nz = [j for j, v in enumerate(row) if v]
        if not nz:
            seen_zero = True
            continue
        assert not seen_zero, "zero row above a nonzero row"
        p = nz[0]
        assert p > last_pivot, "pivots do not move right"
        assert row[p] > 0, "pivot not positive"
        last_pivot = p
        nonzero.append((p, row))
    for k, (p, row) in enumerate(nonzero):
        for i in range(k):
            assert 0 <= nonzero[i][1][p] < row[p], "entry above pivot not reduced"


# -- Hermite form -------------------------------------------------------------


def test_hnf_frozen_examples():
    H, U = hnf([[2, 4], [1, 3]])
    assert H == ((1, 1), (0, 2))
    assert matmul(U, [[2, 4], [1, 3]]) == [list(r) for r in H]
    H, U = hnf([[6], [4]])
    assert H == ((2,), (0,))
    H, _ = hnf([[0, 0], [0, 0]])
    assert H == ((0, 0), (0, 0))


@given(int_matrix(3, 4))
def test_hnf_reconstructs_and_is_unimodular(rows):
    H, U = hnf(rows)
    assert matmul(U, rows) == [list(r) for r in H]
    _, det = matrix_rank_det(U)
    assert det in (1, -1)
    assert_hnf_shape(H)


@given(int_matrix(3, 3))
def test_hnf_is_idempotent(rows):
    H, _ = hnf(rows)
    H2, _ = hnf(H)
    assert H2 == H


@given(int_matrix(3, 3), unimodular(3))
def test_hnf_depends_only_on_row_span(rows, U):
    # left-multiplying by a unimodular matrix preserves the row span
    H1, _ = hnf(rows)
    H2, _ = hnf(matmul(U, rows))
    assert H1 == H2


# -- membership ---------------------------------------------------------------


def test_membership_frozen_examples():
    gens = [(2, 0), (0, 3)]
    assert z_span_membership(gens, (4, 3)) == (2, 1)
    assert z_span_membership(gens, (1, 0)) is None
    assert z_span_membership(gens, (3, 0)) is None
    assert z_span_membership([(1, 2, 3)], (2, 4, 6)) == (2,)
    assert z_span_membership([(1, 2, 3)], (1, 2, 4)) is None
    assert z_span_membership([], (0, 0)) == ()
    assert z_span_membership([], (1, 0)) is None


@given(int_matrix(3, 4), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
def test_membership_finds_known_combinations(gens, coeffs):
    target = [sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(4)]
    witness = z_span_membership(gens, target)
    assert witness is not None
    rebuilt = [sum(w * g[j] for w, g in zip(witness, gens)) for j in range(4)]
    assert rebuilt == target


@given(int_matrix(2, 3), int_matrix(2, 3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_membership_is_monotone_in_generators(gens, extra, target):
    inside = z_span_membership(gens, target)
    if inside is None:
        return
    wider = z_span_membership(gens + extra, target)
    assert wider is not None


@pytest.mark.parametrize("bad", [True, Fraction(1), 1.0], ids=repr)
def test_entries_must_be_plain_integers(bad):
    with pytest.raises(TypeError):
        hnf([[1, 0], [0, bad]])
    with pytest.raises(TypeError):
        z_span_membership([(1, 0), (0, bad)], (1, 0))
    with pytest.raises(TypeError):
        z_span_membership([(1, 0), (0, 1)], (bad, 0))
    with pytest.raises(TypeError):
        gram_rank([[2, bad], [bad, 2]])


def test_matrix_shapes_are_checked():
    with pytest.raises(ValueError):
        hnf([[1, 0], [0]])
    with pytest.raises(ValueError):
        z_span_membership([(1, 0), (0,)], (1, 0))
    with pytest.raises(ValueError):
        z_span_membership([(1, 0), (0, 1)], (1, 0, 0))


def test_membership_witness_is_reverified(monkeypatch):
    real_solve = lattice.SpanBasis.solve

    def swapped_witness(self, target):
        w = real_solve(self, target)
        return {1 - i: c for i, c in w.items()}

    monkeypatch.setattr(lattice.SpanBasis, "solve", swapped_witness)
    with pytest.raises(ArithmeticError):
        z_span_membership([(2, 0), (0, 3)], (4, 3))


def test_span_basis_takes_an_extended_gcd_step():
    # neither pivot entry divides the other: the pivot at key 0 becomes gcd(4, 6)
    basis = SpanBasis([{0: 4, 1: 1}, {0: 6}])
    assert sorted(basis.rows) == [0, 1]
    assert basis.rows[0][0][0] == 2
    for row, combo in basis.rows.values():
        rebuilt = {}
        for i, c in combo.items():
            for k, x in basis.generators[i].items():
                rebuilt[k] = rebuilt.get(k, 0) + c * x
        assert {k: x for k, x in rebuilt.items() if x} == row
    assert basis.solve({0: 2, 1: -1}) == {0: -1, 1: 1}
    assert basis.solve({0: 2}) is None
    assert basis.solve({}) == {}


def test_span_basis_keys_need_not_be_dense():
    basis = SpanBasis([{-4: 1, 7: 2}])
    assert basis.solve({-4: 3, 7: 6}) == {0: 3}
    assert basis.solve({7: 2}) is None
    basis.insert({7: 1})
    assert basis.solve({7: 2}) == {1: 2}
    basis.insert({})
    assert len(basis.generators) == 3 and len(basis.rows) == 2


def test_span_basis_fraction_entries_need_no_common_denominator():
    basis = SpanBasis([{0: Fraction(1, 2)}, {0: Fraction(1, 3), 1: 1}, {1: 1}])
    witness = basis.solve({0: Fraction(1, 6)})
    assert witness is not None
    total = sum(c * basis.generators[i].get(0, 0) for i, c in witness.items())
    assert total == Fraction(1, 6)
    assert sum(c * basis.generators[i].get(1, 0) for i, c in witness.items()) == 0
    assert basis.solve({0: Fraction(1, 12)}) is None
    assert all(type(c) is int for c in witness.values())


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=repr)
def test_span_basis_entries_are_int_or_fraction(bad):
    with pytest.raises(TypeError):
        SpanBasis([{0: bad}])
    with pytest.raises(TypeError):
        SpanBasis([{0: 1}]).solve({0: bad})


# -- kernels and complements ----------------------------------------------------


def test_kernel_frozen_examples():
    basis = integer_kernel([[1, 1, 1]])
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0
    # saturation: the kernel of [[2, 2]] is generated by a primitive vector
    basis = integer_kernel([[2, 2]])
    assert len(basis) == 1
    assert basis[0] in ((1, -1), (-1, 1))


@given(int_matrix(2, 4))
def test_kernel_annihilates_and_has_full_rank(rows):
    basis = integer_kernel(rows)
    rank, _ = matrix_rank_det([[Fraction(v) for v in row] for row in rows])
    assert len(basis) == 4 - rank
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_orth_complement_examples():
    G = cartan_A(2)
    basis, induced = orth_complement(G, [0])
    assert len(basis) == 1
    v = basis[0]
    assert pairing(G, G[0], v) == 0 or pairing(G, (1, 0), v) == 0
    assert induced[0][0] == 6  # vector (1, 2): 2*1 - 2*2 + 2*4 = 6
    with pytest.raises(ValueError):
        orth_complement(G, [5])
    with pytest.raises(ValueError):
        orth_complement(G, [-1])


def test_orth_complement_of_nothing_is_the_whole_lattice():
    G = cartan_D(4)
    basis, induced = orth_complement(G, [])
    assert basis == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert induced == G


# -- signatures -----------------------------------------------------------------


def test_signature_frozen_examples():
    assert signature([[1, 0, 0], [0, -1, 0], [0, 0, 0]]) == (1, 1, 1)
    assert signature(cartan_A(2)) == (2, 0, 0)
    assert signature(cartan_E(8)) == (8, 0, 0)
    assert signature([[-x for x in row] for row in cartan_E(8)]) == (0, 8, 0)
    # hyperbolic plane: zero diagonal forces the off-diagonal mixing step
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    affine_a2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert signature(affine_a2) == (2, 0, 1)


@given(int_matrix(4, 4))
def test_signature_counts_match_rank(rows):
    G = [[rows[i][j] + rows[j][i] for j in range(4)] for i in range(4)]
    pos, neg, zero = signature(G)
    assert pos + neg == gram_rank(G)
    assert pos + neg + zero == 4


@given(int_matrix(3, 3), unimodular(3))
def test_signature_is_congruence_invariant(rows, U):
    G = [[rows[i][j] + rows[j][i] for j in range(3)] for i in range(3)]
    Ut = [[U[j][i] for j in range(3)] for i in range(3)]
    assert signature(matmul(matmul(U, G), Ut)) == signature(G)


@st.composite
def sparse_symmetric(draw):
    """Symmetric integer matrices up to 7 x 7, half their entries 0, the
    diagonal all 0 one time in three."""
    n = draw(st.integers(min_value=0, max_value=7))
    zero_diagonal = draw(st.integers(min_value=0, max_value=2)) == 0
    entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                G[i][j] = G[j][i] = draw(entry)
    return G


@seed(20190427)
@settings(max_examples=200, deadline=None, database=None)
@given(sparse_symmetric())
def test_leading_block_inertia_comes_from_the_one_congruence(G):
    whole = signature(G)
    for m in range(len(G) + 1):
        block = [row[:m] for row in G[:m]]
        assert signature(G, leading=m) == (signature(block), whole), m


def test_leading_block_fixed_cases():
    # a zero-diagonal block: e_0 + e_1 is taken inside it, though row 2
    # outside has a pivot to offer
    G = [[0, 1, 0], [1, 0, 2], [0, 2, 5]]
    assert signature(G, leading=2) == ((1, 1, 0), (2, 1, 0))
    # row 0 meets only row 2, outside the block: the block keeps e_0 as a
    # null vector, and only the whole matrix pairs it with e_2
    G = [[0, 0, 1], [0, -2, 0], [1, 0, 0]]
    assert signature(G, leading=2) == ((0, 1, 1), (1, 2, 0))
    assert signature(G, leading=1) == ((0, 0, 1), (1, 2, 0))
    assert signature([[0, 0], [0, 0]], leading=1) == ((0, 0, 1), (0, 0, 2))
    for m in (-1, 4):
        with pytest.raises(ValueError, match="leading block"):
            signature(G, leading=m)


@pytest.mark.parametrize(
    "raw, error",
    [
        ([[2, Fraction(1)], [Fraction(1), 2]], TypeError),
        ([[2, True], [True, 2]], TypeError),
        ([[2.0, 1], [1, 2]], TypeError),
        ([[2, -1], [-1]], ValueError),
        ([[2, -1, 0], [-1, 2, 0]], ValueError),
        ([[2, -1], [0, 2]], ValueError),
    ],
    ids=["fraction", "bool", "float", "ragged", "not-square", "asymmetric"],
)
def test_every_gram_reader_checks_a_raw_gram(raw, error):
    readers = [
        signature,
        lambda g: signature(g, leading=1),
        dynkin_classify,
        lambda g: orth_complement(g, [0]),
        gram_rank,
        Gram,
    ]
    for read in readers:
        with pytest.raises(error):
            read(raw)


def test_a_checked_gram_is_taken_as_it_is_and_stays_as_checked():
    G = Gram(cartan_E(8))
    assert Gram(G) is G
    # a configuration's Gram was checked when it was built
    kummer = build_double_kummer().gram
    assert type(kummer) is Gram and Gram(kummer) is kummer
    assert G == cartan_E(8) and hash(G) == hash(cartan_E(8))
    with pytest.raises(TypeError):
        G[0] = G[1]
    with pytest.raises(AttributeError):
        G.extra = None
    # only the constructor makes a Gram: a subclass that skips the check
    # is checked again, as raw input is
    class Unchecked(Gram):
        def __new__(cls, rows):
            return tuple.__new__(cls, rows)

    with pytest.raises(ValueError, match="not symmetric"):
        signature(Unchecked([(0, 1), (2, 0)]))


# -- binary reduction ------------------------------------------------------------


def test_gauss_reduce_frozen_examples():
    a2 = ((2, -1), (-1, 2))
    assert gauss_reduce_rank2(a2) == a2
    assert gauss_reduce_rank2([[2, 1], [1, 2]]) == a2
    assert gauss_reduce_rank2([[6, 3], [3, 2]]) == a2
    assert gauss_reduce_rank2([[1, 0], [0, 1]]) == ((1, 0), (0, 1))
    assert gauss_reduce_rank2([[2, 0], [0, 3]]) == ((2, 0), (0, 3))
    with pytest.raises(ValueError):
        gauss_reduce_rank2([[1, 2], [2, 1]])
    # negative definite: positive determinant, but a <= 0
    with pytest.raises(ValueError, match="not positive definite"):
        gauss_reduce_rank2([[-1, 0], [0, -1]])
    with pytest.raises(ValueError, match="2x2"):
        gauss_reduce_rank2(cartan_A(3))


@given(unimodular(2))
def test_gauss_reduce_is_an_isometry_invariant(U):
    a2 = [[2, -1], [-1, 2]]
    Ut = [[U[j][i] for j in range(2)] for i in range(2)]
    moved = matmul(matmul(U, a2), Ut)
    assert gauss_reduce_rank2(moved) == ((2, -1), (-1, 2))


# -- Dynkin recognition ------------------------------------------------------------


def test_cartan_builders_are_recognized():
    assert dynkin_classify(spider((1, 2, 4))) == RootType("E", 8)
    cases = [
        (cartan_A(1), RootType("A", 1)),
        (cartan_A(5), RootType("A", 5)),
        (cartan_D(4), RootType("D", 4)),
        (cartan_D(6), RootType("D", 6)),
        (cartan_E(6), RootType("E", 6)),
        (cartan_E(7), RootType("E", 7)),
        (cartan_E(8), RootType("E", 8)),
    ]
    for gram, expected in cases:
        assert dynkin_classify(gram) == expected


def test_dynkin_rejects_non_cartan_input():
    assert dynkin_classify([[2, -2], [-2, 2]]) is None  # off-diagonal too small
    assert dynkin_classify([[1, 0], [0, 1]]) is None  # diagonal not 2
    # affine triangle is connected but not a finite type
    assert dynkin_classify([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]) is None
    # disconnected A1 + A1
    assert dynkin_classify([[2, 0], [0, 2]]) is None
    assert dynkin_classify([]) is None
    # trees past the finite types: affine D5 has two branch nodes, a
    # star has a node of degree 4, and affine E6, E7 and E8 have arms
    # (2, 2, 2), (1, 3, 3) and (1, 2, 5)
    for arms in ((1, 1, 1, 1), (2, 2, 2), (1, 3, 3), (1, 2, 5)):
        assert dynkin_classify(spider(arms)) is None, arms
    affine_d5 = [list(row) + [-(i == 1)] for i, row in enumerate(cartan_D(5))]
    assert dynkin_classify(affine_d5 + [[0, -1, 0, 0, 0, 2]]) is None


def spider(arms):
    """Cartan matrix of a tree with one centre node and arms of the given lengths."""
    n = 1 + sum(arms)
    G = [[2 * (i == j) for j in range(n)] for i in range(n)]
    first = 1
    for length in arms:
        arm = range(first, first + length)
        for prev, node in zip([0, *arm], arm):
            G[prev][node] = G[node][prev] = -1
        first += length
    return G


def test_root_type_validation():
    with pytest.raises(ValueError):
        RootType("D", 3)
    with pytest.raises(ValueError):
        RootType("E", 9)
    with pytest.raises(ValueError):
        RootType("B", 2)
    with pytest.raises(ValueError):
        RootType("A", 0)
    with pytest.raises(ValueError):
        RootType("B", 6)
    assert str(RootType("E", 6)) == "E6"


@given(st.permutations(list(range(6))))
def test_dynkin_is_relabeling_invariant(perm):
    G = cartan_E(6)
    moved = [[G[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
    assert dynkin_classify(moved) == RootType("E", 6)


def test_graph_isomorphism_small_cases():
    # a diagram is read by its shape, not by the order of its nodes
    path = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    middle_last = [[2, 0, -1], [0, 2, -1], [-1, -1, 2]]
    assert dynkin_classify(path) == dynkin_classify(middle_last) == RootType("A", 3)
    # four nodes with three edges: a path and a star are different shapes
    assert dynkin_classify(cartan_A(4)) == RootType("A", 4)
    star = [[2, -1, -1, -1], [-1, 2, 0, 0], [-1, 0, 2, 0], [-1, 0, 0, 2]]
    assert dynkin_classify(star) == RootType("D", 4)
    assert is_connected(adjacency_from_gram(path))
    assert not is_connected({0: set(), 1: set()})


# -- root systems against the reflection oracle --------------------------------------


def test_root_counts():
    assert len(reflection_closure(cartan_A(1))) == 2
    assert len(reflection_closure(cartan_A(2))) == 6
    assert len(reflection_closure(cartan_D(4))) == 24
    assert len(reflection_closure(cartan_E(6))) == 72
    assert len(reflection_closure(cartan_E(8))) == 240


def test_all_roots_have_square_two():
    G = cartan_E(6)
    for v in reflection_closure(G):
        assert pairing(G, v, v) == 2


def test_e6_complement_in_e8_is_a2():
    """The orthogonal complement of the chosen E6 sub-diagram in E8.

    Root-level oracle: exactly 6 of the 240 roots are orthogonal to
    the E6 nodes, they all lie in the computed complement basis, and
    the induced rank-2 form reduces to the hexagonal one.
    """
    G8 = cartan_E(8)
    sub = [[G8[i][j] for j in E6_IN_E8_NODES] for i in E6_IN_E8_NODES]
    assert dynkin_classify(sub) == RootType("E", 6)

    ortho_roots = [
        v
        for v in reflection_closure(G8)
        if all(pairing(G8, tuple(int(k == i) for k in range(8)), v) == 0
               for i in E6_IN_E8_NODES)
    ]
    assert len(ortho_roots) == 6

    basis, induced = orth_complement(G8, E6_IN_E8_NODES)
    assert len(basis) == 2
    for v in ortho_roots:
        assert z_span_membership(basis, v) is not None
    reduced = gauss_reduce_rank2(induced)
    assert reduced == ((2, -1), (-1, 2))
    assert dynkin_classify(reduced) == RootType("A", 2)
