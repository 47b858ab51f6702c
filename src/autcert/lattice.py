"""Integer lattices: Hermite form, kernels, signatures, and root types.

A lattice is presented by an integer Gram matrix on an explicit basis.
Membership, kernels, and orthogonal complements are computed by
unimodular row reduction over the integers, so every positive answer
comes with an integer witness the caller can recheck by hand; the
negative answers follow from divisibility obstructions in an echelon
basis.  Kernels use the Hermite form; membership uses a sparse echelon
basis grown one generator at a time, which also takes Fraction
entries.  Signatures come from sparse symmetric congruence over the
integers, which also gives the inertia of a leading block on the way,
and small root lattices are recognized by the arm lengths of their
Dynkin diagrams.  A Gram matrix is checked once, by :class:`Gram`; a
``Gram`` passed on is taken as it is.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd
from operator import mul
from typing import Iterable, Mapping, Sequence

from .scalars import Frozen, _canonical, matrix_rank_det

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def _int_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    out = [list(row) for row in rows]
    for x in chain.from_iterable(out):
        if type(x) is not int:  # rejects bool, Fraction and float alike
            raise TypeError(f"integer entry expected, got {x!r}")
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


class Gram(tuple):
    """A square symmetric matrix of ints, as tuples.  The constructor is the
    check, and it returns a ``Gram`` as it is: that one has passed it."""

    __slots__ = ()

    def __new__(cls, rows: Sequence[Sequence[int]]):
        if type(rows) is Gram:
            return rows
        G = _int_rows(rows)
        n = len(G)
        if any(len(row) != n for row in G):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if G[i][j] != G[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        return tuple.__new__(cls, map(tuple, G))


# -- Hermite normal form -----------------------------------------------------


def hnf(rows: Sequence[Sequence[int]]) -> tuple[Mat, Mat]:
    """Row Hermite normal form with transformation record.

    Returns (H, U) with H = U * rows, U unimodular.  Pivots are
    positive and strictly to the right of the pivots above them,
    entries above a pivot are reduced into [0, pivot), and zero rows
    sit at the bottom.  H depends only on the row span, so it serves
    as a canonical presentation of the lattice the rows generate.
    Each row is carried as [A | U], so one row step moves both halves.
    """
    A = _int_rows(rows)
    m = len(A)
    n = len(A[0]) if m else 0
    M = [row + [int(i == j) for j in range(m)] for i, row in enumerate(A)]
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if M[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(M[i][c]))
            if i0 != r:
                M[r], M[i0] = M[i0], M[r]
            done = True
            pivot = M[r]
            for i in range(r + 1, m):
                if M[i][c]:
                    q = M[i][c] // pivot[c]
                    M[i] = [a - q * b for a, b in zip(M[i], pivot)]
                    if M[i][c]:
                        done = False
            if done:
                break
        if r < m and M[r][c]:
            if M[r][c] < 0:
                M[r] = [-v for v in M[r]]
            pivot = M[r]
            for i in range(r):
                q = M[i][c] // pivot[c]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], pivot)]
            r += 1
    return tuple(tuple(row[:n]) for row in M), tuple(tuple(row[n:]) for row in M)


# -- incremental echelon basis -------------------------------------------------


def _combine(s: int, u: dict, t: int, v: dict) -> dict:
    """s*u + t*v of two sparse vectors, zero entries dropped."""
    out = {k: s * x for k, x in u.items()}
    for k, x in v.items():
        out[k] = out.get(k, 0) + t * x
    return {k: x for k, x in out.items() if x}


def _add_multiple(u: dict, t: int, v: Mapping) -> None:
    """u += t*v in place, zero entries dropped."""
    for k, x in v.items():
        y = u.get(k, 0) + t * x
        if y:
            u[k] = y
        else:
            u.pop(k, None)


def _xgcd(a, b) -> tuple:
    """(g, x, y) with x*a + y*b == g = +-gcd(a, b) and x, y integers; b nonzero.

    Euclid with floor quotients.  For Fractions the quotients are still
    integers, so a and b are integer multiples of g.
    """
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return a, x0, y0


class SpanBasis:
    """Echelon basis of the integer span of sparse vectors, grown one at a time.

    A vector maps column keys to int or Fraction entries; the Laurent
    terms of the non-FG generators are all int.  ``rows`` maps
    each pivot, the least key of its row, to the row and the row's
    combination of ``generators`` (generator index -> integer).  Rows
    change only by unimodular integer steps, subtracting an integer
    multiple of one row from another or the 2x2 extended-gcd step, so
    they span exactly what the generators span.  Quotients of Fractions
    are integers, so no denominator is ever cleared.
    """

    def __init__(self, vectors: Iterable[Mapping] = ()):
        self.generators: list[dict] = []
        self.rows: dict[object, tuple[dict, dict[int, int]]] = {}
        for vec in vectors:
            self.insert(vec)

    def insert(self, vec: Mapping) -> None:
        """Add a generator: reduce it, then keep what remains as a new pivot row."""
        v = _canonical(vec)
        combo = {len(self.generators): 1}
        self.generators.append(v)
        while v:
            p = min(v)
            if p not in self.rows:
                self.rows[p] = (v, combo)
                return
            row, rc = self.rows[p]
            q, r = divmod(v[p], row[p])
            if r:
                g, x, y = _xgcd(row[p], v[p])
                a, b = row[p] // g, v[p] // g
                self.rows[p] = (_combine(x, row, y, v), _combine(x, rc, y, combo))
                v, combo = _combine(a, v, -b, row), _combine(a, combo, -b, rc)
            else:
                v, combo = _combine(1, v, -q, row), _combine(1, combo, -q, rc)

    def solve(self, target: Mapping) -> dict[int, int] | None:
        """Sparse integer coefficients of the generators summing to target, or None.

        None means the reduction stopped at a key with no pivot row or at
        a pivot that does not divide the remaining entry.
        """
        v = _canonical(target)
        combo: dict[int, int] = {}
        while v:
            p = min(v)
            if p not in self.rows:
                return None
            row, rc = self.rows[p]
            q, r = divmod(v[p], row[p])
            if r:
                return None
            # v and combo are this call's own dicts, so they change in place
            _add_multiple(v, -q, row)
            _add_multiple(combo, q, rc)
        return dict(sorted(combo.items()))


def z_span_membership(
    gens: Sequence[Sequence[int]], target: Sequence[int]
) -> Vec | None:
    """Integer coefficients writing target in the span of gens, or None.

    A returned witness c satisfies sum(c[i] * gens[i]) == target exactly;
    None means the echelon basis of the generators obstructs the solve
    (a divisibility failure or an unreachable coordinate).
    """
    (t,) = _int_rows([target])
    rows = _int_rows(gens)
    if rows and len(rows[0]) != len(t):
        raise ValueError("target length does not match generators")
    basis = SpanBasis(dict(enumerate(row)) for row in rows)
    sparse = basis.solve(dict(enumerate(t)))
    if sparse is None:
        return None
    witness = [sparse.get(i, 0) for i in range(len(rows))]
    combo = [0] * len(t)
    for c, g in zip(witness, rows):
        if c:
            combo = [a + c * b for a, b in zip(combo, g)]
    if combo != t:
        raise ArithmeticError("membership witness failed re-verification")
    return tuple(witness)


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[Vec]:
    """Basis of the full integer kernel {x : rows @ x = 0}.

    The basis rows come from the unimodular transform of the Hermite
    form of the transpose, so they generate the kernel saturated in
    the ambient lattice, not merely a finite-index subgroup.
    """
    A = _int_rows(rows)
    if not A:
        raise ValueError("kernel of an empty matrix is ambient; pass rows")
    n = len(A[0])
    T = [[A[i][j] for i in range(len(A))] for j in range(n)]
    H, U = hnf(T)
    return [tuple(u) for h, u in zip(H, U) if not any(h)]


def orth_complement(
    gram: Sequence[Sequence[int]], indices: Sequence[int]
) -> tuple[list[Vec], Mat]:
    """Saturated orthogonal complement of chosen basis vectors.

    Returns (basis, induced) where basis spans {x : <e_i, x> = 0 for
    the chosen i} and induced is the Gram matrix of the pairing
    restricted to that basis.
    """
    G = Gram(gram)
    idx = sorted(set(indices))
    if any(i < 0 or i >= len(G) for i in idx):
        raise ValueError("index out of range")
    if not idx:
        basis = [tuple(int(i == j) for j in range(len(G))) for i in range(len(G))]
    else:
        basis = integer_kernel([G[i] for i in idx])
    # G.w once per basis vector, then one dot product per entry
    images = [[sum(map(mul, row, w)) for row in G] for w in basis]
    induced = tuple(tuple(sum(map(mul, v, gw)) for gw in images) for v in basis)
    return basis, induced


# -- signatures ---------------------------------------------------------------


def signature(gram: Sequence[Sequence[int]], leading: int | None = None) -> tuple:
    """(positive, negative, zero) inertia by sparse integer symmetric congruence.

    Rows are dicts of their nonzero entries.  Each step pivots on a
    nonzero diagonal entry d = M_kk with the fewest neighbours i, those
    with f_i = M_ik nonzero, and replaces e_i by a_i*e_i - b_i*e_k, where
    a_i = d/g_i, b_i = f_i/g_i and g_i = gcd(d, f_i): a congruence by an
    integer matrix of nonzero determinant, so by Sylvester's law of
    inertia any pivot order keeps the signature, and the rank is
    positive + negative.  Only the neighbours' rows and columns move:
    (i, j) becomes a_i*a_j*M_ij - d*b_i*b_j between two of them, and
    a_i*M_ij against a non-neighbour j.  When the diagonal left is all
    0 but some M_kj is not, e_k <- e_k + e_j makes M_kk = 2*M_kj.

    With ``leading=k`` it returns the pair (inertia of the leading k x k
    block, inertia of the whole matrix) from the one elimination: it
    pivots, and takes e_k + e_j, inside the block until no entry is left
    within it, moving block vectors only by block vectors, and then goes
    on over the whole matrix.  A ``Gram`` is not checked again.
    """
    G = Gram(gram)
    n = len(G)
    if leading is not None and not 0 <= leading <= n:
        raise ValueError(f"leading block size {leading} out of range for {n} rows")
    rows = {i: dict(compress(enumerate(row), row)) for i, row in enumerate(G) if any(row)}
    positive: list[bool] = []  # one entry per nonzero pivot
    inside = n if leading is None else leading  # pivots stay below this index
    block = None

    def inertia(size):
        pos = sum(positive)
        return pos, len(positive) - pos, size - len(positive)

    while rows:
        k, fewest = None, n + 1
        for i, row in rows.items():
            if i < inside and i in row and len(row) < fewest:
                k, fewest = i, len(row)
        if k is None:
            k = next((i for i, row in rows.items() if i < inside and min(row) < inside), None)
            if k is None:  # nothing is left within the leading block
                block, inside = inertia(inside), n
                continue
            rk = rows[k]
            j = next(t for t in rk if t < inside)
            for t, x in rows[j].items():
                y = rk.get(t, 0) + x
                if y:
                    rk[t] = rows[t][k] = y
                else:
                    del rk[t], rows[t][k]
            rk[k] = 2 * rk[j]  # (e_k + e_j)^2, as M_kk = M_jj = 0
        nbrs = rows.pop(k)
        d = nbrs.pop(k)
        positive.append(d > 0)
        pairs = {}  # neighbour i -> (a_i, b_i)
        for i, f in nbrs.items():
            g = gcd(d, f)
            pairs[i] = (d // g, f // g)
        for i, (a, b) in pairs.items():
            row = rows[i]
            del row[k]
            for j, x in row.items():
                pair = pairs.get(j)
                if pair:
                    row[j] = a * x * pair[0]
                else:
                    row[j] = rows[j][i] = a * x
            db = d * b
            for j, (_, bj) in pairs.items():
                y = row.get(j, 0) - db * bj
                if y:
                    row[j] = y
                else:
                    del row[j]
            if not row:
                del rows[i]
    whole = inertia(n)
    return whole if leading is None else (block or inertia(leading), whole)


def gram_rank(gram: Sequence[Sequence[int]]) -> int:
    rank, _ = matrix_rank_det(Gram(gram))
    return rank


# -- binary form reduction ----------------------------------------------------


def gauss_reduce_rank2(gram: Sequence[Sequence[int]]) -> Mat:
    """Canonical reduced form of a positive definite binary Gram matrix.

    Gauss reduction: returns [[a, b], [b, c]] with 2*|b| <= a <= c and
    b <= 0, a complete invariant of the lattice up to isometry.
    """
    G = Gram(gram)
    if len(G) != 2:
        raise ValueError("rank-2 reduction takes a 2x2 Gram matrix")
    a, b, c = G[0][0], G[0][1], G[1][1]
    if a <= 0 or a * c - b * b <= 0:
        raise ValueError("form is not positive definite")
    while True:
        if a > c:
            a, c = c, a
        # e2 -> e2 + k*e1 with k the nearest integer to -b/a
        k = (2 * (-b) + a) // (2 * a) if b <= 0 else -((2 * b + a) // (2 * a))
        if k:
            c = c + 2 * k * b + k * k * a
            b = b + k * a
        if 2 * abs(b) <= a <= c:
            break
    b = -abs(b)
    return ((a, b), (b, c))


# -- Dynkin diagrams ----------------------------------------------------------


class RootType(Frozen):
    """An irreducible simply laced root lattice type, e.g. RootType("E", 6)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        ok = (
            (family == "A" and rank >= 1)
            or (family == "D" and rank >= 4)
            or (family == "E" and rank in (6, 7, 8))
        )
        if not ok:
            raise ValueError(f"no root lattice {family}{rank}")
        self._set(family, rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_E(n: int) -> Gram:
    G = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    for i, j in [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]:
        G[i][j] = G[j][i] = -1
    return Gram(G)


_CARTAN_E = {n: _cartan_E(n) for n in (6, 7, 8)}


def cartan_E(n: int) -> Gram:
    """Cartan matrix of E_n: the chain 0, ..., n-2 with node n-1 joined to node 2.

    The three matrices are built and checked once, at import.
    """
    if n not in _CARTAN_E:
        raise ValueError("E requires rank 6, 7, or 8")
    return _CARTAN_E[n]


E6_IN_E8_NODES = (0, 1, 2, 3, 4, 7)  # sub-diagram of cartan_E(8) of type E6


def is_connected(adj: Mapping[object, Iterable[object]]) -> bool:
    nodes = list(adj)
    if not nodes:
        return True
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(nodes)


def dynkin_classify(gram: Sequence[Sequence[int]]) -> RootType | None:
    """Recognize a connected simply laced Cartan matrix, or return None.

    Expects the positive definite sign convention: 2 on the diagonal,
    0 or -1 off it; the diagram it draws is read by ``diagram_type``.
    """
    G = Gram(gram)
    n = len(G)
    for i in range(n):
        if G[i][i] != 2:
            return None
        for j in range(n):
            if i != j and G[i][j] not in (0, -1):
                return None
    return diagram_type({i: {j for j in range(n) if j != i and G[i][j]} for i in range(n)})


def diagram_type(adj: Mapping[object, set]) -> RootType | None:
    """The type of a simply laced Dynkin diagram given by its neighbour sets, or None.

    A connected Dynkin diagram of finite type is a tree fixed by its arm
    lengths (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 11.4): a path is A_n; otherwise there is one branch node, of
    degree 3, and its arms of p <= q <= r nodes are (1, 1, r) for D_n or
    (1, 2, 2..4) for E6 to E8.  The reading does not depend on how the
    nodes are named.
    """
    n = len(adj)
    if not is_connected(adj) or sum(map(len, adj.values())) != 2 * (n - 1):
        return None
    branches = [v for v, ws in adj.items() if len(ws) > 2]
    if not branches:
        return RootType("A", n)
    if len(branches) > 1 or len(adj[branches[0]]) > 3:
        return None
    p, q, r = sorted(_arm_length(adj, branches[0], w) for w in adj[branches[0]])
    if (p, q) == (1, 1):
        return RootType("D", n)
    if (p, q) == (1, 2) and r <= 4:
        return RootType("E", n)
    return None


def _arm_length(adj: Mapping[object, set], branch, first) -> int:
    """Nodes on the arm that leaves the branch node through first."""
    prev, here, length = branch, first, 1
    while len(adj[here]) == 2:
        prev, here = here, next(w for w in adj[here] if w != prev)
        length += 1
    return length
