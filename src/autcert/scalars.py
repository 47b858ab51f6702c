"""Exact scalar tower and fraction-free linear algebra.

Every quantity in this package is exact: rationals are
:class:`fractions.Fraction`, polynomials carry coefficients that are an
``int`` when integral, else a ``Fraction``, in a canonical
graded-lexicographic term order, and rational functions are
polynomials over a single-term denominator.  A Laurent polynomial in
the single variable ``t`` is no type of its own: it is a term dict,
integer exponent -> coefficient, kept canonical by ``_canonical`` and
written by ``laurent_text``.  No floating point is used anywhere.  No
certificate run builds a rational function: the marking coordinates
are plain polynomials.

Each type has a canonical textual form, which the certificate reports
embed; polynomials print as sorted monomial strings.  ``Frozen`` is the
immutable base of these types and of every value type built on them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from operator import attrgetter
from typing import Iterable, Mapping, Sequence


_GL = lambda exps: (sum(exps), exps)  # graded-lex sort key


class Frozen:
    """An immutable value, compared, hashed and shown by its public slots.

    A subclass names its fields in ``__slots__`` and stores them once, in
    ``__init__``, with ``_set``.  A slot whose name starts with an
    underscore holds derived data: it takes no part in equality, hash or
    ``repr``.  A subclass may define its own comparison and text instead.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # equality and hash read the public slots with one C-level getter per class
        cls._key = attrgetter(*(name for name in cls.__slots__ if name[0] != "_"))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"


def _as_coeff(x) -> int | Fraction:
    """An exact rational as a coefficient: an ``int`` when integral, else a ``Fraction``.

    A ``bool`` is rejected, as ``_canonical`` rejects it.
    """
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _canonical(terms: Mapping) -> dict:
    """The nonzero terms, each coefficient an ``int`` or a non-integral ``Fraction``.

    The one gate every polynomial result passes: a coefficient that is
    not exactly an ``int`` or a ``Fraction`` (a float, a bool) raises
    ``TypeError``.
    """
    out = {}
    for key, c in terms.items():
        kind = type(c)
        if kind is Fraction:
            if c.denominator == 1:
                c = c.numerator
        elif kind is not int:
            raise TypeError(f"expected an exact rational, got {kind.__name__}")
        if c:
            out[key] = c
    return out


def _check_name(name: str) -> None:
    if not (name.isidentifier() and name.isascii()):
        raise ValueError(f"bad variable name {name!r}")


def _quotient(a, b) -> int | Fraction:
    """Exact quotient of two coefficients, an ``int`` when it divides."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _as_coeff(Fraction(a) / b)


class MultiPoly(Frozen):
    """Multivariate polynomial over the rationals.

    Terms map exponent tuples to nonzero coefficients, an ``int`` when
    integral, else a ``Fraction``, keyed against the sorted tuple of
    variable names that actually occur.  Variables that divide no term
    are dropped, so two construction orders of the same polynomial are
    structurally equal.  Ring operations and the builders ``zero``,
    ``const`` and ``var`` build their results with ``_make``, which trusts
    the names of already validated operands or of a name ``var`` checked.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple, Fraction | int]):
        names = tuple(vars)
        for name in names:
            _check_name(name)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        # canonical variable order
        order = sorted(range(len(names)), key=lambda i: names[i])
        summed: dict[tuple, int | Fraction] = {}
        for exps, coeff in terms.items():
            coeff = _as_coeff(coeff)
            if len(exps) != len(names):
                raise ValueError("exponent tuple does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in polynomial")
            key = tuple(exps[i] for i in order)
            summed[key] = summed.get(key, 0) + coeff
        self._fill(tuple(names[i] for i in order), summed)

    @classmethod
    def _make(cls, names: tuple[str, ...], terms: Mapping) -> MultiPoly:
        """Result of a ring operation: ``names`` are sorted, distinct and
        valid, and each exponent tuple has one non-negative entry per name."""
        p = object.__new__(cls)
        p._fill(names, terms)
        return p

    def _fill(self, names: tuple[str, ...], terms: Mapping) -> None:
        """Store the canonical terms, then drop the variables they do not use."""
        terms = _canonical(terms)
        used = [i for i, col in enumerate(zip(*terms)) if any(col)]
        if len(used) < len(names):
            names = tuple(names[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        object.__setattr__(self, "vars", names)
        object.__setattr__(self, "terms", terms)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> MultiPoly:
        return cls._make((), {})

    @classmethod
    def const(cls, c) -> MultiPoly:
        return cls._make((), {(): c})

    @classmethod
    def var(cls, name: str) -> MultiPoly:
        _check_name(name)
        return cls._make((name,), {(1,): 1})

    @classmethod
    def monomial(cls, vars: Sequence[str], exps: Sequence[int], coeff) -> MultiPoly:
        return cls(tuple(vars), {tuple(exps): coeff})

    # -- structure ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.vars

    def is_homogeneous_in(self, names: Iterable[str]) -> bool:
        idx = [i for i, v in enumerate(self.vars) if v in set(names)]
        degs = {sum(e[i] for i in idx) for e in self.terms}
        return len(degs) <= 1

    def leading(self) -> tuple[tuple, int | Fraction]:
        """Graded-lex leading (exponent tuple, coefficient)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_GL)
        return e, self.terms[e]

    def leading_coefficient(self) -> int | Fraction:
        return self.leading()[1]

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(x) -> MultiPoly:
        if isinstance(x, MultiPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return MultiPoly.const(x)
        return NotImplemented  # type: ignore[return-value]

    def _aligned(self, other: MultiPoly):
        if self.vars == other.vars:
            return self.vars, dict(self.terms), other.terms
        names = tuple(sorted(set(self.vars) | set(other.vars)))
        return names, self._lift(names), other._lift(names)

    def _lift(self, names: tuple[str, ...]) -> dict[tuple, int | Fraction]:
        """Terms keyed by exponent tuples over names, a superset of self.vars."""
        if names == self.vars:
            return dict(self.terms)
        idx = [names.index(v) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            full = [0] * len(names)
            for i, exp in zip(idx, e):
                full[i] = exp
            out[tuple(full)] = c
        return out

    def __add__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.vars:
            self, other = other, self
        if not other.terms:
            return self
        if not other.vars:  # a constant is the one term of exponent zero
            one = (0,) * len(self.vars)
            c = self.terms.get(one, 0) + other.terms[()]
            return MultiPoly._make(self.vars, {**self.terms, one: c})
        names, ta, tb = self._aligned(other)
        for e, c in tb.items():
            ta[e] = ta.get(e, 0) + c
        return MultiPoly._make(names, ta)

    __radd__ = __add__

    def __neg__(self) -> MultiPoly:
        return MultiPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return -other
        names, ta, tb = self._aligned(other)
        for e, c in tb.items():
            ta[e] = ta.get(e, 0) - c
        return MultiPoly._make(names, ta)

    def __mul__(self, other) -> MultiPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.vars:
            self, other = other, self
        if not other.vars:  # a zero or constant factor scales the other's terms
            return self.scale(other.terms.get((), 0))
        names, ta, tb = self._aligned(other)
        return MultiPoly._make(names, _term_product(ta, tb))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def scale(self, c) -> MultiPoly:
        c = _as_coeff(c)
        return MultiPoly._make(self.vars, {e: c * v for e, v in self.terms.items()})

    # -- division ----------------------------------------------------

    def divide_rem(self, divisor: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
        """Single-divisor reduction: self = q * divisor + r.

        No term of ``r`` is divisible by the graded-lex leading monomial
        of ``divisor``, so ``r == 0`` exactly when the division is exact.
        """
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        names, cur, dv = self._aligned(divisor)
        de = max(dv, key=_GL)
        dc = dv[de]
        quot: dict[tuple, int | Fraction] = {}
        rem: dict[tuple, int | Fraction] = {}
        while cur:
            le = max(cur, key=_GL)
            lc = cur.pop(le)
            diff = tuple(a - b for a, b in zip(le, de))
            if any(d < 0 for d in diff):
                rem[le] = lc
                continue
            q = _quotient(lc, dc)
            quot[diff] = quot.get(diff, 0) + q
            for e, c in dv.items():
                if e == de:
                    continue
                tgt = tuple(a + b for a, b in zip(diff, e))
                val = cur.get(tgt, 0) - q * c
                if val:
                    cur[tgt] = val
                elif tgt in cur:
                    del cur[tgt]
        return MultiPoly._make(names, quot), MultiPoly._make(names, rem)

    def exact_div(self, divisor: MultiPoly) -> MultiPoly:
        q, r = self.divide_rem(divisor)
        if r:
            raise ArithmeticError("division is not exact")
        return q

    # -- substitution ------------------------------------------------

    def substitute(self, assignment: Mapping[str, "MultiPoly | Fraction | int"]) -> MultiPoly:
        """Replace named variables by polynomials; others are kept.

        One pass over the terms, aligned to one variable tuple: a kept
        variable's exponent goes straight into the term's exponent
        tuple, only powers of the substituted values are multiplied in,
        each built once per call, and one ``MultiPoly`` is built at the end.
        """
        values = {v: self._coerce(assignment[v]) for v in self.vars if v in assignment}
        kept = [v for v in self.vars if v not in assignment]
        names = tuple(sorted(set(kept).union(*(p.vars for p in values.values()))))
        one = (0,) * len(names)
        slots = [(k, names.index(v)) for k, v in enumerate(self.vars) if v not in values]
        powers = [(k, [{one: 1}, values[v]._lift(names)])
                  for k, v in enumerate(self.vars) if v in values]
        out: dict[tuple, int | Fraction] = {}
        for e, c in self.terms.items():
            base = [0] * len(names)
            for k, at in slots:
                base[at] = e[k]
            term = {tuple(base): c}
            for k, pw in powers:
                if e[k]:
                    while len(pw) <= e[k]:
                        pw.append(_term_product(pw[-1], pw[1]))
                    term = _term_product(term, pw[e[k]])
            for mono, coeff in term.items():
                out[mono] = out.get(mono, 0) + coeff
        return MultiPoly._make(names, out)

    # -- text --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_GL, reverse=True):
            c = self.terms[e]
            factors = []
            for v, exp in zip(self.vars, e):
                if exp == 1:
                    factors.append(v)
                elif exp > 1:
                    factors.append(f"{v}^{exp}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _term_product(ta: Mapping, tb: Mapping) -> dict:
    """Product of two term dicts keyed by exponent tuples of one variable order."""
    out: dict[tuple, int | Fraction] = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


# -- gcd ---------------------------------------------------------------


def _monomial_gcd(mono: MultiPoly, p: MultiPoly) -> MultiPoly:
    """gcd of a single term and a nonzero polynomial: the monic monomial
    of the least exponent of each variable over all terms."""
    (e,) = mono.terms
    pos = {v: i for i, v in enumerate(p.vars)}
    least = tuple(
        min(d, min(f[pos[v]] for f in p.terms)) if v in pos else 0
        for v, d in zip(mono.vars, e)
    )
    return MultiPoly(mono.vars, {least: 1})


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Greatest common divisor, normalized monic in graded-lex order.

    Defined when an argument is zero or a single term, which takes the
    monomial rule; raises ValueError when both have two or more terms.
    """
    a = MultiPoly._coerce(a)
    b = MultiPoly._coerce(b)
    if not a or not b:
        p = a or b  # the other argument, made monic; zero when both are
        return p.scale(_quotient(1, p.leading_coefficient())) if p else p
    if len(b.terms) == 1:
        a, b = b, a
    if len(a.terms) != 1:
        raise ValueError("poly_gcd needs a zero or single-term argument")
    return _monomial_gcd(a, b)


# -- rational functions --------------------------------------------------


class RatFunc(Frozen):
    """A polynomial over a single-term denominator, reduced to lowest terms.

    The denominator is a monic monomial coprime to the numerator, so
    equal quotients compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = MultiPoly._coerce(num)
        den = MultiPoly._coerce(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFunc takes polynomials or rationals")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if len(den.terms) != 1:
            raise ValueError("a RatFunc denominator is a single term")
        if not num:
            num, den = MultiPoly.zero(), MultiPoly.const(1)
        else:
            g = poly_gcd(num, den)
            num = num.exact_div(g)
            den = den.exact_div(g)
            inv = _quotient(1, den.leading_coefficient())
            num = num.scale(inv)
            den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def var(cls, name: str) -> RatFunc:
        return cls(MultiPoly.var(name))

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


# -- Laurent polynomials in t --------------------------------------------


def laurent_text(terms: Mapping[int, Fraction | int]) -> str:
    """The text of a canonical Laurent term dict, highest power first; the
    empty dict is "0"."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- square roots ----------------------------------------------------------


def rational_sqrt(x: int | Fraction) -> int | Fraction | None:
    """Exact square root of a rational, or None when no rational root exists;
    a nonnegative ``int`` takes ``isqrt`` and has an ``int`` root."""
    if type(x) is int and x >= 0:
        root = isqrt(x)
        return root if root * root == x else None
    x = _as_coeff(x)
    if x < 0:
        return None
    rn, rd = isqrt(x.numerator), isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


# -- exact linear algebra ---------------------------------------------------


def _exact_quot(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("division is not exact")
    return q


def matrix_rank_det(rows: Sequence[Sequence]) -> tuple[int, object | None]:
    """Rank, and determinant when square, by fraction-free Bareiss elimination.

    Entries may be integers, rationals or polynomials; the
    successive-pivot divisions are exact over any integral domain, so
    no fractions of entries are ever formed.  The division is chosen
    once per call.  A matrix of integers and rationals is eliminated
    over ``int``, each row first scaled by the lcm of its denominators,
    and divides by ``divmod`` (a remainder raises ``ArithmeticError``);
    its determinant is still a ``Fraction``, divided back by the row
    scales.  Any other matrix divides with ``MultiPoly.exact_div``.  The
    empty 0x0 matrix has rank 0 and determinant 1.
    """
    A = [list(row) for row in rows]
    kinds = set(map(type, chain.from_iterable(A)))
    scale = 1
    if all(issubclass(t, (int, Fraction)) for t in kinds):
        if kinds - {int}:
            for k, row in enumerate(A):
                d = lcm(*(x.denominator for x in row))
                A[k] = [x.numerator * (d // x.denominator) for x in row]
                scale *= d
        quot = _exact_quot
    else:
        quot = lambda a, b: MultiPoly._coerce(a).exact_div(MultiPoly._coerce(b))
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    sign = 1
    prev = None
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if A[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            A[r], A[pivot] = A[pivot], A[r]
            sign = -sign
        top = A[r]
        p = top[c]
        for row in A[r + 1 :]:
            f = row[c]
            for j in range(c + 1, n):
                val = p * row[j] - f * top[j]
                row[j] = val if prev is None else quot(val, prev)
            row[c] = 0
        prev = p
        r += 1
    if m != n:
        return r, None
    if r < n:
        return r, Fraction(0)
    if prev is None:
        return r, Fraction(1)
    det = prev if sign == 1 else -prev
    return r, Fraction(det, scale) if isinstance(det, int) else det
