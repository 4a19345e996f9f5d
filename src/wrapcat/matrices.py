"""Exact matrices over a coefficient field, and the one elimination kernel.

A ``Matrix`` stores its rows as sparse vectors in ``Echelon``'s vector form
(bitsets over F2, ``{index: scalar}`` dicts over Q and F_p, the scalars
Fractions over Q).  Dense rows come in only through ``Matrix.from_rows``
and ``Matrix.from_columns`` and go out only through the read-only ``data``
view; scattered entries come in through ``Matrix.from_entries``.  Every
elimination (rank, reduced row echelon form, kernel, solve) goes through
``Echelon``, an incremental sparse echelon basis.  Over Q its stored rows
are primitive integer vectors, so it eliminates on Python ints
(fraction-free Gaussian elimination) and makes Fractions only of what it
returns.  A ``Matrix`` is immutable, so ``solve`` keeps its factorization
(the RREF of ``[A | I]``) on the matrix: the first right-hand side
eliminates, every later one costs a sparse product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ShapeMismatch
from .rings import CoefficientRing

_SPACES = {}    # (characteristic, n) -> Echelon; the characteristic names the field


def vectors(ring: CoefficientRing, n: int) -> "Echelon":
    """The shared, never filled ``Echelon`` of length-n vectors over
    ``ring``, for its vector methods (pack, unpack, sparse, gather, clip,
    items, axpy)."""
    space = _SPACES.get((ring.p, n))
    if space is None:
        space = _SPACES[(ring.p, n)] = Echelon(ring, n)
    return space


class Matrix:
    """Immutable exact matrix: ``rows`` sparse row vectors of length ``cols``,
    column-vector action."""

    __slots__ = ("ring", "vecs", "rows", "cols", "_solver")

    def __init__(self, ring: CoefficientRing, vecs, cols: int):
        self.ring = ring
        self.vecs = tuple(vecs)
        self.rows = len(self.vecs)
        self.cols = cols
        self._solver = None     # (pivots, transform), filled by the first solve

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(ring: CoefficientRing, rows, cols: int = None) -> "Matrix":
        """From dense rows of scalars; ``cols`` gives the width of a matrix
        without rows."""
        rows = [tuple(ring.normalize(x) for x in row) for row in rows]
        n = len(rows[0]) if rows else int(cols or 0)
        if any(len(row) != n for row in rows):
            raise ShapeMismatch("ragged matrix rows")
        space = vectors(ring, n)
        return Matrix(ring, [space.pack(row) for row in rows], n)

    @staticmethod
    def from_entries(ring: CoefficientRing, entries, rows: int,
                     cols: int) -> "Matrix":
        """From (row, column, sign exponent e, scalar c) entries, each adding
        (-1)^e c at its position; every c a nonzero field element."""
        return Matrix(ring, vectors(ring, cols).gather(entries, rows), cols)

    @staticmethod
    def from_columns(ring: CoefficientRing, cols, rows: int) -> "Matrix":
        """From dense columns of length ``rows``."""
        return Matrix.from_rows(ring, cols, rows).transpose()

    @staticmethod
    def zero(ring: CoefficientRing, rows: int, cols: int) -> "Matrix":
        return Matrix(ring, [vectors(ring, cols).zero] * rows, cols)

    @staticmethod
    def identity(ring: CoefficientRing, n: int) -> "Matrix":
        space = vectors(ring, n)
        return Matrix(ring, [space.unit(i) for i in range(n)], n)

    # -- views ----------------------------------------------------------------

    @property
    def data(self):
        """The dense rows, as tuples of scalars."""
        unpack = vectors(self.ring, self.cols).unpack
        return tuple(unpack(v) for v in self.vecs)

    def column(self, j: int):
        """The nonzero entries of column j, as {row index: scalar}."""
        coeff = vectors(self.ring, self.cols).coeff
        return {i: c for i, v in enumerate(self.vecs) if (c := coeff(v, j))}

    def columns(self):
        """The columns, as sparse vectors of length ``rows``."""
        return self.transpose().vecs

    def leading(self, rows: int, cols: int) -> "Matrix":
        """The leading ``rows`` x ``cols`` block."""
        clip = vectors(self.ring, cols).clip
        return Matrix(self.ring, [clip(v) for v in self.vecs[:rows]], cols)

    def first_nonzero_column(self):
        """The lowest index of a nonzero column; None for a zero matrix."""
        lead = vectors(self.ring, self.cols).lead
        return min((lead(v) for v in self.vecs if v), default=None)

    # -- basic algebra --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.cols == other.cols and self.vecs == other.vecs)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def is_zero(self) -> bool:
        return not any(self.vecs)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"add {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        axpy = vectors(self.ring, self.cols).axpy
        return Matrix(self.ring, [axpy(a, 1, b) for a, b in zip(self.vecs, other.vecs)],
                      self.cols)

    def scale(self, c) -> "Matrix":
        space = vectors(self.ring, self.cols)
        c = self.ring.normalize(c)
        return Matrix(self.ring, [space.axpy(space.zero, c, v) for v in self.vecs],
                      self.cols)

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other (apply ``other`` first on column vectors)."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"mul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        space = vectors(self.ring, other.cols)
        items = vectors(self.ring, self.cols).items
        out = []
        for row in self.vecs:
            acc = space.zero
            for k, x in items(row):
                acc = space.axpy(acc, x, other.vecs[k])
            out.append(acc)
        return Matrix(self.ring, out, other.cols)

    def apply(self, vec):
        """Apply to a dense column vector (tuple of scalars)."""
        if self.cols != len(vec):
            raise ShapeMismatch(f"apply {self.rows}x{self.cols} to len-{len(vec)} vector")
        R = self.ring
        items = vectors(R, self.cols).items
        out = []
        for row in self.vecs:
            acc = R.zero()
            for k, x in items(row):
                acc = R.add(acc, R.mul(x, vec[k]))
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        items = vectors(self.ring, self.cols).items
        entries = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.vecs):
            for j, x in items(row):
                entries[j][i] = x
        sparse = vectors(self.ring, self.rows).sparse
        return Matrix(self.ring, [sparse(e) for e in entries], self.rows)

    # -- elimination ----------------------------------------------------------

    def echelon(self) -> "Echelon":
        """Echelon basis of the row space."""
        ech = Echelon(self.ring, self.cols)
        for row in self.vecs:
            ech.insert(row)
        return ech

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivots)."""
        ech = self.echelon()
        rows = ech.rref()
        rows += [ech.zero] * (self.rows - len(rows))
        return Matrix(self.ring, rows, self.cols), ech.pivots

    def rank(self) -> int:
        return len(self.echelon().pivots)

    def kernel_basis(self):
        """The RREF basis of the kernel, as a list of dense column vectors."""
        ech = self.echelon()
        return [ech.unpack(v) for v in ech.kernel()]

    def is_invertible(self) -> bool:
        """Square and of full rank."""
        return self.rows == self.cols and self.rank() == self.rows

    def solve(self, vec):
        """One exact solution x with self @ x = vec, or None.  Deterministic:
        free variables are set to zero in RREF order.

        The RREF T [A | I] = [R | T] of the augmented identity is computed on
        the first call and kept: a row of R with pivot column c gives
        x_c = T_c . vec, and vec is consistent iff every row of T whose
        pivot lies in the I part (a row of the left null space) kills it.
        Since T is linear in vec, this is the RREF solution of [A | vec]."""
        if len(vec) != self.rows:
            raise ShapeMismatch("solve dimension mismatch")
        if self._solver is None:
            self._solver = self._factor()
        pivots, transform = self._solver
        R, n = self.ring, self.cols
        image = transform.apply(tuple(R.normalize(b) for b in vec))
        x = [R.zero()] * n
        for pc, c in zip(pivots, image):
            if pc >= n:
                if c:
                    return None
            else:
                x[pc] = c
        return tuple(x)

    def _factor(self):
        """The pivots of the RREF of [self | I] and its I part, row by row."""
        n, m = self.cols, self.rows
        aug = vectors(self.ring, n + m)
        red, pivots = Matrix(self.ring, [aug.axpy(row, 1, aug.unit(n + i))
                                         for i, row in enumerate(self.vecs)],
                             n + m).rref()
        tail = vectors(self.ring, m).sparse
        return pivots, Matrix(self.ring, [
            tail({j - n: x for j, x in aug.items(v) if j >= n})
            for v in red.vecs[:len(pivots)]], m)


class Echelon:
    """Incremental echelon basis of a subspace of field^n, in sparse vectors:
    Python-int bitsets over F2 (bit i is coordinate i), ``{index: nonzero
    scalar}`` dicts over Q and F_p for odd p.  ``Echelon(ring, n)`` makes that
    choice for the whole engine.  Each stored row is nonzero at its pivot, its
    lowest nonzero index, and zero at every pivot stored before it; it is
    monic there, except over Q (``_RationalEchelon``).  No vector is
    mutated once built."""

    def __new__(cls, ring, n):
        if cls is Echelon:
            f2 = ring.kind == "Fp" and ring.p == 2
            cls = (_BitEchelon if f2 else _DictEchelon if ring.p
                   else _RationalEchelon)
        return super().__new__(cls)

    def __init__(self, ring, n):
        self.ring, self.n = ring, n
        self._rows = {}     # pivot -> row, in insertion order

    @property
    def pivots(self):
        return sorted(self._rows)

    def copy(self) -> "Echelon":
        dup = Echelon(self.ring, self.n)
        dup._rows = dict(self._rows)
        return dup

    def unit(self, i):
        return self.sparse({i: self.ring.one()})

    def reduce(self, v):
        """The representative of v + span that is zero at every pivot: each
        row is zero at the pivots stored before it, so clearing the pivots
        in that order never refills one."""
        for p, row in self._rows.items():
            c = self.coeff(v, p)
            if c:
                v = self.axpy(v, -c, row)
        return v

    def insert(self, v):
        """Add ``v`` to the span and return the pivot of its new row; None
        when it lay in the span already."""
        v = self.reduce(v)
        if not v:
            return None
        p = self.lead(v)
        self._rows[p] = self.monic(v, p)
        return p

    def row(self, p):
        """The stored row with pivot p, in vector form."""
        return self._rows[p]

    def rref(self):
        """The rows of the reduced row echelon form of the span, by pivot."""
        done = {}
        for p in sorted(self._rows, reverse=True):
            v = self._rows[p]
            for q, c in list(self.items(v)):
                if q in done:
                    v = self.axpy(v, -c, done[q])
            done[p] = v
        return [done[p] for p in sorted(done)]

    def kernel(self):
        """The RREF basis of {x : w.x = 0 for every w in the span}: one
        vector per non-pivot index, in index order."""
        one, neg = self.ring.one(), self.ring.neg
        entries = {j: {j: one} for j in range(self.n) if j not in self._rows}
        for v in self.rref():
            p = self.lead(v)
            for j, c in self.items(v):
                if j != p:
                    entries[j][p] = neg(c)
        return [self.sparse(e) for e in entries.values()]


_BITS = bytes.maketrans(b"\x00\x01", b"01")
_UNBITS = bytes.maketrans(b"01", b"\x00\x01")


class _BitEchelon(Echelon):
    """F2: a vector is a Python int and v + w is v ^ w."""

    zero = 0

    def __init__(self, ring, n):
        super().__init__(ring, n)
        self._pivot_bits = 0    # bit p set for every stored pivot p

    def copy(self) -> "Echelon":
        dup = super().copy()
        dup._pivot_bits = self._pivot_bits
        return dup

    def reduce(self, v):
        """Clear the stored pivots set in v, lowest first: a row has no bit
        below its pivot, so clearing one never refills a lower one."""
        rows, pivots = self._rows, self._pivot_bits
        hit = v & pivots
        while hit:
            v ^= rows[(hit & -hit).bit_length() - 1]
            hit = v & pivots
        return v

    def insert(self, v):
        v = self.reduce(v)
        if not v:
            return None
        low = v & -v
        p = low.bit_length() - 1
        self._rows[p] = v
        self._pivot_bits |= low
        return p

    def pack(self, dense):
        return int(bytes(dense)[::-1].translate(_BITS) or b"0", 2)

    def unpack(self, v):
        if not self.n:
            return ()
        return tuple(format(v, f"0{self.n}b")[::-1].encode().translate(_UNBITS))

    def sparse(self, entries):
        return sum(1 << i for i, x in entries.items() if x)

    def gather(self, entries, rows):
        """The ``rows`` vectors whose row i sums (-1)^e c at index j over
        the entries (i, j, e, c); each scalar c is a nonzero field element,
        so over F2 it is 1 and the sign drops out."""
        out = [0] * rows
        for i, j, _, _ in entries:
            out[i] ^= 1 << j
        return out

    def clip(self, v):
        """v without its coordinates from n on."""
        return v & ((1 << self.n) - 1)

    def items(self, v):
        while v:
            low = v & -v
            yield low.bit_length() - 1, 1
            v ^= low

    def lead(self, v):
        return (v & -v).bit_length() - 1

    def coeff(self, v, i):
        return (v >> i) & 1

    def axpy(self, v, c, w):
        """v + c.w"""
        return v ^ w if c % 2 else v


class _DictEchelon(Echelon):
    """F_p for odd p, and the vector form over Q: a vector is {index:
    nonzero scalar}."""

    zero = {}

    def pack(self, dense):
        return {i: x for i, x in enumerate(dense) if x}

    def unpack(self, v):
        z = self.ring.zero()
        return tuple(v.get(i, z) for i in range(self.n))

    def sparse(self, entries):
        return {i: x for i, x in entries.items() if x}

    def gather(self, entries, rows):
        """The ``rows`` vectors whose row i sums (-1)^e c at index j over
        the entries (i, j, e, c), each c a nonzero field element."""
        acc = [{} for _ in range(rows)]
        for i, j, e, c in entries:
            row = acc[i]
            row[j] = row.get(j, 0) - c if e & 1 else row.get(j, 0) + c
        p = self.ring.p     # 0 over Q, where sums of Fractions stay exact
        if p:
            return [{j: y for j, x in row.items() if (y := x % p)} for row in acc]
        return [{j: x for j, x in row.items() if x} for row in acc]

    def clip(self, v):
        """v without its coordinates from n on."""
        n = self.n
        return {j: x for j, x in v.items() if j < n}

    def items(self, v):
        return v.items()

    def lead(self, v):
        return min(v)

    def coeff(self, v, i):
        return v.get(i, 0)

    def axpy(self, v, c, w):
        """v + c.w"""
        out = dict(v)
        p = self.ring.p     # 0 over Q
        for j, x in w.items():
            y = out.get(j, 0) + c * x
            if p:
                y %= p
            if y:
                out[j] = y
            else:
                out.pop(j, None)
        return out

    def monic(self, v, p):
        if v[p] == 1:
            return v
        inv = self.ring.inv(v[p])
        return {j: self.ring.mul(inv, x) for j, x in v.items()}


class _RationalEchelon(_DictEchelon):
    """Q: a vector is {index: Fraction}, but each stored row is a primitive
    integer dict, positive at its pivot: the monic row times a positive
    integer.  So the pivots, ``reduce`` (the one member of v + span that is
    zero at every pivot) and the RREF are those of Fraction elimination,
    while the elimination itself runs on Python ints: cross-multiply, then
    divide out the gcd content, and build one Fraction per entry returned."""

    def reduce(self, v):
        if self._rows.keys().isdisjoint(v):
            return v
        w, den = _integral(v)
        w, scale = _clear(w, self._rows.items())
        den *= scale
        return {j: Fraction(x, den) for j, x in w.items()}

    def insert(self, v):
        w = _clear(_integral(v)[0], self._rows.items())[0]
        if not w:
            return None
        p = min(w)
        self._rows[p] = _primitive(w, p)
        return p

    def row(self, p):
        return {j: Fraction(x) for j, x in self._rows[p].items()}

    def rref(self):
        done = {}   # pivot -> primitive RREF row
        for p in sorted(self._rows, reverse=True):
            row = self._rows[p]
            w = _clear(dict(row), [(q, done[q]) for q in row if q in done])[0]
            done[p] = _primitive(w, p)
        return [{j: Fraction(x, w[p]) for j, x in w.items()}
                for p, w in sorted(done.items())]


def _integral(v):
    """(w, den): a fresh integer dict w and a positive int den with
    v = w / den."""
    den = lcm(*[x.denominator for x in v.values()])
    return {j: x.numerator * (den // x.denominator) for j, x in v.items()}, den


def _clear(w, rows):
    """Clear in the integer dict w, which the caller owns, the pivot p of
    each (p, row) in turn by w <- row[p] w - w[p] row.  Each row is zero
    at the pivots cleared before it, so none is refilled.  Returns the new
    w and the product of the factors row[p] that w was multiplied by."""
    scale = 1
    for p, row in rows:
        c = w.get(p)
        if c:
            a = row[p]
            if a != 1:
                w = {j: a * x for j, x in w.items()}
                scale *= a
            for j, x in row.items():
                y = w.get(j, 0) - c * x
                if y:
                    w[j] = y
                else:
                    del w[j]
    return w, scale


def _primitive(w, p):
    """The nonzero integer dict w divided by its gcd content, with the sign
    that makes it positive at index p."""
    g = gcd(*w.values())
    if w[p] < 0:
        g = -g
    return w if g == 1 else {j: x // g for j, x in w.items()}
