"""Exact matrices over a coefficient field, and the one elimination kernel.

``Matrix`` is dense and small ("desk scale").  Every elimination (rank,
reduced row echelon form, kernel, solve, product) goes through ``Echelon``,
an incremental sparse echelon basis.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .rings import CoefficientRing


class Matrix:
    """Immutable exact matrix.  ``rows x cols`` entries, column-vector action."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: CoefficientRing, data, cols: int = None,
                 _trusted: bool = False):
        self.ring = ring
        if _trusted:
            self.data = data if isinstance(data, tuple) else tuple(
                tuple(row) for row in data)
        else:
            self.data = tuple(tuple(ring.normalize(x) for x in row) for row in data)
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
        else:
            self.cols = 0 if cols is None else int(cols)
        for row in self.data:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged matrix rows")

    @staticmethod
    def from_sparse(ring: CoefficientRing, rows: int, cols: int, entries) -> "Matrix":
        """Build from {(i, j): normalized scalar} without dense normalization."""
        z = ring.zero()
        data = [[z] * cols for _ in range(rows)]
        for (i, j), v in entries.items():
            data[i][j] = v
        return Matrix(ring, tuple(tuple(r) for r in data), cols=cols, _trusted=True)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: CoefficientRing, rows: int, cols: int) -> "Matrix":
        z = ring.zero()
        return Matrix(ring, [[z] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(ring: CoefficientRing, n: int) -> "Matrix":
        z, o = ring.zero(), ring.one()
        return Matrix(ring, [[o if i == j else z for j in range(n)] for i in range(n)], cols=n)

    @staticmethod
    def from_columns(ring: CoefficientRing, cols, rows: int) -> "Matrix":
        cols = list(cols)
        return Matrix(ring, [[cols[j][i] for j in range(len(cols))] for i in range(rows)],
                      cols=len(cols))

    def column(self, j: int):
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self):
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    # -- basic algebra --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ring, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data})"

    def is_zero(self) -> bool:
        z = self.ring.zero()
        return all(x == z for row in self.data for x in row)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch(f"add {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        R = self.ring
        return Matrix(R, [[R.add(a, b) for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)], cols=self.cols)

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.neg())

    def scale(self, c) -> "Matrix":
        R = self.ring
        c = R.normalize(c)
        return Matrix(R, [[R.mul(c, x) for x in row] for row in self.data], cols=self.cols)

    def neg(self) -> "Matrix":
        return self.scale(-1)

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other (apply ``other`` first on column vectors)."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"mul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        vecs = Echelon(self.ring, other.cols)
        brows = [vecs.pack(row) for row in other.data]
        out = []
        for row in self.data:
            acc = vecs.zero
            for k, x in vecs.items(vecs.pack(row)):
                acc = vecs.axpy(acc, x, brows[k])
            out.append(vecs.unpack(acc))
        return Matrix(self.ring, out, cols=other.cols, _trusted=True)

    def apply(self, vec):
        """Apply to a column vector (tuple of scalars)."""
        if self.cols != len(vec):
            raise ShapeMismatch(f"apply {self.rows}x{self.cols} to len-{len(vec)} vector")
        R = self.ring
        out = []
        for i in range(self.rows):
            acc = R.zero()
            for k in range(self.cols):
                acc = R.add(acc, R.mul(self.data[i][k], vec[k]))
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.columns(), cols=self.rows, _trusted=True)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return Matrix(self.ring, [list(a) + list(b) for a, b in zip(self.data, other.data)],
                      cols=self.cols + other.cols)

    # -- elimination ----------------------------------------------------------

    def echelon(self) -> "Echelon":
        """Echelon basis of the row space."""
        ech = Echelon(self.ring, self.cols)
        for row in self.data:
            ech.insert(ech.pack(row))
        return ech

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivots)."""
        ech = self.echelon()
        rows = [ech.unpack(v) for v in ech.rref()]
        rows += [ech.unpack(ech.zero)] * (self.rows - len(rows))
        return Matrix(self.ring, rows, cols=self.cols, _trusted=True), ech.pivots

    def rank(self) -> int:
        return len(self.echelon().pivots)

    def kernel_basis(self):
        """The RREF basis of the kernel, as a list of column vectors."""
        ech = self.echelon()
        return [ech.unpack(v) for v in ech.kernel()]

    def is_invertible(self) -> bool:
        """Square and of full rank."""
        return self.rows == self.cols and self.rank() == self.rows

    def solve(self, vec):
        """One exact solution x with self @ x = vec, or None.  Deterministic:
        free variables are set to zero in RREF order."""
        R = self.ring
        if len(vec) != self.rows:
            raise ShapeMismatch("solve dimension mismatch")
        red, pivots = self.hstack(Matrix(R, [[v] for v in vec])).rref()
        if self.cols in pivots:
            return None
        x = [R.zero()] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.data[r][self.cols]
        return tuple(x)


class Echelon:
    """Incremental echelon basis of a subspace of field^n, in sparse vectors:
    Python-int bitsets over F2 (bit i is coordinate i), ``{index: nonzero
    scalar}`` dicts over Q and F_p for odd p.  ``Echelon(ring, n)`` makes that
    choice for the whole engine.  Each stored row is monic at its pivot, its
    lowest nonzero index, and zero at every pivot stored before it.  No
    vector is mutated once built."""

    def __new__(cls, ring, n):
        if cls is Echelon:
            f2 = ring.kind == "Fp" and ring.p == 2
            cls = _BitEchelon if f2 else _DictEchelon
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

    def insert(self, v) -> bool:
        """Add ``v`` to the span; False when it lay in the span already."""
        v = self.reduce(v)
        if not v:
            return False
        p = self.lead(v)
        self._rows[p] = self.monic(v, p)
        return True

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

    def insert(self, v) -> bool:
        v = self.reduce(v)
        if not v:
            return False
        low = v & -v
        self._rows[low.bit_length() - 1] = v
        self._pivot_bits |= low
        return True

    def pack(self, dense):
        return int(bytes(dense)[::-1].translate(_BITS) or b"0", 2)

    def unpack(self, v):
        if not self.n:
            return ()
        return tuple(format(v, f"0{self.n}b")[::-1].encode().translate(_UNBITS))

    def sparse(self, entries):
        return sum(1 << i for i, x in entries.items() if x)

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

    def monic(self, v, p):
        return v


class _DictEchelon(Echelon):
    """Q and F_p for odd p: a vector is {index: nonzero scalar}."""

    zero = {}

    def pack(self, dense):
        return {i: x for i, x in enumerate(dense) if x}

    def unpack(self, v):
        z = self.ring.zero()
        return tuple(v.get(i, z) for i in range(self.n))

    def sparse(self, entries):
        return {i: x for i, x in entries.items() if x}

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
