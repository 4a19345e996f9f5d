"""Dense exact matrices over a CoefficientRing.

Everything here is small ("desk scale"), so the routines favour clarity and
determinism over asymptotics: plain Gaussian elimination over fields, integer
row/column reduction with full transform tracking for Smith normal form.
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
        return [self.column(j) for j in range(self.cols)]

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

    def _packed_rows(self):
        """Rows as bit masks (F2 fast path)."""
        return [sum(1 << j for j, x in enumerate(row) if x) for row in self.data]

    @staticmethod
    def _from_packed(ring, rows, cols):
        return Matrix(ring, [[(r >> j) & 1 for j in range(cols)] for r in rows],
                      cols=cols)

    def _is_f2(self):
        return self.ring.kind == "Fp" and self.ring.p == 2

    def mul(self, other: "Matrix") -> "Matrix":
        """Matrix product self @ other (apply ``other`` first on column vectors)."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"mul {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        R = self.ring
        if self._is_f2():
            brows = other._packed_rows()
            out = []
            for row in self.data:
                acc = 0
                for k, x in enumerate(row):
                    if x:
                        acc ^= brows[k]
                out.append(acc)
            return Matrix._from_packed(R, out, other.cols)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = R.zero()
                for k in range(self.cols):
                    acc = R.add(acc, R.mul(self.data[i][k], other.data[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(R, out, cols=other.cols)

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
        return Matrix(self.ring, [[self.data[i][j] for i in range(self.rows)]
                                  for j in range(self.cols)], cols=self.rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return Matrix(self.ring, [list(a) + list(b) for a, b in zip(self.data, other.data)],
                      cols=self.cols + other.cols)

    # -- field elimination -----------------------------------------------------

    def _f2_rref_packed(self):
        rows = self._packed_rows()
        pivots = []
        r = 0
        for c in range(self.cols):
            bit = 1 << c
            pivot = next((i for i in range(r, self.rows) if rows[i] & bit), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            for i in range(self.rows):
                if i != r and rows[i] & bit:
                    rows[i] ^= rows[r]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return rows, pivots

    def rref(self):
        """Reduced row echelon form over a field.  Returns (R, pivots)."""
        if not self.ring.is_field:
            raise ShapeMismatch("rref requires a field")
        R = self.ring
        if self._is_f2():
            rows, pivots = self._f2_rref_packed()
            return Matrix._from_packed(R, rows, self.cols), pivots
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if not R.is_zero(m[i][c])), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = R.inv(m[r][c])
            m[r] = [R.mul(inv, x) for x in m[r]]
            for i in range(self.rows):
                if i != r and not R.is_zero(m[i][c]):
                    f = m[i][c]
                    m[i] = [R.sub(x, R.mul(f, y)) for x, y in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(R, m, cols=self.cols), pivots

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        if self.ring.is_field:
            return len(self.rref()[1])
        diag = smith_normal_form(self)[2]
        return sum(1 for d in diag if d != 0)

    def kernel_basis(self):
        """Basis of the kernel as a list of column vectors.

        Over a field: the standard RREF kernel basis (deterministic).
        Over Z: a lattice basis of the integer kernel via SNF (saturated).
        """
        R = self.ring
        if self.cols == 0:
            return []
        if self.rows == 0:
            eye = Matrix.identity(R, self.cols)
            return eye.columns()
        if R.is_field:
            red, pivots = self.rref()
            free = [c for c in range(self.cols) if c not in pivots]
            basis = []
            for fc in free:
                v = [R.zero()] * self.cols
                v[fc] = R.one()
                for r, pc in enumerate(pivots):
                    v[pc] = R.neg(red.data[r][fc])
                basis.append(tuple(v))
            return basis
        U, V, diag = smith_normal_form(self)
        rank = sum(1 for d in diag if d != 0)
        return [V.column(j) for j in range(rank, self.cols)]

    def solve(self, vec):
        """One exact solution x with self @ x = vec, or None.

        Deterministic: over fields, free variables are set to zero in RREF
        order; over Z the solve goes through the Smith decomposition.
        """
        R = self.ring
        if len(vec) != self.rows:
            raise ShapeMismatch("solve dimension mismatch")
        if R.is_field:
            aug = self.hstack(Matrix(R, [[v] for v in vec]))
            red, pivots = aug.rref()
            if self.cols in pivots:
                return None
            x = [R.zero()] * self.cols
            for r, pc in enumerate(pivots):
                x[pc] = red.data[r][self.cols]
            return tuple(x)
        U, V, diag = smith_normal_form(self)
        w = U.apply(vec)
        y = []
        for i in range(self.cols):
            d = diag[i] if i < len(diag) else 0
            wi = w[i] if i < len(w) else 0
            if d == 0:
                if wi != 0:
                    return None
                y.append(0)
            else:
                if wi % d != 0:
                    return None
                y.append(wi // d)
        for i in range(self.cols, len(w)):
            if w[i] != 0:
                return None
        return V.apply(tuple(y))

def invertible_from_columns(ring: CoefficientRing, cols, rows: int) -> bool:
    """Whether the matrix with the given columns (each of length ``rows``) is
    square of full rank."""
    m = Matrix.from_columns(ring, cols, rows)
    return m.rows == m.cols and (m.rows == 0 or m.rank() == m.rows)


def smith_normal_form(m: Matrix):
    """Smith normal form with transforms: U @ m @ V = diag(d1 | d2 | ...).

    U, V are unimodular over Z; d_i >= 0 with the divisibility chain.  Total
    on every integer matrix, including empty ones.
    """
    ring = m.ring
    if ring.kind != "Z":
        raise ShapeMismatch("smith_normal_form requires integer entries")
    a = [list(row) for row in m.data]
    rows, cols = m.rows, m.cols
    U = [list(r) for r in Matrix.identity(ring, rows).data]
    V = [list(r) for r in Matrix.identity(ring, cols).data]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    n = min(rows, cols)
    t = 0
    while t < n:
        # find smallest nonzero |entry| in the remaining block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility: a[t][t] must divide every later entry
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            i, _ = offender
            row_op(t, i, -1)  # add row i to row t, then restart this pivot
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
        t += 1

    diag = tuple(a[i][i] if i < rows and i < cols else 0 for i in range(min(rows, cols)))
    return Matrix(ring, U), Matrix(ring, V), diag


def invert_unimodular(m: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix (or any invertible field matrix)."""
    R = m.ring
    if m.rows != m.cols:
        raise ShapeMismatch("inverse of non-square matrix")
    if R.is_field:
        aug = m.hstack(Matrix.identity(R, m.rows))
        red, pivots = aug.rref()
        if pivots != list(range(m.rows)):
            raise ShapeMismatch("matrix not invertible")
        return Matrix(R, [row[m.rows:] for row in red.data])
    U, V, diag = smith_normal_form(m)
    if any(d != 1 for d in diag) or m.rows != len(diag):
        raise ShapeMismatch("integer matrix not unimodular")
    return V.mul(U)
