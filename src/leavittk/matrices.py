"""Exact integer matrices and Smith normal form.

All arithmetic uses Python's unbounded integers; nothing here ever
rounds.  Matrices are immutable value objects, so they can be shared
freely between threads and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, index, sub


class IntMatrix:
    """Immutable integer matrix, row-major, any shape including empty.

    Entries are converted with `operator.index`, so a float or any other
    non-integral entry raises TypeError instead of being truncated.

    >>> m = IntMatrix([[2, 4], [6, 8]])
    >>> m.rows, m.cols
    (2, 2)
    >>> (m @ IntMatrix.identity(2)) == m
    True
    """

    __slots__ = ("rows", "cols", "_data", "_hash")

    def __init__(self, rows_of_entries):
        data = tuple(tuple(map(index, row)) for row in rows_of_entries)
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows")
        self._data = data
        self._hash = None

    @classmethod
    def _of(cls, data: tuple, cols: int) -> "IntMatrix":
        """Wrap a checked tuple of int tuples; `cols` keeps the width of
        a matrix with no rows, which the constructor cannot see."""
        m = object.__new__(cls)
        m.rows, m.cols, m._data, m._hash = len(data), cols, data, None
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        """
        >>> z = IntMatrix.zero(0, 3)
        >>> (z.rows, z.cols), (z.transpose().rows, z.transpose().cols)
        ((0, 3), (3, 0))
        """
        rows, cols = index(rows), index(cols)
        return cls._of(((0,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.identity_below_zero(n, n)

    @classmethod
    def identity_below_zero(cls, rows: int, cols: int) -> "IntMatrix":
        """A zero block of rows - cols rows stacked on the cols x cols
        identity (rows >= cols).

        >>> IntMatrix.identity_below_zero(3, 2).tolists()
        [[0, 0], [1, 0], [0, 1]]
        """
        rows, cols = index(rows), index(cols)
        return cls._of(((0,) * cols,) * (rows - cols)
                       + tuple((0,) * j + (1,) + (0,) * (cols - j - 1)
                               for j in range(cols)), cols)

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    @property
    def entries(self) -> tuple:
        """Row-major flattening."""
        return tuple(x for row in self._data for x in row)

    def tolists(self) -> list:
        return [list(row) for row in self._data]

    def transpose(self) -> "IntMatrix":
        if not self._data:
            return IntMatrix.zero(self.cols, 0)
        return IntMatrix._of(tuple(zip(*self._data)), self.rows)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(-x for x in row)
                                   for row in self._data), self.cols)

    def _entrywise(self, op, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._of(tuple(tuple(map(op, r1, r2))
                                   for r1, r2 in zip(self._data, other._data)),
                             self.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(sub, other)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        ot = other.transpose()._data
        return IntMatrix._of(tuple(tuple(sum(a * b for a, b in zip(row, col))
                                         for col in ot)
                                   for row in self._data), other.cols)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self._data == other._data \
            and (self.rows, self.cols) == (other.rows, other.cols)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self._data))
        return self._hash

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._data]!r})"

    def permuted(self, row_perm, col_perm) -> "IntMatrix":
        """Reindex rows/cols: new[i][j] = old[row_perm[i]][col_perm[j]]."""
        return IntMatrix._of(tuple(tuple(self._data[i][j] for j in col_perm)
                                   for i in row_perm), len(col_perm))

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self._data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """Certified factorization U @ M @ V = D.

    U, V are unimodular; D is diagonal with nonnegative entries forming a
    divisibility chain d_1 | d_2 | ... followed by zeros.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    matrix: IntMatrix

    @property
    def invariant_factors(self) -> tuple:
        """The nonzero diagonal entries d_1 | d_2 | ..."""
        ds = []
        for i in range(min(self.D.rows, self.D.cols)):
            d = self.D[i, i]
            if d != 0:
                ds.append(d)
        return tuple(ds)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def verify(self) -> bool:
        """Re-check every certificate condition from scratch."""
        if self.U @ self.matrix @ self.V != self.D:
            return False
        if abs(self.U.determinant()) != 1 or abs(self.V.determinant()) != 1:
            return False
        d = self.D
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j and d[i, j] != 0:
                    return False
        diag = [d[i, i] for i in range(min(d.rows, d.cols))]
        if any(x < 0 for x in diag):
            return False
        for a, b in zip(diag, diag[1:]):
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        return True


def _add_col(m, dst, src, c):
    for row in m:
        row[dst] += c * row[src]


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transformation certificates.

    Pivots are chosen globally in the remaining submatrix by smallest
    nonzero absolute value, ties broken by lowest row then lowest column,
    which keeps intermediate entries small and the output reproducible.

    The work is done on one table: row i of D carries row i of U to its
    right, and the rows of V are stacked below D.  A row operation on the
    first `rows` rows then updates D and U together, and a column
    operation on the first `cols` columns updates D and V together, so
    each elementary operation is written and applied once.

    The same loop keeps the divisibility chain (Cohen, GTM 138, §2.4):
    once pivot p's row and column are clean, a row with an entry p does
    not divide is added to row t.  The next pass picks a smaller pivot or
    clears row t to a remainder below |p|, so |pivot| drops within two
    passes and the loop ends, with a divisibility chain on the diagonal.

    >>> dec = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    >>> [dec.D[i, i] for i in range(2)]
    [2, 4]
    >>> dec.verify()
    True
    """
    rows, cols = matrix.rows, matrix.cols
    table = [list(r) + [int(i == k) for k in range(rows)]
             for i, r in enumerate(matrix.tolists())]
    table += [[int(i == k) for k in range(cols)] for i in range(cols)]

    t = 0
    while t < min(rows, cols):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = table[i][j]
                if x != 0 and (best is None
                               or abs(x) < abs(table[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        table[t], table[i] = table[i], table[t]
        for row in table:
            row[t], row[j] = row[j], row[t]
        # Clear column t, then row t; remainders force a smaller pivot on
        # the next pass.
        clean = True
        p = table[t][t]
        for i in range(t + 1, rows):
            if table[i][t]:
                q = table[i][t] // p
                table[i] = [x - q * y for x, y in zip(table[i], table[t])]
                if table[i][t]:
                    clean = False
        for j in range(t + 1, cols):
            if table[t][j]:
                _add_col(table, j, t, -(table[t][j] // p))
                if table[t][j]:
                    clean = False
        if clean:
            bad = [i for i in range(t + 1, rows)
                   if any(x % p for x in table[i][t + 1:cols])]
            if bad:
                table[t] = [x + y for x, y in zip(table[t], table[bad[0]])]
            else:
                t += 1

    for i in range(min(rows, cols)):
        if table[i][i] < 0:
            table[i] = [-x for x in table[i]]

    return SmithDecomposition(
        U=IntMatrix(r[cols:] for r in table[:rows]),
        D=IntMatrix._of(tuple(tuple(r[:cols]) for r in table[:rows]), cols),
        V=IntMatrix(table[rows:]), matrix=matrix)
