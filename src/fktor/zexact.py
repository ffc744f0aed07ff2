"""Exact linear algebra over the integers.

Everything here is arbitrary precision: matrices are tuples of tuples of
Python ints, groups are finitely generated abelian groups given by
presentations and normalised by the Smith normal form, and kernels, cycle lattices
and coordinates in their Hermite bases come from row echelons.  No floats anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from operator import add, itemgetter, mul, neg
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple


class ZExactError(Exception):
    pass


class CompositionNonZeroError(ZExactError):
    """Raised when a would-be complex has a nonzero composite."""


class _Record:
    """Base of fktor's mutable records: a subclass lists its fields in
    `_fields`, keeps them in `__slots__` and sets them in its `__init__`.
    Two records are equal when they are of one class with equal fields, and
    a record is unhashable and shown as Name(field=value, ...)."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(getattr(self, f) for f in self._fields) == \
            tuple(getattr(other, f) for f in self._fields)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


def guard_int(x, error, message: str, least: Optional[int] = None,
              most: Optional[int] = None, shown=None) -> None:
    """fktor's one test of an integer argument: a count or a degree (least 0), a
    parity (0 to 1), a shift or a factor.  Unless x is an int, not a bool, with
    least <= x <= most, raise error(message.format(shown)), shown defaulting to x."""
    if type(x) is not int or (least is not None and x < least) \
            or (most is not None and x > most):
        raise error(message.format(x if shown is None else shown))


def guard_name(x, names, error, message: str, shown=None) -> None:
    """fktor's one test of a named argument (an object of a category, a side, a
    variance, an engine, a kind of word): x must be a string among `names`."""
    if type(x) is not str or x not in names:
        raise error(message.format(x if shown is None else shown))


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

def _guard_shape(rows, cols) -> None:
    """Refuse a matrix shape that is not two nonnegative integers."""
    for n in (rows, cols):
        guard_int(n, ZExactError, "matrix sizes must be nonnegative integers, "
                  "not {0[0]!r}x{0[1]!r}", 0, shown=(rows, cols))


class IntMatrix:
    """Immutable integer matrix, row major.

    The public constructor checks its input: every entry, and the shape when
    it is given, must be an ``int`` (``bool`` and ``float`` are refused) and
    every row must have the same length.  Matrices that fktor builds from
    data it made itself go through the unchecked ``_of``, directly or by the
    column constructors ``_from_columns`` and ``_from_sparse_columns``.  The
    hash is computed on first use and kept in the ``_hash`` slot.
    """

    __slots__ = ("rows", "cols", "data", "_hash")

    def __init__(self, data: Iterable[Iterable[int]], rows: Optional[int] = None,
                 cols: Optional[int] = None):
        d = tuple(map(tuple, data))
        for row in d:
            for x in row:
                guard_int(x, ZExactError, "matrix entries must be integers, not {!r}")
        if rows is None:
            rows = len(d)
        if cols is None:
            cols = len(d[0]) if d else 0
        _guard_shape(rows, cols)
        if len(d) != rows or any(len(r) != cols for r in d):
            raise ZExactError("ragged or mis-sized matrix data")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", d)

    @classmethod
    def _of(cls, data: tuple, rows: int, cols: int) -> "IntMatrix":
        """Trusted constructor: `data` must already be a tuple of `rows`
        tuples of `cols` ints each.  Nothing is checked or copied."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "data", data)
        return m

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("IntMatrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        _guard_shape(rows, cols)
        return IntMatrix._of(((0,) * cols,) * rows, rows, cols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        guard_int(n, ZExactError, "a matrix size must be a nonnegative integer, not {!r}", 0)
        zeros = (0,) * n
        return IntMatrix._of(tuple(zeros[:i] + (1,) + zeros[i + 1:] for i in range(n)),
                             n, n)

    @classmethod
    def _from_columns(cls, cols: Sequence[Sequence[int]], nrows: int) -> "IntMatrix":
        """Trusted constructor: the matrix whose columns are `cols`, each a
        sequence of `nrows` ints.  Nothing is checked."""
        return cls._of(tuple(zip(*cols)) if cols else ((),) * nrows, nrows, len(cols))

    @classmethod
    def _from_sparse_columns(cls, cols: Sequence[dict], nrows: int) -> "IntMatrix":
        """Trusted constructor: the matrix whose columns are the given
        {row < nrows: nonzero} dicts.  Nothing is checked."""
        data = [[0] * len(cols) for _ in range(nrows)]
        for k, col in enumerate(cols):
            for i, x in col.items():
                data[i][k] = x
        return cls._of(tuple(map(tuple, data)), nrows, len(cols))

    # -- basic queries -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.data == other.data \
            and self.rows == other.rows and self.cols == other.cols

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.rows, self.cols, self.data))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {list(map(list, self.data))})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i) -> tuple:
        return self.data[i]

    def column(self, j) -> tuple:
        return tuple([r[j] for r in self.data])

    def columns(self) -> list:
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def sparse_rows(self) -> list:
        """The rows as fresh {column: nonzero} dicts, as `smith` reads them."""
        return [_nonzeros(r) for r in self.data]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ZExactError("shape mismatch in add")
        return IntMatrix._of(tuple(tuple(map(add, r1, r2))
                                   for r1, r2 in zip(self.data, other.data)),
                             self.rows, self.cols)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(map(neg, row)) for row in self.data),
                             self.rows, self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def scale(self, c: int) -> "IntMatrix":
        guard_int(c, ZExactError, "a matrix is scaled by an integer, not {!r}")
        return IntMatrix._of(tuple(tuple([c * x for x in row]) for row in self.data),
                             self.rows, self.cols)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ZExactError(f"shape mismatch in mul: {self.cols} vs {other.rows}")
        if self.cols == 0 or other.cols == 0 or self.rows == 0:
            return IntMatrix.zero(self.rows, other.cols)
        ot = tuple(zip(*other.data))
        return IntMatrix._of(tuple(tuple([sum(map(mul, row, col)) for col in ot])
                                   for row in self.data), self.rows, other.cols)

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise ZExactError("vector length mismatch")
        return tuple([sum(map(mul, row, vec)) for row in self.data])

    def transpose(self) -> "IntMatrix":
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return IntMatrix._of(data, self.cols, self.rows)

    # -- assembly ----------------------------------------------------------

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ZExactError("hstack row mismatch")
        return IntMatrix._of(tuple(map(add, self.data, other.data)),
                             self.rows, self.cols + other.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        data = self.data
        if not col_idx:
            return IntMatrix.zero(len(row_idx), 0)
        pick = itemgetter(*col_idx)
        if len(col_idx) == 1:
            rows = tuple((pick(data[i]),) for i in row_idx)
        else:
            rows = tuple(pick(data[i]) for i in row_idx)
        return IntMatrix._of(rows, len(row_idx), len(col_idx))

    @staticmethod
    def block(grid: Sequence[Sequence[Optional["IntMatrix"]]],
              row_dims: Sequence[int], col_dims: Sequence[int]) -> "IntMatrix":
        """The matrix laid out from a grid of blocks: grid[i][j] fills the
        row_dims[i] x col_dims[j] block, and None is a zero block.  An empty
        grid, or rows with no column blocks, is the zero matrix of the
        summed sizes.  A 1 x 1 grid holding a block that fits is that block
        itself, not a copy."""
        nrows, ncols = sum(row_dims), sum(col_dims)
        if not grid:
            return IntMatrix.zero(nrows, ncols)
        if len(grid) != len(row_dims) or set(map(len, grid)) != {len(col_dims)}:
            raise ZExactError("block grid does not match its row and column sizes")
        if len(grid) == 1 and len(col_dims) == 1 and grid[0][0] is not None:
            b = grid[0][0]
            if b.rows != nrows or b.cols != ncols:
                raise ZExactError(f"{b.rows}x{b.cols} block in a {nrows}x{ncols} slot")
            return b
        data = []
        for brow, h in zip(grid, row_dims):
            # concatenate whole-row tuples block by block, as hstack does;
            # neighbouring zero blocks merge into one gap
            pieces, gap = [], 0
            for b, w in zip(brow, col_dims):
                if b is None:
                    gap += w
                    continue
                if b.rows != h or b.cols != w:
                    raise ZExactError(f"{b.rows}x{b.cols} block in a {h}x{w} slot")
                if gap:
                    pieces.append(((0,) * gap,) * h)
                    gap = 0
                pieces.append(b.data)
            if gap or not pieces:
                pieces.append(((0,) * gap,) * h)
            strip = pieces[0]
            for p in pieces[1:]:
                strip = tuple(map(add, strip, p))
            data += strip
        return IntMatrix._of(tuple(data), nrows, ncols)

    def to_lists(self) -> list:
        return [list(row) for row in self.data]


class _SparseMatrix:
    """An integer matrix given by its nonzero entries, for `smith`, built
    from the {row < nrows: nonzero} dicts of its columns.  A trusted path, as
    `IntMatrix._of` is: nothing is checked.  Row i of the matrix is a
    {column: nonzero} dict in increasing column order; `sparse_rows` hands
    out copies of them.  The dense `data`, as an IntMatrix holds it, is
    built only when read and then kept."""

    __slots__ = ("rows", "cols", "_entries", "_data")

    def __init__(self, cols: Sequence[dict], nrows: int):
        entries = [{} for _ in range(nrows)]
        for k, col in enumerate(cols):
            for i, x in col.items():
                entries[i][k] = x
        self.rows, self.cols, self._entries, self._data = nrows, len(cols), entries, None

    def sparse_rows(self) -> list:
        """Copies of the {column: nonzero} rows, for the caller to change."""
        return [r.copy() for r in self._entries]

    @property
    def data(self) -> tuple:
        if self._data is None:
            self._data = _dense_rows(self._entries, self.cols)
        return self._data


def block_diag(blocks: Sequence[Optional[IntMatrix]],
               row_dims: Optional[Sequence[int]] = None,
               col_dims: Optional[Sequence[int]] = None) -> IntMatrix:
    """The diagonal case of IntMatrix.block; a block may be None (zero) when
    the sizes are given."""
    n = len(blocks)
    return IntMatrix.block([[None] * i + [b] + [None] * (n - 1 - i)
                            for i, b in enumerate(blocks)],
                           [b.rows for b in blocks] if row_dims is None else row_dims,
                           [b.cols for b in blocks] if col_dims is None else col_dims)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def _nonzeros(vec: Sequence[int]) -> dict:
    """The nonzero entries {index: value} of a dense list or tuple.

    Each nonzero is found by `index` from just past the one before it: the
    entries in between are zero, so the first match is that nonzero.  The
    zeros are skipped by `filter` and `index`, and Python code runs once
    per nonzero."""
    out = {}
    i = -1
    for x in filter(None, vec):
        i = vec.index(x, i + 1)
        out[i] = x
    return out


def _dense_rows(rows, width: int) -> tuple:
    """The dense rows, `width` wide, of {column: nonzero} rows."""
    out = []
    for r in rows:
        line = [0] * width
        for j, x in r.items():
            line[j] = x
        out.append(tuple(line))
    return tuple(out)


def _add_scaled(dst: dict, src: dict, q: int) -> None:
    """dst += q * src on {index: nonzero} rows, for a nonzero q."""
    for j, x in src.items():
        y = dst.get(j, 0) + q * x
        if y:
            dst[j] = y
        else:
            del dst[j]


class SmithForm:
    """U * A * V = S with U, V unimodular and S diagonal, d1 | d2 | ...

    `rows` and `cols` are the shape of A.  `smith` hands over sparse rows: the rows
    of U and of V transposed (the columns of V), each a {column: nonzero} dict, and
    the diagonal of S; `solve`, `_u_rows` and `Presentation.class_vector` work on
    them.  The dense `U`, `S` and `V` are built when first read and then kept."""

    def __init__(self, rows: int, cols: int, u_rows: list, diag: list,
                 vt_rows: list):
        self.rows, self.cols = rows, cols
        self._u, self._diag, self._vt = u_rows, diag, vt_rows

    @cached_property
    def U(self) -> IntMatrix:
        return IntMatrix._of(_dense_rows(self._u, self.rows), self.rows, self.rows)

    @cached_property
    def S(self) -> IntMatrix:
        rows = [{i: d} for i, d in enumerate(self._diag)]
        rows += [{}] * (self.rows - len(rows))
        return IntMatrix._of(_dense_rows(rows, self.cols), self.rows, self.cols)

    @cached_property
    def V(self) -> IntMatrix:
        n = self.cols
        return IntMatrix._of(tuple(zip(*_dense_rows(self._vt, n))), n, n)

    def _u_rows(self, start: int, stop: int) -> IntMatrix:
        """Rows start..stop-1 of U, without building the rest of U."""
        return IntMatrix._of(_dense_rows(self._u[start:stop], self.rows),
                             stop - start, self.rows)

    def _u_dot(self, i: int, v: Sequence[int]) -> int:
        """Entry i of U v."""
        return sum([x * v[j] for j, x in self._u[i].items()])

    def diagonal(self) -> list:
        return list(self._diag)

    def rank(self) -> int:
        return sum(1 for d in self._diag if d != 0)

    def solve(self, b: Sequence[int]) -> Optional[tuple]:
        """One integer solution x of A x = b for the factored A, or None."""
        if len(b) != self.rows:
            raise ZExactError("rhs length mismatch")
        diag, vt = self._diag, self._vt
        x = [0] * self.cols
        for i in range(self.rows):
            c = self._u_dot(i, b)
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                if c != 0:
                    return None
            elif c % d != 0:
                return None
            elif c:
                y = c // d
                for j, q in vt[i].items():
                    x[j] += y * q
        return tuple(x)


def smith(A: "IntMatrix | _SparseMatrix") -> SmithForm:
    """Smith normal form with transforms, on sparse rows.

    A is an IntMatrix or a _SparseMatrix; M starts as A.sparse_rows(), so a
    sparse input is never made dense.  M, U and V transposed are lists of
    {column: nonzero} rows, and the column index `at[j]` is the set of rows of
    M with a nonzero in column j, so a row or column operation touches only
    nonzero entries and no step scans a dense row or column.  The pivot at step
    k is the nonzero of least absolute value in the trailing block, the first
    one in row-major order; the search stops at the first row holding a unit.
    Rows below the pivot are reduced by it, then the columns right of it; a
    remainder smaller than the pivot becomes the pivot.  The diagonal is made
    nonnegative and d_i | d_{i+1} is enforced at the end.  V is kept
    transposed, so that a column operation on it is a row operation on VT.
    """
    m, n = A.rows, A.cols
    M = A.sparse_rows()
    U = [{i: 1} for i in range(m)]
    VT = [{j: 1} for j in range(n)]
    at = defaultdict(set)
    for i, row in enumerate(M):
        for j in row:
            at[j].add(i)

    def swap_rows(i, j):
        if i != j:
            Mi, Mj = M[i], M[j]
            for c in Mi.keys() - Mj.keys():
                s = at[c]
                s.discard(i)
                s.add(j)
            for c in Mj.keys() - Mi.keys():
                s = at[c]
                s.discard(j)
                s.add(i)
            M[i], M[j] = Mj, Mi
            U[i], U[j] = U[j], U[i]

    def swap_cols(k, j):
        if k != j:
            for r in at[k] | at[j]:
                row = M[r]
                a, b = row.pop(k, 0), row.pop(j, 0)
                if b:
                    row[k] = b
                if a:
                    row[j] = a
            at[k], at[j] = at[j], at[k]
            VT[k], VT[j] = VT[j], VT[k]

    def add_row(src, dst, q):
        # row[dst] += q*row[src]
        Md = M[dst]
        for j, x in M[src].items():
            y = Md.pop(j, 0) + q * x
            if y:
                Md[j] = y
                at[j].add(dst)
            else:
                at[j].discard(dst)
        _add_scaled(U[dst], U[src], q)

    def add_col(src, dst, q):
        # column[dst] += q*column[src]
        for r in at[src]:
            row = M[r]
            y = row.pop(dst, 0) + q * row[src]
            if y:
                row[dst] = y
                at[dst].add(r)
            else:
                at[dst].discard(r)
        _add_scaled(VT[dst], VT[src], q)

    def negate_row(i):
        M[i] = {j: -x for j, x in M[i].items()}
        U[i] = {j: -x for j, x in U[i].items()}

    # Invariant of the main loop: rows and columns before k are zero off the
    # diagonal, so the rows from k on hold entries in columns k and later
    # only, and column operations at step k only meet rows k and below.
    k = 0
    limit = min(m, n)
    while k < limit:
        best, piv = 0, None
        for i in range(k, m):
            row = M[i]
            if row:
                v = min(map(abs, row.values()))
                if not best or v < best:
                    best, piv = v, i
                    if v == 1:
                        break
        if piv is None:
            break
        swap_rows(k, piv)
        swap_cols(k, min(j for j, x in M[k].items() if abs(x) == best))
        while True:
            Mk = M[k]
            d = Mk[k]
            pending = sorted(at[k])
            pending.remove(k)
            for i in pending:
                q = -(M[i][k] // d)
                if q:
                    add_row(k, i, q)
            pending = [i for i in pending if k in M[i]]
            if pending:
                # remainder smaller than pivot; promote it
                swap_rows(k, min(pending, key=lambda r: abs(M[r][k])))
                continue
            # column k is now zero below the pivot: a column operation
            # from it changes row k of M only
            for j in [j for j in Mk if j != k]:
                q = -(Mk[j] // d)
                if q:
                    y = Mk[j] + q * d
                    if y:
                        Mk[j] = y
                    else:
                        del Mk[j]
                        at[j].discard(k)
                    _add_scaled(VT[j], VT[k], q)
            if len(Mk) > 1:
                swap_cols(k, min((j for j in Mk if j != k),
                                 key=lambda c: (abs(Mk[c]), c)))
                continue
            break
        k += 1

    # nonnegative diagonal
    for i in range(limit):
        if M[i].get(i, 0) < 0:
            negate_row(i)
    # enforce divisibility d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            a, b = M[i].get(i, 0), M[i + 1].get(i + 1, 0)
            if a and b % a != 0:
                # fold the next pivot into position i and rediagonalise 2x2
                add_col(i + 1, i, 1)
                # now column i has entries a (row i) and b (row i+1)
                while M[i + 1].get(i):
                    if abs(M[i].get(i, 0)) >= abs(M[i + 1][i]):
                        add_row(i + 1, i, -(M[i][i] // M[i + 1][i]))
                    swap_rows(i, i + 1)
                # clear the fill-in in row i / column i+1
                if M[i].get(i):
                    q = -(M[i].get(i + 1, 0) // M[i][i])
                    if q:
                        add_col(i, i + 1, q)
                if M[i].get(i, 0) < 0:
                    negate_row(i)
                if M[i + 1].get(i + 1, 0) < 0:
                    negate_row(i + 1)
                changed = True
    return SmithForm(m, n, U, [M[i].get(i, 0) for i in range(limit)], VT)


def kernel(A: IntMatrix) -> IntMatrix:
    """Hermite basis (as hnf_columns gives it) of ker(A) = {x : A x = 0}."""
    return _cycles(A, ())


def solve(A: IntMatrix, b: Sequence[int]) -> Optional[tuple]:
    """One integer solution x of A x = b, or None."""
    return smith(A).solve(b)


def solve_columns(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """Integer X with A X = B, or None if some column of B is not in the
    column lattice of A.  A is factored once for the whole block."""
    if B.rows != A.rows:
        raise ZExactError("rhs row count mismatch")
    if B.cols == 0:
        return IntMatrix.zero(A.cols, 0)
    sf = smith(A)
    cols = [sf.solve(b) for b in B.columns()]
    return None if None in cols else IntMatrix._from_columns(cols, A.cols)


def _reduce(cur: dict, pivots: Dict[int, dict]) -> Optional[dict]:
    """The coefficients {pivot: q} of the sparse vector `cur` (consumed) in the
    rows `pivots`, each keyed by its least column, or None outside their span."""
    coeffs = {}
    while cur:
        p = min(cur)
        row = pivots.get(p)
        if row is None or cur[p] % row[p]:
            return None
        q = coeffs[p] = cur[p] // row[p]
        _add_scaled(cur, row, -q)
    return coeffs


class Echelon:
    """Mutable integer row-echelon lattice, rows over a fixed index set.

    `pivots` maps each pivot column to its row, a {column: nonzero} dict
    whose least column is the pivot; a row holds no zero value and no
    column outside range(n).
    """

    __slots__ = ("n", "pivots")

    def __init__(self, n: int):
        guard_int(n, ZExactError, "an echelon's width must be a nonnegative integer, not {!r}", 0)
        self.n = n
        self.pivots: Dict[int, dict] = {}  # pivot column -> row

    def add(self, vec) -> bool:
        """Insert; returns True if the lattice grew or changed.  A vector
        already in the lattice reduces to 0 by exact divisions and leaves
        the rows as they were, so add(v) is `not contains(v)`."""
        if len(vec) != self.n:
            raise ZExactError("vector length mismatch")
        return self._insert(_nonzeros(vec))

    def _insert(self, cur: dict) -> bool:
        # Euclid on the leading entry: reduce by the pivot row there, and if
        # a remainder is left it becomes the pivot row and the displaced
        # row is reduced in turn.  `cur` holds only nonzero entries, so its
        # leading column is min(cur).
        pivots = self.pivots
        changed = False
        while cur:
            p = min(cur)
            row = pivots.get(p)
            if row is None:
                pivots[p] = cur
                return True
            q = cur[p] // row[p]
            if q:
                _add_scaled(cur, row, -q)
            if p in cur:
                # row[p] did not divide: swap roles and continue Euclid
                pivots[p], cur = cur, row
                changed = True
        return changed

    def contains(self, vec) -> bool:
        return _reduce(_nonzeros(vec), self.pivots) is not None

    def spans_all(self) -> bool:
        """True when the rows span Z^n: a pivot in every column, each ±1."""
        return len(self.pivots) == self.n and all(
            abs(row[p]) == 1 for p, row in self.pivots.items())

    def sparse_basis(self) -> list:
        """The stored {column: nonzero} rows, in pivot order."""
        return [self.pivots[p] for p in sorted(self.pivots)]

    def basis(self) -> list:
        """The rows as dense lists, in pivot order."""
        return [[r.get(i, 0) for i in range(self.n)] for r in self.sparse_basis()]


def _hermite(ech: Echelon, start: int) -> IntMatrix:
    """The Hermite basis of the lattice spanned by the rows of `ech` whose
    pivot is at `start` or later, read on the coordinates from `start` on.

    Those rows span exactly the vectors of the lattice that are zero before
    `start`.  Each is made positive at its pivot, and the entries above
    each pivot are reduced into [0, pivot); the result is unique, so equal
    lattices yield equal matrices."""
    out = []  # (pivot, row) read from `start` on, positive at the pivot
    for p in sorted(p for p in ech.pivots if p >= start):
        row = ech.pivots[p]
        s = 1 if row[p] > 0 else -1
        out.append((p - start, {i - start: s * x for i, x in row.items()}))
    for j, (pj, rj) in enumerate(out):
        for _, ri in out[:j]:
            q = ri.get(pj, 0) // rj[pj]
            if q:
                _add_scaled(ri, rj, -q)
    return IntMatrix._from_sparse_columns([r for _, r in out], ech.n - start)


def hnf_columns(A: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice of A (Hermite form).

    Zero columns are dropped; equal lattices yield equal matrices.
    """
    ech = Echelon(A.rows)
    for c in A.columns():
        ech.add(c)
    return _hermite(ech, 0)


def hermite_coords(H: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """The unique X with H X = B, or None when a column of B is outside the
    column lattice of H, read off by `_reduce` with no Smith form.  Each column
    of H must pivot (have its least nonzero) in a row of its own, as the
    Hermite bases of kernel, hnf_columns and _hermite do."""
    if H.rows != B.rows:
        raise ZExactError("rhs row count mismatch")
    pivots = {}
    for col in H.columns():
        row = _nonzeros(col)
        if not row or min(row) in pivots:
            raise ZExactError("basis columns must pivot in distinct rows")
        pivots[min(row)] = row
    index = {p: k for k, p in enumerate(pivots)}
    coords = [_reduce(_nonzeros(b), pivots) for b in B.columns()]
    if None in coords:
        return None
    return IntMatrix._from_sparse_columns(
        [{index[p]: q for p, q in c.items()} for c in coords], H.cols)


def map_echelon(h: IntMatrix, relations) -> Echelon:
    """The augmented echelon of the map h: the columns (h e_j ; e_j) and
    (rel ; 0) on the coordinates of h's target followed by those of its
    source, for `relations` a sequence of columns of length h.rows.

    Its vectors with a zero top part are exactly (0 ; x) with h x a sum of
    relations, and they are spanned by the rows pivoting in the bottom
    block: an echelon basis of the cycles at h's source.  The top parts of
    the other rows span the projection im h + span(relations) and pivot in
    distinct columns: an echelon basis of the boundaries at h's target."""
    m = h.rows
    ech = Echelon(m + h.cols)
    # the entries are nonzero and in range by construction
    for j, col in enumerate(h.columns()):
        entries = _nonzeros(col)
        entries[m + j] = 1
        ech._insert(entries)
    for col in relations:
        if len(col) != m:
            raise ZExactError("vector length mismatch")
        ech._insert(_nonzeros(col))
    return ech


def _cycles(g: IntMatrix, relations) -> IntMatrix:
    """Hermite basis of the lattice {x : g x in the span of `relations`},
    a sequence of columns of length g.rows (see map_echelon)."""
    return _hermite(map_echelon(g, relations), g.rows)


def exact_node(f_ech: Echelon, g_ech: Echelon, n: int) -> bool:
    """True exactly when ker g = im f + rel_B at a middle group B of n
    generators, for f_ech = map_echelon(f, rel_B) and
    g_ech = map_echelon(g, rel_C).

    The boundary rows are the rows of f_ech pivoting before n, read on the
    first n coordinates; the cycle rows are those of g_ech pivoting at
    m = g.rows or later, read from m on.  Echelon bases of one lattice
    share their pivot columns and their pivots up to sign.  So the answer
    is True when the two row sets pivot in the same columns, with pivots
    equal in absolute value, and every boundary row reduces to 0 among the
    cycle rows (the boundaries D lie in the cycles C): the change of basis
    from C to D is then triangular with a ±1 diagonal, and D = C.  False
    means D != C: the homology is not 0, or D is not contained in C
    (g∘f is not zero, or a relation of B is not a cycle)."""
    guard_int(n, ZExactError, "exact_node needs a generator count n with 0 <= n <= "
              "{0[1]}, not {0[0]!r}", 0, g_ech.n, shown=(n, g_ech.n))
    m = g_ech.n - n
    cyc = g_ech.pivots
    bnd = [(p, row) for p, row in f_ech.pivots.items() if p < n]
    if len(bnd) != sum(1 for p in cyc if p >= m):
        return False
    for p, row in bnd:
        c = cyc.get(p + m)
        if c is None or abs(c[p + m]) != abs(row[p]):
            return False
    # cycle rows have no entry before m, so the reduced rows keep none either
    return all(_reduce({i + m: x for i, x in row.items() if i < n}, cyc) is not None
               for _, row in bnd)


# ---------------------------------------------------------------------------
# Presented abelian groups
# ---------------------------------------------------------------------------

class AbGroupNF(NamedTuple("AbGroupNF", [("rank", int), ("torsion", tuple)])):
    """Canonical form Z^rank + Z/d1 + Z/d2 + ... with 1 < d1 | d2 | ..."""
    __slots__ = ()

    def __new__(cls, rank: int, torsion: tuple):
        for i, d in enumerate(torsion):
            if d <= 1:
                raise ZExactError("torsion entries must exceed 1")
            if i and d % torsion[i - 1] != 0:
                raise ZExactError("torsion divisibility chain violated")
        return tuple.__new__(cls, (rank, torsion))

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def is_free(self) -> bool:
        return not self.torsion

    def __str__(self):
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class Presentation:
    """Abelian group Z^generators / column span of the relation matrix."""

    __slots__ = ("generators", "relations", "_nf_cache")

    def __init__(self, generators: int, relations: Optional[IntMatrix] = None):
        guard_int(generators, ZExactError,
                  "a generator count must be a nonnegative integer, not {!r}", 0)
        if relations is None:
            relations = IntMatrix.zero(generators, 0)
        if relations.rows != generators:
            raise ZExactError("relation matrix must have one row per generator")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", relations)
        object.__setattr__(self, "_nf_cache", None)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Presentation is immutable")

    def __repr__(self):
        return f"Presentation({self.generators} gens, {self.relations.cols} rels)"

    @staticmethod
    def free(n: int) -> "Presentation":
        return Presentation(n)

    @staticmethod
    def zero() -> "Presentation":
        return Presentation(0)

    def with_extra_relations(self, extra: IntMatrix) -> "Presentation":
        return Presentation(self.generators, self.relations.hstack(extra))

    def pruned(self) -> Tuple["Presentation", IntMatrix, tuple]:
        """Tietze reduction: (P, to_new, kept) with P the same group on the
        generators `kept` of this presentation.

        While a relation has a ±1 entry s at a generator g, it reads
        g = -s·(rest of the relation): g is substituted by that in the other
        relations and dropped with the relation.  The pivot relation is the
        first of the sparsest relations with a unit entry, and its pivot the
        unit at the generator in the fewest relations, then the first, so
        that fill-in and entry growth stay small.  Relations that become
        zero are dropped.
        to_new (P.generators x self.generators) writes each old generator in
        the kept ones; the inverse is the inclusion of the kept generators,
        so to_new restricted to the kept columns is the identity.  Where no
        generator is eliminated, P is this presentation itself."""
        n = self.generators
        cols = [c for c in map(_nonzeros, self.relations.columns()) if c]
        subs = []  # (g, {h: coeff}): g = sum coeff·h when g was eliminated
        while True:
            with_unit = [k for k, c in enumerate(cols) if 1 in c.values() or -1 in c.values()]
            if not with_unit:
                break
            rel = cols.pop(min(with_unit, key=lambda k: len(cols[k])))
            g = min((g for g, x in rel.items() if x == 1 or x == -1),
                    key=lambda u: (sum(u in c for c in cols), u))
            s = rel.pop(g)
            expr = {i: -s * x for i, x in rel.items()}
            subs.append((g, expr))
            for c in cols:
                q = c.pop(g, 0)
                if q:
                    _add_scaled(c, expr, q)
            cols = [c for c in cols if c]
        if not subs:
            return self, IntMatrix.identity(n), tuple(range(n))
        gone = {g for g, _ in subs}
        kept = tuple(i for i in range(n) if i not in gone)
        new = {old: i for i, old in enumerate(kept)}
        images = {old: {i: 1} for old, i in new.items()}
        for g, expr in reversed(subs):
            img: dict = {}
            for h, q in expr.items():
                _add_scaled(img, images[h], q)
            images[g] = img
        m = len(kept)
        rels = [{new[i]: x for i, x in c.items()} for c in cols]
        return (Presentation(m, IntMatrix._from_sparse_columns(rels, m)),
                IntMatrix._from_sparse_columns([images[j] for j in range(n)], m), kept)

    def _smith(self) -> SmithForm:
        cache = self._nf_cache
        if cache is None:
            cache = smith(self.relations)
            object.__setattr__(self, "_nf_cache", cache)
        return cache

    def normal_form(self) -> AbGroupNF:
        sf = self._smith()
        diag = sf.diagonal()
        rank = self.generators - sum(1 for d in diag if d != 0)
        torsion = tuple(d for d in diag if d > 1)
        return AbGroupNF(rank, torsion)

    def class_vector(self, v: Sequence[int]) -> tuple:
        """Canonical coordinates of the class of v: torsion coords mod d,
        then free coords."""
        if len(v) != self.generators:
            raise ZExactError("vector length mismatch")
        sf = self._smith()
        diag = sf.diagonal()
        tors = []
        free = []
        for i in range(self.generators):
            d = diag[i] if i < len(diag) else 0
            if d == 0:
                free.append(sf._u_dot(i, v))
            elif d > 1:
                tors.append(sf._u_dot(i, v) % d)
        return tuple(tors) + tuple(free)

    def is_zero_class(self, v: Sequence[int]) -> bool:
        return all(c == 0 for c in self.class_vector(v))


def normal_form(P: Presentation) -> AbGroupNF:
    return P.normal_form()


class GroupHom(NamedTuple("GroupHom", [("source", Presentation), ("target", Presentation),
                                        ("matrix", IntMatrix)])):
    """Hom of presented groups, given by a matrix on generators."""
    __slots__ = ()

    def __new__(cls, source: Presentation, target: Presentation, matrix: IntMatrix):
        if matrix.rows != target.generators or matrix.cols != source.generators:
            raise ZExactError("hom matrix shape mismatch")
        return tuple.__new__(cls, (source, target, matrix))

    def is_well_defined(self) -> bool:
        R = self.source.relations
        return all(self.target.is_zero_class(self.matrix.apply(R.column(j)))
                   for j in range(R.cols))

    def is_zero_hom(self) -> bool:
        return all(self.target.is_zero_class(self.matrix.column(j))
                   for j in range(self.matrix.cols))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.target.generators != self.source.generators:
            raise ZExactError("compose shape mismatch")
        return GroupHom(other.source, self.target, self.matrix * other.matrix)

    def __neg__(self):
        return GroupHom(self.source, self.target, -self.matrix)

    def add(self, other: "GroupHom") -> "GroupHom":
        return GroupHom(self.source, self.target, self.matrix + other.matrix)

    @staticmethod
    def zero(source: Presentation, target: Presentation) -> "GroupHom":
        return GroupHom(source, target, IntMatrix.zero(target.generators, source.generators))

    @staticmethod
    def identity(P: Presentation) -> "GroupHom":
        return GroupHom(P, P, IntMatrix.identity(P.generators))


class HomologyResult(NamedTuple):
    group: AbGroupNF
    # presentation of ker(g)/im(f) in terms of a kernel lattice basis
    lattice_basis: IntMatrix      # columns: basis of the lifted cycle lattice
    quotient: Presentation        # ker/im presented on that basis

    def class_of(self, v: Sequence[int]) -> tuple:
        """Canonical class of an element of the middle group given by a
        coordinate vector in its generators.  The vector must be a cycle."""
        coords = hermite_coords(self.lattice_basis, IntMatrix(zip(v), len(v), 1))
        if coords is None:
            raise ZExactError("element is not a cycle")
        return self.quotient.class_vector(coords.column(0))


def subquotient_homology(f: GroupHom, g: GroupHom) -> HomologyResult:
    """Homology ker(g)/im(f) at the middle presented group.

    Requires g∘f = 0 as maps of presented groups.  A middle group with no
    generators has homology 0 on the empty cycle basis.  Otherwise the
    Hermite basis of the cycle lattice is read off the augmented echelon of
    g with the relations of C (map_echelon), with no Smith form.  A trivial
    homology is decided by exact_node against the augmented echelon of f
    with the relations of B; the columns of f are then cycles, which is
    g∘f = 0.  Otherwise the quotient relations are the hermite_coords of f's
    columns (None: g∘f is not 0) and of B's relations in the cycle basis, and
    only the quotient is factored.
    """
    if f.target is not g.source and f.target.generators != g.source.generators:
        raise ZExactError("homology maps not composable")
    B = g.source
    n = B.generators
    if n == 0:
        return HomologyResult(AbGroupNF(0, ()), IntMatrix.zero(0, 0), Presentation(0))
    g_ech = map_echelon(g.matrix, g.target.relations.columns())
    if exact_node(map_echelon(f.matrix, B.relations.columns()), g_ech, n):
        cyc = _hermite(g_ech, g.matrix.rows)
        return HomologyResult(AbGroupNF(0, ()), cyc,
                              Presentation(cyc.cols, IntMatrix.identity(cyc.cols)))
    return _inexact_homology(f, g, g_ech)


def _inexact_homology(f: GroupHom, g: GroupHom, g_ech: Echelon) -> HomologyResult:
    """subquotient_homology at a node that exact_node found not exact, from
    g's augmented echelon g_ech = map_echelon(g, rel_C)."""
    cyc = _hermite(g_ech, g.matrix.rows)
    images = hermite_coords(cyc, f.matrix)
    if images is None:
        raise CompositionNonZeroError("g∘f is not zero on presentations")
    rels = hermite_coords(cyc, g.source.relations)
    if rels is None:
        raise ZExactError("boundary not contained in cycles")
    quotient = Presentation(cyc.cols, images.hstack(rels))
    return HomologyResult(quotient.normal_form(), cyc, quotient)


# ---------------------------------------------------------------------------
# Z/2-graded groups and homs
# ---------------------------------------------------------------------------

class GradedGroup(NamedTuple):
    even: Presentation
    odd: Presentation

    def part(self, parity: int) -> Presentation:
        return self.even if parity % 2 == 0 else self.odd

    def normal_form(self) -> tuple:
        return (self.even.normal_form(), self.odd.normal_form())

    def is_trivial(self) -> bool:
        nf = self.normal_form()
        return nf[0].is_trivial() and nf[1].is_trivial()


def shift(G: GradedGroup) -> GradedGroup:
    """Degree shift [1]: swaps the two parities."""
    return GradedGroup(G.odd, G.even)


def graded_direct_sum(groups: Sequence[GradedGroup]) -> GradedGroup:
    """The direct sum; a single summand is returned itself, so its
    presentations keep their cached Smith forms."""
    if len(groups) == 1:
        return groups[0]
    ev_g = sum(g.even.generators for g in groups)
    od_g = sum(g.odd.generators for g in groups)
    ev_r = block_diag([g.even.relations for g in groups])
    od_r = block_diag([g.odd.relations for g in groups])
    return GradedGroup(Presentation(ev_g, ev_r), Presentation(od_g, od_r))


class GradedHom(NamedTuple("GradedHom", [("degree", int), ("from_even", GroupHom),
                                          ("from_odd", GroupHom)])):
    """Parity respecting map of graded groups.

    degree 0: from_even: even->even, from_odd: odd->odd
    degree 1: from_even: even->odd,  from_odd: odd->even
    """
    __slots__ = ()

    def __new__(cls, degree: int, from_even: GroupHom, from_odd: GroupHom):
        guard_int(degree, ZExactError, "degree must be 0 or 1, not {!r}", 0, 1)
        return tuple.__new__(cls, (degree, from_even, from_odd))

    @staticmethod
    def build(degree: int, source: GradedGroup, target: GradedGroup,
              even_part: IntMatrix, odd_part: IntMatrix) -> "GradedHom":
        if degree == 0:
            return GradedHom(0, GroupHom(source.even, target.even, even_part),
                             GroupHom(source.odd, target.odd, odd_part))
        return GradedHom(degree, GroupHom(source.even, target.odd, even_part),
                         GroupHom(source.odd, target.even, odd_part))

    @staticmethod
    def zero(degree: int, source: GradedGroup, target: GradedGroup) -> "GradedHom":
        ev_t = target.even if degree == 0 else target.odd
        od_t = target.odd if degree == 0 else target.even
        return GradedHom(degree, GroupHom.zero(source.even, ev_t),
                         GroupHom.zero(source.odd, od_t))

    @staticmethod
    def identity(G: GradedGroup) -> "GradedHom":
        return GradedHom(0, GroupHom.identity(G.even), GroupHom.identity(G.odd))

    def is_well_defined(self) -> bool:
        return self.from_even.is_well_defined() and self.from_odd.is_well_defined()

    def is_zero_hom(self) -> bool:
        return self.from_even.is_zero_hom() and self.from_odd.is_zero_hom()

    def compose(self, other: "GradedHom") -> "GradedHom":
        """self after other; parities route through the intermediate group."""
        if other.degree == 0:
            fe = self.from_even.compose(other.from_even)
            fo = self.from_odd.compose(other.from_odd)
        else:
            fe = self.from_odd.compose(other.from_even)
            fo = self.from_even.compose(other.from_odd)
        deg = (self.degree + other.degree) % 2
        return GradedHom(deg, fe, fo)

    def add(self, other: "GradedHom") -> "GradedHom":
        if self.degree != other.degree:
            raise ZExactError("parity mismatch in sum of graded homs")
        return GradedHom(self.degree, self.from_even.add(other.from_even),
                         self.from_odd.add(other.from_odd))

    def __neg__(self):
        return GradedHom(self.degree, -self.from_even, -self.from_odd)

    def shift(self) -> "GradedHom":
        """The same map between the shifted groups."""
        return GradedHom(self.degree, self.from_odd, self.from_even)

    def component(self, source_parity: int) -> GroupHom:
        return self.from_even if source_parity % 2 == 0 else self.from_odd
