import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from fktor.zexact import (
    AbGroupNF, CompositionNonZeroError, Echelon, GradedGroup, GradedHom,
    GroupHom, IntMatrix, Presentation, SmithForm, ZExactError, block_diag,
    graded_direct_sum, hermite_coords, hnf_columns, kernel, normal_form, shift,
    smith, solve, solve_columns, subquotient_homology,
)
import fktor.ntmod as ntmod
import fktor.zexact as zexact
from conftest import (hermite_dense, matrix_of_columns, smith_cycles, smith_dense,
                      smith_kernel)

PROPS = settings(derandomize=True, max_examples=80, deadline=None)


def det(A: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination, for the
    unimodularity and determinantal-divisor checks below."""
    if A.rows != A.cols:
        raise ZExactError("det of non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = [list(row) for row in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def M(rows):
    return IntMatrix(rows)


def rand_matrix(rng, rows, cols, lo=-4, hi=4):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


@st.composite
def int_matrices(draw, rows=None):
    m = draw(st.integers(0, 4)) if rows is None else rows
    n = draw(st.integers(0, 4))
    entry = st.integers(-4, 4)
    return IntMatrix([[draw(entry) for _ in range(n)] for _ in range(m)], m, n)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [1.5, True, "x", None, 2.0])
def test_public_constructor_rejects_non_integers(bad):
    with pytest.raises(ZExactError):
        IntMatrix([[1, 0], [bad, 1]])


@pytest.mark.parametrize("bad", [1.5, True, "x", None, 2.0])
def test_scale_refuses_a_factor_that_is_no_integer(bad):
    with pytest.raises(ZExactError, match="scaled by an integer"):
        IntMatrix([[1, 2]]).scale(bad)
    assert IntMatrix([[1, 2]]).scale(-3).data == ((-3, -6),)


@pytest.mark.parametrize("bad", [True, False, -1, 2.0, "2", None])
def test_counts_must_be_nonnegative_integers(bad):
    for make in (lambda: Presentation(bad), lambda: IntMatrix.zero(bad, 1),
                 lambda: IntMatrix.zero(1, bad), lambda: IntMatrix.identity(bad)):
        with pytest.raises(ZExactError, match="nonnegative integer"):
            make()
    assert Presentation(0).relations == IntMatrix.zero(0, 0) == IntMatrix.identity(0)
    assert IntMatrix.zero(2, 0).rows == 2 and IntMatrix.zero(0, 3).cols == 3


def test_public_constructor_checks_shape():
    assert IntMatrix([[1, -2], [0, 3]]).data == ((1, -2), (0, 3))
    with pytest.raises(ZExactError):
        IntMatrix([[1, 2], [3]])


def test_the_unchecked_constructors_are_private():
    """A matrix comes into zexact from outside through the checked
    IntMatrix(...) only; the column constructors, the sparse input of smith
    and the rows of U are trusted paths for data fktor built itself."""
    for owner, name in ((IntMatrix, "from_columns"), (IntMatrix, "from_sparse_columns"),
                        (SmithForm, "u_rows"), (zexact, "SparseMatrix")):
        assert not hasattr(owner, name), name


@PROPS
@given(int_matrices())
def test_the_column_constructors_rebuild_a_matrix_from_its_columns(A):
    cols = A.columns()
    assert IntMatrix._from_columns(cols, A.rows) == A == matrix_of_columns(cols, A.rows)
    assert IntMatrix._from_sparse_columns([zexact._nonzeros(c) for c in cols], A.rows) == A


@PROPS
@given(int_matrices(), int_matrices())
def test_internal_results_equal_checked_matrices(A, B):
    """Matrices built on the unchecked path compare and hash like the same
    entries passed through the public constructor."""
    checked = [A.transpose(), -A, A.scale(3), A.submatrix(range(A.rows), range(A.cols))]
    if (A.rows, A.cols) == (B.rows, B.cols):
        checked += [A + B, A - B]
    if A.cols == B.rows:
        checked.append(A * B)
    if A.rows == B.rows:
        checked.append(A.hstack(B))
    for X in checked:
        Y = IntMatrix(X.to_lists(), X.rows, X.cols)
        assert X == Y and hash(X) == hash(Y)


@st.composite
def block_grids(draw):
    """(grid, row_dims, col_dims) with zero-size rows and columns, None
    blocks, sometimes no column blocks and sometimes an empty grid."""
    row_dims = draw(st.lists(st.integers(0, 3), max_size=4))
    col_dims = draw(st.lists(st.integers(0, 3), max_size=4))
    if draw(st.integers(0, 5)) == 0:
        return [], row_dims, col_dims
    entry = st.integers(-4, 4)
    grid = [[None if draw(st.booleans()) else
             IntMatrix([[draw(entry) for _ in range(w)] for _ in range(h)], h, w)
             for w in col_dims] for h in row_dims]
    return grid, row_dims, col_dims


def dense_block(grid, row_dims, col_dims):
    """Reference layout: paste every given block into a zero matrix."""
    out = [[0] * sum(col_dims) for _ in range(sum(row_dims))]
    for i, brow in enumerate(grid):
        for j, b in enumerate(brow):
            if b is not None:
                r0, c0 = sum(row_dims[:i]), sum(col_dims[:j])
                for r in range(b.rows):
                    out[r0 + r][c0:c0 + b.cols] = b.row(r)
    return IntMatrix(out, sum(row_dims), sum(col_dims))


@PROPS
@given(block_grids())
def test_block_matches_pasting_into_zeros(args):
    grid, row_dims, col_dims = args
    B = IntMatrix.block(grid, row_dims, col_dims)
    want = dense_block(grid, row_dims, col_dims)
    assert B == want and hash(B) == hash(want)
    k = min(len(grid), len(col_dims))
    diag = [grid[i][i] for i in range(k)]
    want = dense_block([[b if i == j else None for j in range(k)]
                        for i, b in enumerate(diag)], row_dims[:k], col_dims[:k])
    assert block_diag(diag, row_dims[:k], col_dims[:k]) == want
    if all(b is not None for b in diag):
        assert block_diag(diag) == want


def test_block_rejects_a_block_that_does_not_fit():
    A = IntMatrix([[1, 2]])
    for grid, row_dims, col_dims in [
            ([[A, None]], [1], [1, 1]),  # too wide for its column
            ([[None, A]], [2], [1, 2]),  # too short for its row
            ([[A, None]], [1], [2]),  # more blocks than column sizes
            ([[A], [None]], [1], [2]),  # more block rows than row sizes
    ]:
        with pytest.raises(ZExactError):
            IntMatrix.block(grid, row_dims, col_dims)


def test_block_of_a_one_by_one_grid_is_the_block_itself():
    A = IntMatrix([[1, 2], [3, 4]])
    assert IntMatrix.block([[A]], [2], [2]) is A
    assert block_diag([A]) is A
    E = IntMatrix.zero(0, 3)
    assert IntMatrix.block([[E]], [0], [3]) is E
    # the size check still comes first
    for row_dims, col_dims in [([2], [3]), ([1], [2]), ([2, 0], [2]), ([2], [2, 0])]:
        with pytest.raises(ZExactError):
            IntMatrix.block([[A]], row_dims, col_dims)
    assert IntMatrix.block([[None]], [2], [2]) == IntMatrix.zero(2, 2)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_smith_zero_matrix():
    sf = smith(M([[0]]))
    assert sf.S == M([[0]])
    assert sf.U == M([[1]])
    assert sf.V == M([[1]])


def test_smith_identity():
    sf = smith(IntMatrix.identity(3))
    assert sf.S == IntMatrix.identity(3)
    assert sf.U == IntMatrix.identity(3)
    assert sf.V == IntMatrix.identity(3)


def test_smith_hand_example():
    # [[2,4],[6,8]]: row reduce by hand -> diag(2,4)
    sf = smith(M([[2, 4], [6, 8]]))
    assert sf.diagonal() == [2, 4]


@pytest.mark.parametrize("seed", range(30))
def test_smith_properties_random(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    A = rand_matrix(rng, rows, cols)
    sf = smith(A)
    assert sf.U * A * sf.V == sf.S
    assert abs(det(sf.U)) == 1
    assert abs(det(sf.V)) == 1
    diag = sf.diagonal()
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert sf.S[i, j] == 0
    for i, d in enumerate(diag):
        assert d >= 0
        if i and diag[i - 1] != 0 and d != 0:
            assert d % diag[i - 1] == 0
        if diag[i - 1] == 0 if i else False:
            assert d == 0


@PROPS
@given(int_matrices())
def test_smith_transforms_and_divisibility_property(A):
    sf = smith(A)
    assert sf.U * A * sf.V == sf.S
    assert abs(det(sf.U)) == 1
    assert abs(det(sf.V)) == 1
    diag = sf.diagonal()
    assert all(sf.S[i, j] == 0 for i in range(A.rows) for j in range(A.cols)
               if i != j)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0


def determinantal_divisors(A):
    """D_k = gcd of all k x k minors of A (0 if they all vanish), by
    cofactor-free Bareiss determinants; independent of the Smith code."""
    out = []
    for k in range(1, min(A.rows, A.cols) + 1):
        g = 0
        for rows in combinations(range(A.rows), k):
            for cols in combinations(range(A.cols), k):
                g = gcd(g, det(A.submatrix(rows, cols)))
        out.append(g)
    return out


@PROPS
@given(int_matrices())
def test_smith_diagonal_matches_determinantal_divisors(A):
    diag = smith(A).diagonal()
    prod = 1
    for d, D in zip(diag, determinantal_divisors(A)):
        prod *= d
        assert prod == D


def test_smith_determinantal_divisors_need_divisibility_fix():
    # diag(2, 3) is diagonal but not in Smith form: D_1 = 1, D_2 = 6
    assert determinantal_divisors(M([[2, 0], [0, 3]])) == [1, 6]
    assert smith(M([[2, 0], [0, 3]])).diagonal() == [1, 6]


@st.composite
def smith_inputs(draw):
    """Matrices of 0-8 rows and 0-8 columns, zero, sparse or dense, some
    with zero rows and columns, some with every entry a multiple of 2, 3 or
    6 (no unit pivot anywhere)."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = draw(st.sampled_from((st.just(0), st.sampled_from((0, 0, 0, 1, -1, 2, -3)),
                                  st.integers(-9, 9))))
    scale = draw(st.sampled_from((1, 1, 2, 3, 6)))
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    return IntMatrix([[0 if i in zero_rows or j in zero_cols else scale * draw(entry)
                       for j in range(n)] for i in range(m)], m, n)


def assert_matches_dense(A):
    sf, ref = smith(A), smith_dense(A)
    assert (sf.U, sf.S, sf.V) == (ref.U, ref.S, ref.V)
    assert sf.diagonal() == [ref.S[i, i] for i in range(min(A.rows, A.cols))]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(smith_inputs())
def test_sparse_smith_equals_the_dense_engine(A):
    """Same pivots, same operations: U, S and V equal the dense engine's."""
    assert_matches_dense(A)


@pytest.mark.parametrize("rows", [
    [[2, 0], [0, 3]], [[2, 4], [6, 8]], [[0, 0, 0], [0, 4, 0]], [[6, 4], [4, 6], [0, 2]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 5]], [[0]], [[0, 0], [0, 0]]])
def test_sparse_smith_equals_the_dense_engine_on_fix_ups(rows):
    assert_matches_dense(M(rows))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 8), (8, 1)])
def test_sparse_smith_equals_the_dense_engine_on_empty_and_thin_shapes(shape):
    assert_matches_dense(IntMatrix.zero(*shape))
    assert_matches_dense(IntMatrix([[(i + 2 * j) % 3 for j in range(shape[1])]
                                    for i in range(shape[0])], *shape))


@st.composite
def sparse_inputs(draw):
    """The {column: nonzero} rows of a 0-8 by 0-8 matrix, some rows empty,
    each drawn with its columns in any order; the entries lie in -9..9 and
    are sometimes all multiples of 2 or 3 (no unit pivot anywhere)."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    scale = draw(st.sampled_from((1, 1, 2, 3)))
    value = st.integers(-9, 9).filter(bool).map(lambda x: scale * x)
    rows = [draw(st.dictionaries(st.integers(0, n - 1), value, max_size=n)) if n else {}
            for _ in range(m)]
    return rows, m, n


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sparse_inputs())
def test_smith_of_a_sparse_matrix_equals_smith_of_the_dense_one(entries):
    """A _SparseMatrix built from the columns of a matrix is factored as its
    dense IntMatrix is, and as the dense engine factors it; its rows are the
    matrix's in increasing column order, and its `data` is that matrix."""
    rows, m, n = entries
    cols = [{i: r[j] for i, r in enumerate(rows) if j in r} for j in range(n)]
    A = zexact._SparseMatrix(cols, m)
    D = IntMatrix([[r.get(j, 0) for j in range(n)] for r in rows], m, n)
    sf, dense, ref = smith(A), smith(D), smith_dense(D)
    assert (sf.U, sf.S, sf.V) == (dense.U, dense.S, dense.V) == (ref.U, ref.S, ref.V)
    assert sf.diagonal() == dense.diagonal() == [ref.S[i, i] for i in range(min(m, n))]
    assert [list(r.items()) for r in A.sparse_rows()] == \
        [sorted(r.items()) for r in rows]
    assert (A.rows, A.cols, A.data) == (m, n, D.data)


def test_a_sparse_matrix_keeps_its_rows_in_column_order_and_hands_out_copies():
    cols = [{0: -2}, {}, {0: 5}]
    A = zexact._SparseMatrix(cols, 2)
    cols[1][0] = 7
    out = A.sparse_rows()
    assert out == [{0: -2, 2: 5}, {}] and list(out[0]) == [0, 2]
    out[0].clear()
    assert smith(A).diagonal() == [1, 0]
    assert A._data is None  # smith read the sparse rows only
    assert A.sparse_rows()[0] == {0: -2, 2: 5}
    assert A.data == ((-2, 0, 5), (0, 0, 0)) and A.data is A.data


def test_dense_transforms_are_built_once_on_first_read():
    sf = smith(M([[2, 4], [6, 8]]))
    assert "U" not in vars(sf) and "V" not in vars(sf)
    U, V = sf.U, sf.V
    assert sf.U is U and sf.V is V and sf.S is sf.S
    assert sf._u_rows(1, 2) == U.submatrix([1], [0, 1])


# ---------------------------------------------------------------------------
# Kernels and solving
# ---------------------------------------------------------------------------

def test_kernel_row_vector():
    K = kernel(M([[1, 1, 1]]))
    assert K.cols == 2
    A = M([[1, 1, 1]])
    assert (A * K).is_zero()


def test_kernel_identity_empty():
    assert kernel(IntMatrix.identity(4)).cols == 0


def test_kernel_hand_example():
    K = kernel(M([[2, 2], [2, 2]]))
    assert K.cols == 1
    v = K.column(0)
    assert v in ((1, -1), (-1, 1))


@pytest.mark.parametrize("seed", range(20))
def test_kernel_rank_nullity(seed):
    rng = random.Random(100 + seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    A = rand_matrix(rng, rows, cols)
    K = kernel(A)
    assert (A * K).is_zero()
    assert K.cols + smith(A).rank() == cols


def test_solve_existing_and_missing():
    A = M([[2, 0], [0, 3]])
    assert solve(A, (4, 9)) == (2, 3)
    assert solve(A, (1, 0)) is None


def test_hnf_columns_canonical():
    a = hnf_columns(M([[2, 4], [0, 0]]))
    b = hnf_columns(M([[4, 2, 6], [0, 0, 0]]))
    assert a == b
    assert a.column(0) == (2, 0)


@PROPS
@given(int_matrices(), st.randoms(use_true_random=False))
def test_hnf_columns_ignores_order_and_redundant_generators(A, rnd):
    cols = A.columns()
    if cols:
        cols += [cols[0], tuple(x + y for x, y in zip(cols[0], cols[-1]))]
    rnd.shuffle(cols)
    assert hnf_columns(matrix_of_columns(cols, A.rows)) == hnf_columns(A)


def test_solve_columns_block():
    A = M([[2, 0], [0, 3]])
    B = M([[4, 2], [9, -3]])
    X = solve_columns(A, B)
    assert X == M([[2, 1], [3, -1]])
    assert A * X == B
    # one column outside the lattice spoils the whole block
    assert solve_columns(A, M([[4, 1], [9, 0]])) is None


def test_solve_columns_empty_shapes():
    A = M([[2, 0], [0, 3]])
    assert solve_columns(A, IntMatrix.zero(2, 0)) == IntMatrix.zero(2, 0)
    no_cols = IntMatrix.zero(2, 0)
    assert solve_columns(no_cols, IntMatrix.zero(2, 3)) == IntMatrix.zero(0, 3)
    assert solve_columns(no_cols, M([[1], [0]])) is None


@st.composite
def rhs_blocks(draw):
    """A with a block B = A X, sometimes followed by arbitrary columns."""
    A = draw(int_matrices())
    B = A * draw(int_matrices(rows=A.cols))
    if draw(st.booleans()):
        B = B.hstack(draw(int_matrices(rows=A.rows)))
    return A, B


@PROPS
@given(rhs_blocks())
def test_solve_columns_agrees_with_solve(AB):
    A, B = AB
    X = solve_columns(A, B)
    per_column = [solve(A, B.column(j)) for j in range(B.cols)]
    if any(x is None for x in per_column):
        assert X is None
    else:
        assert X == matrix_of_columns(per_column, A.cols)
        assert A * X == B


def test_echelon_add_reports_growth():
    e = Echelon(2)
    assert e.add([2, 0])
    assert not e.add([4, 0])      # already in the lattice
    assert not e.add([0, 0])
    assert e.add([3, 0])          # refines the lattice to Z(1, 0)
    assert e.basis() == [[1, 0]]
    assert e.contains([5, 0]) and not e.contains([0, 1])


class DenseEchelon:
    """Reference insertion: dense rows, leading entry found by a scan from
    index 0, whole-row subtraction; the oracle for the sparse Echelon."""

    def __init__(self):
        self.pivots = {}

    def add(self, vec) -> bool:
        cur = list(vec)
        changed = False
        while True:
            p = next((i for i, x in enumerate(cur) if x), None)
            if p is None:
                return changed
            row = self.pivots.get(p)
            if row is None:
                self.pivots[p] = cur
                return True
            q = cur[p] // row[p]
            if q:
                cur = [a - q * b for a, b in zip(cur, row)]
            if cur[p]:
                self.pivots[p], cur = cur, row
                changed = True

    def contains(self, vec) -> bool:
        cur = list(vec)
        for p in sorted(self.pivots):
            if cur[p]:
                row = self.pivots[p]
                if cur[p] % row[p]:
                    return False
                q = cur[p] // row[p]
                cur = [a - q * b for a, b in zip(cur, row)]
        return not any(cur)


@st.composite
def vector_streams(draw):
    """A length n and a stream of vectors of that length: mostly sparse
    0/±1 vectors (word coordinates), some dense ones with small entries."""
    n = draw(st.integers(1, 40))
    count = draw(st.integers(0, 60))
    stream = []
    for _ in range(count):
        if draw(st.integers(0, 4)):
            vec = [0] * n
            for i in draw(st.lists(st.integers(0, n - 1), max_size=4)):
                vec[i] += draw(st.sampled_from((-1, 1)))
        else:
            vec = [draw(st.integers(-3, 3)) for _ in range(n)]
        stream.append(vec)
    return n, stream


@PROPS
@given(vector_streams())
def test_sparse_echelon_matches_dense_reference(ns):
    n, stream = ns
    ech, ref = Echelon(n), DenseEchelon()
    for vec in stream:
        assert ech.add(vec) == ref.add(vec)
        assert_same_rows(ech, ref)
    for vec in stream[:5] + [[1] * n, [2] + [0] * (n - 1)]:
        assert ech.contains(vec) == ref.contains(vec)
    # contains leaves the rows as they were: add alone ends alike
    fresh = Echelon(n)
    for vec in stream:
        fresh.add(vec)
    assert_same_rows(fresh, ref)


@PROPS
@given(vector_streams())
def test_add_changes_the_echelon_exactly_when_the_vector_lies_outside(ns):
    """add(v) == not contains(v), and a vector inside the lattice leaves the
    rows as they were: each vector of the stream is followed by a
    combination of it and the one before, which lies inside."""
    n, stream = ns
    ech = Echelon(n)
    for a, b in zip(stream, [[0] * n] + stream):
        for vec in (a, [2 * x - 3 * y for x, y in zip(a, b)]):
            inside = ech.contains(vec)
            before = {p: dict(row) for p, row in ech.pivots.items()}
            assert ech.add(vec) == (not inside)
            if inside:
                assert ech.pivots == before


def assert_same_rows(ech, ref):
    """The sparse rows of `ech` have the pivots of the DenseEchelon `ref`,
    and each equals its dense row entry for entry."""
    assert ech.pivots.keys() == ref.pivots.keys()
    for p, row in ech.pivots.items():
        assert [row.get(i, 0) for i in range(ech.n)] == ref.pivots[p]


@PROPS
@given(vector_streams())
def test_stored_rows_hold_only_nonzeros_in_range(ns):
    n, stream = ns
    ech = Echelon(n)
    for vec in stream:
        ech.add(vec)
        for p, row in ech.pivots.items():
            assert all(row.values())
            assert min(row) == p >= 0 and max(row) < n


@PROPS
@given(vector_streams(), st.integers(0, 60))
@example((3, [[-2, 1, 0], [0, -3, 1], [-1, 0, 2], [4, -1, -1]]), 2)
def test_hermite_bases_match_the_dense_oracle(ns, k):
    """hnf_columns of the stream, and kernel and _cycles of the matrix g of
    its first k vectors (the rest as relations), equal the dense Hermite
    reduction of a DenseEchelon holding the same vectors; kernel and
    _cycles read it from start = g.rows on."""
    n, stream = ns
    ref = DenseEchelon()
    for vec in stream:
        ref.add(vec)
    assert hnf_columns(matrix_of_columns(stream, n)) == \
        hermite_dense(ref.pivots, n, 0)
    k = min(k, len(stream))
    g, rels = matrix_of_columns(stream[:k], n), stream[k:]
    ref = DenseEchelon()
    for j, col in enumerate(stream[:k]):
        ref.add(list(col) + [int(i == j) for i in range(k)])
    assert kernel(g) == hermite_dense(ref.pivots, n + k, n)
    for rel in rels:
        ref.add(list(rel) + [0] * k)
    assert zexact._cycles(g, rels) == hermite_dense(ref.pivots, n + k, n)


@PROPS
@given(vector_streams(), st.integers(0, 40))
@example((2, [[1, 0], [0, 2]]), 2)
@example((3, [[1, 2, 3], [0, -1, 5], [0, 0, -1]]), 3)
def test_an_echelon_spans_all_exactly_when_its_smith_diagonal_is_all_units(ns, k):
    """The stream, then the unit vectors e_k, ..., e_(n-1): `spans_all` (a
    pivot ±1 in every column) holds exactly when the Smith form of the
    basis matrix has n unit diagonal entries, and then its cokernel
    projection _u_rows(n, n) is the empty 0×n matrix."""
    n, stream = ns
    ech = Echelon(n)
    for vec in stream + [[int(i == j) for i in range(n)] for j in range(k, n)]:
        ech.add(vec)
    R = matrix_of_columns(ech.basis(), n)
    S = smith_dense(R).S
    units = sum(1 for i in range(min(R.rows, R.cols)) if S.data[i][i] == 1)
    assert ech.spans_all() == (units == n)
    if ech.spans_all():
        assert smith(R)._u_rows(n, n) == IntMatrix.zero(0, n)


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

def test_normal_form_hand_examples():
    # SNF diag(2,0): Z + Z/2
    assert normal_form(Presentation(2, M([[2, 2], [2, 2]]))) == AbGroupNF(1, (2,))
    # free on 3 generators
    assert normal_form(Presentation(3)) == AbGroupNF(3, ())
    # SNF diag(1,0): Z
    assert normal_form(Presentation(2, M([[1, 1], [1, 1]]))) == AbGroupNF(1, ())


def test_normal_form_string():
    assert str(AbGroupNF(1, (2,))) == "Z^1 + Z/2"
    assert str(AbGroupNF(0, ())) == "0"


@pytest.mark.parametrize("seed", range(100))
def test_normal_form_unimodular_invariance(seed):
    # random unimodular row/column operations leave the group unchanged
    rng = random.Random(200 + seed)
    n, m = rng.randint(1, 4), rng.randint(0, 4)
    R = rand_matrix(rng, n, m)
    before = normal_form(Presentation(n, R))
    rows = [list(r) for r in R.data]
    for _ in range(6):
        if m and rng.random() < 0.5:
            j, k = rng.randrange(m), rng.randrange(m)
            if j != k:
                q = rng.randint(-2, 2)
                for i in range(n):
                    rows[i][j] += q * rows[i][k]
        elif n > 1:
            i, k = rng.randrange(n), rng.randrange(n)
            if i != k:
                q = rng.randint(-2, 2)
                # row op on relations = change of generating set
                for j in range(m):
                    rows[i][j] += q * rows[k][j]
    after = normal_form(Presentation(n, IntMatrix(rows, n, m)))
    assert before == after


def test_class_vector():
    P = Presentation(2, M([[2, 0], [0, 0]]))  # Z/2 + Z
    assert P.is_zero_class((2, 0))
    assert not P.is_zero_class((1, 0))
    assert not P.is_zero_class((0, 5))


# ---------------------------------------------------------------------------
# Homs and homology
# ---------------------------------------------------------------------------

def test_group_hom_well_defined():
    Z2 = Presentation(1, M([[2]]))
    Z = Presentation(1)
    ok = GroupHom(Z2, Z2, M([[3]]))
    assert ok.is_well_defined()
    bad = GroupHom(Z2, Z, M([[1]]))  # Z/2 -> Z by 1 is not a hom
    assert not bad.is_well_defined()


def test_homology_free_case():
    B = Presentation.free(2)
    f = GroupHom.zero(Presentation.zero(), B)
    g = GroupHom.zero(B, Presentation.zero())
    res = subquotient_homology(f, g)
    assert res.group == AbGroupNF(2, ())


def test_homology_exact_complex_trivial():
    Z = Presentation.free(1)
    f = GroupHom.identity(Z)
    g = GroupHom.zero(Z, Presentation.zero())
    res = subquotient_homology(f, g)
    assert res.group.is_trivial()


def test_homology_rejects_nonzero_composite():
    Z = Presentation.free(1)
    f = GroupHom.identity(Z)
    with pytest.raises(CompositionNonZeroError):
        subquotient_homology(f, f)


def test_homology_with_torsion_targets():
    # Z --2--> Z --proj--> Z/2 has homology ker/im = 2Z/2Z = 0 at the middle
    Z = Presentation.free(1)
    Z2 = Presentation(1, M([[2]]))
    f = GroupHom(Z, Z, M([[2]]))
    g = GroupHom(Z, Z2, M([[1]]))
    res = subquotient_homology(f, g)
    assert res.group.is_trivial()


def test_homology_witness_class():
    # 0 -> Z^2 --(2id)--> Z^2: homology (Z/2)^2, witness (1,0) nonzero
    B = Presentation.free(2)
    f = GroupHom(B, B, M([[2, 0], [0, 2]]))
    g = GroupHom.zero(B, Presentation.zero())
    res = subquotient_homology(f, g)
    assert res.group == AbGroupNF(0, (2, 2))
    assert any(c for c in res.class_of((1, 0)))
    assert not any(c for c in res.class_of((2, 0)))


@pytest.mark.parametrize("v", [[2.0, True], [1, True], [1, "1"], [1, None]])
def test_class_of_refuses_a_vector_that_is_not_integral(v):
    free = subquotient_homology(GroupHom.zero(Presentation.zero(), Presentation.free(2)),
                                GroupHom.zero(Presentation.free(2), Presentation.zero()))
    assert free.class_of([2, 1]) == (2, 1)
    with pytest.raises(ZExactError, match="matrix entries must be integers"):
        free.class_of(v)


def test_class_of_never_factors_the_cycle_basis(monkeypatch):
    B = Presentation.free(2)
    f = GroupHom(B, B, M([[2, 0], [0, 4]]))
    g = GroupHom.zero(B, Presentation.zero())
    calls = []
    real = zexact.smith
    monkeypatch.setattr(zexact, "smith", lambda A: calls.append(A) or real(A))
    res = subquotient_homology(f, g)
    before = len(calls)
    assert res.class_of((1, 1)) == (1, 1)
    assert res.class_of((3, 2)) == (1, 2)
    # coordinates come off the Hermite cycle basis by reduction, and the
    # quotient keeps the Smith form its normal form made
    assert len(calls) == before
    assert not any(A == res.lattice_basis for A in calls)
    C = Presentation(2, M([[0], [1]]))
    h = subquotient_homology(GroupHom.zero(Presentation.zero(), B),
                             GroupHom(B, C, M([[1, 0], [0, 1]])))
    with pytest.raises(ZExactError, match="element is not a cycle"):
        h.class_of((1, 0))


def test_homology_never_factors_its_cycle_basis(monkeypatch):
    calls = []
    real = zexact.smith
    monkeypatch.setattr(zexact, "smith", lambda A: calls.append(A) or real(A))
    B = Presentation.free(2)
    # boundaries to express in the cycle basis: they are reduced in it, and
    # the one Smith form is the quotient's, which class_of reuses
    res = subquotient_homology(GroupHom(B, B, M([[2, 0], [0, 4]])),
                               GroupHom.zero(B, Presentation.zero()))
    assert calls == [res.quotient.relations]
    assert res.class_of((1, 3)) == (1, 3)
    assert len(calls) == 1
    # no boundaries (no f columns, free middle group): the same, with the
    # empty relation block
    calls.clear()
    empty = subquotient_homology(GroupHom.zero(Presentation.zero(), B),
                                 GroupHom.zero(B, Presentation.zero()))
    assert calls == [empty.quotient.relations] == [IntMatrix.zero(2, 0)]
    assert empty.class_of((5, -1)) == (5, -1)
    assert len(calls) == 1
    assert not any(A == empty.lattice_basis for A in calls)


@st.composite
def lattice_matrices(draw, rows=None, cols=None):
    """Matrices of up to 6 rows and columns (either may be 0) that are all
    zero, sparse or dense."""
    m = draw(st.integers(0, 6)) if rows is None else rows
    n = draw(st.integers(0, 6)) if cols is None else cols
    entry = draw(st.sampled_from((st.just(0), st.sampled_from((0, 0, 0, 1, -1, 2, -3)),
                                  st.integers(-6, 6))))
    return IntMatrix([[draw(entry) for _ in range(n)] for _ in range(m)], m, n)


def assert_hermite(H):
    """Column echelon form with positive pivots and every entry beside a
    pivot reduced into [0, pivot): the defining shape of the Hermite form."""
    pivots = []
    for j, col in enumerate(H.columns()):
        p = next(i for i, x in enumerate(col) if x)
        assert col[p] > 0 and (not pivots or p > pivots[-1])
        pivots.append(p)
        assert all(0 <= H[p, i] < col[p] for i in range(j))


@PROPS
@given(lattice_matrices())
def test_kernel_matches_the_smith_oracle(A):
    K = kernel(A)
    assert K == smith_kernel(A)
    assert (A * K).is_zero()
    assert_hermite(K)
    assert_hermite(hnf_columns(A))


@st.composite
def hermite_systems(draw):
    """A Hermite basis H, hnf_columns(A) or kernel(A), and a block B of its
    height: combinations of the columns of H, sometimes followed by drawn
    columns, which may lie outside the lattice."""
    A = draw(lattice_matrices())
    H = draw(st.sampled_from((hnf_columns, kernel)))(A)
    B = H * draw(lattice_matrices(rows=H.cols))
    if draw(st.booleans()):
        B = B.hstack(draw(lattice_matrices(rows=H.rows)))
    return H, B


@PROPS
@given(hermite_systems())
@example((M([[2, 0], [1, 3]]), M([[2], [4]])))
@example((M([[2, 0], [1, 3]]), M([[2], [2]])))
def test_hermite_coords_match_the_smith_solve(HB):
    """The reduction gives the Smith oracle's solution, which is unique,
    or None exactly when the oracle has none."""
    H, B = HB
    X = hermite_coords(H, B)
    assert X == solve_columns(H, B)
    if X is not None:
        assert H * X == B


def test_hermite_coords_need_distinct_pivots_and_equal_heights():
    for H in (M([[1, 2], [0, 1]]),    # both columns pivot in row 0
              M([[1, 0], [0, 0]]),    # a zero column has no pivot
              IntMatrix.zero(0, 1)):
        with pytest.raises(ZExactError, match="pivot in distinct rows"):
            hermite_coords(H, IntMatrix.zero(H.rows, 1))
    with pytest.raises(ZExactError, match="row count mismatch"):
        hermite_coords(IntMatrix.identity(2), M([[1]]))


@st.composite
def homology_pairs(draw):
    """Composable f: A -> B, g: B -> C with g∘f = 0, relations on all three
    groups, B possibly empty.  The relations of B and the columns of f are
    cycles; with `trivial` the relations of B span all of them."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    entry = st.integers(-3, 3)

    def mat(rows, cols):
        return IntMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)],
                         rows, cols)

    RC = mat(c, draw(st.integers(0, 2)))
    gm = mat(c, b)
    K = smith_kernel(gm.hstack(RC))
    cyc = K.submatrix(range(b), range(K.cols))
    trivial = draw(st.booleans())
    rb = mat(cyc.cols, draw(st.integers(0, 2)))
    if trivial:
        rb = IntMatrix.identity(cyc.cols).hstack(rb)
    A = Presentation(a, mat(a, draw(st.integers(0, 2))))
    B = Presentation(b, cyc * rb)
    C = Presentation(c, RC)
    return GroupHom(A, B, cyc * mat(cyc.cols, a)), GroupHom(B, C, gm), trivial


def reference_cycle_basis(g):
    """The Hermite basis of the cycles of g, read off a Smith form."""
    return smith_cycles(g.matrix, g.target.relations)


@st.composite
def wide_homology_pairs(draw):
    """f: A -> B, g: B -> C with g∘f = 0, all three groups of up to 6
    generators with relations, the matrices zero, sparse or dense.  The
    relations of B and the columns of f are combinations of cycles."""
    g = draw(lattice_matrices())
    RC = draw(lattice_matrices(rows=g.rows))
    cyc = smith_cycles(g, RC)
    F = draw(lattice_matrices(rows=cyc.cols))
    A = Presentation(F.cols, draw(lattice_matrices(rows=F.cols)))
    B = Presentation(g.cols, cyc * draw(lattice_matrices(rows=cyc.cols)))
    return GroupHom(A, B, cyc * F), GroupHom(B, Presentation(g.rows, RC), g)


def _smith_homology(f, g):
    """ker(g)/im(f) the long way: the boundaries solved in the cycle basis."""
    cyc = reference_cycle_basis(g)
    rels = solve_columns(cyc, f.matrix.hstack(g.source.relations))
    return Presentation(cyc.cols, rels).normal_form()


@PROPS
@given(homology_pairs())
def test_homology_matches_the_smith_path(pair):
    f, g, trivial = pair
    res = subquotient_homology(f, g)
    assert res.group == _smith_homology(f, g)
    if trivial:
        assert res.group.is_trivial()
    # class queries work on a result decided by the Hermite test as well
    for j in range(res.lattice_basis.cols):
        cls = res.class_of(res.lattice_basis.column(j))
        assert len(cls) == res.group.rank + len(res.group.torsion)
        if res.group.is_trivial():
            assert cls == ()


@PROPS
@given(wide_homology_pairs())
def test_homology_matches_the_smith_oracle(pair):
    f, g = pair
    res = subquotient_homology(f, g)
    assert res.lattice_basis == reference_cycle_basis(g)
    assert res.group == _smith_homology(f, g)


@PROPS
@given(homology_pairs())
def test_cycle_basis_is_read_off_one_factorisation(pair):
    f, g, _ = pair
    assert subquotient_homology(f, g).lattice_basis == reference_cycle_basis(g)


def test_zero_middle_group_gives_the_general_result(monkeypatch):
    calls = []
    real = zexact.smith
    monkeypatch.setattr(zexact, "smith", lambda A: calls.append(A) or real(A))
    Z0 = Presentation.zero()
    for a, c in [(0, 0), (2, 0), (0, 3), (2, 3)]:
        A = Presentation(a, IntMatrix.identity(a).scale(2))
        C = Presentation(c, IntMatrix.identity(c).scale(5))
        res = subquotient_homology(GroupHom.zero(A, Z0), GroupHom.zero(Z0, C))
        assert not calls
        # what the general path gave: the 0x0 cycle basis, presenting 0
        assert res.group == AbGroupNF(0, ())
        assert res.lattice_basis == reference_cycle_basis(GroupHom.zero(Z0, C)) \
            == IntMatrix.zero(0, 0)
        assert res.quotient.generators == 0
        assert res.quotient.relations == IntMatrix.identity(0)
        assert res.class_of(()) == ()
        calls.clear()
    # a middle group of 0 generators on one side only is still a mismatch
    with pytest.raises(ZExactError, match="homology maps not composable"):
        subquotient_homology(GroupHom.zero(Z0, Z0),
                             GroupHom.zero(Presentation.free(1), Z0))
    with pytest.raises(ZExactError, match="homology maps not composable"):
        subquotient_homology(GroupHom.zero(Z0, Presentation.free(1)),
                             GroupHom.zero(Z0, Z0))


def test_homology_raises_on_a_non_complex():
    Z = Presentation.free(1)
    Z2 = Presentation(1, M([[2]]))
    with pytest.raises(CompositionNonZeroError):
        subquotient_homology(GroupHom.identity(Z), GroupHom.identity(Z))
    # g: Z/2 -> Z by 1 is not defined on the relation of Z/2
    with pytest.raises(ZExactError, match="boundary not contained in cycles"):
        subquotient_homology(GroupHom.zero(Presentation.zero(), Z2),
                             GroupHom(Z2, Z, M([[1]])))
    # f lands in Z^2, g starts at Z
    with pytest.raises(ZExactError, match="homology maps not composable"):
        subquotient_homology(GroupHom.zero(Z, Presentation.free(2)),
                             GroupHom.identity(Z))


def test_homology_factors_only_nonzero_homology(monkeypatch):
    calls = []
    real = zexact.smith
    monkeypatch.setattr(zexact, "smith", lambda A: calls.append(A) or real(A))
    B = Presentation.free(2)
    C = Presentation(1, M([[3]]))
    g = GroupHom(B, C, M([[3, 0]]))
    # exact: the boundaries 2e1 + e2, e1 + e2 span the cycles Z^2; the
    # cycles come from an echelon, and nothing is factored, not even C for
    # the g∘f = 0 check
    res = subquotient_homology(GroupHom(B, B, M([[2, 1], [1, 1]])), g)
    assert res.group.is_trivial()
    assert len(calls) == 0
    # not exact: the boundaries are reduced in the cycle basis and g∘f = 0
    # is read off that reduction, so only the quotient is factored
    calls.clear()
    res = subquotient_homology(GroupHom(B, B, M([[2, 0], [0, 4]])), g)
    assert res.group == AbGroupNF(0, (2, 4))
    assert calls == [res.quotient.relations]


@st.composite
def free_node_pairs(draw):
    """f: A -> B, g: B -> C of up to 3 generators each, every matrix and
    relation drawn freely: g∘f = 0, and the relations of B being cycles,
    hold only by chance."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))

    def mat(rows, cols):
        return draw(lattice_matrices(rows=rows, cols=cols))

    A, B, C = (Presentation(k, mat(k, draw(st.integers(0, 2)))) for k in (a, b, c))
    return GroupHom(A, B, mat(b, a)), GroupHom(B, C, mat(c, b))


def _outcome(run):
    """The group a homology routine returns, or the type and message of the
    error it raises."""
    try:
        return run()
    except ZExactError as e:
        return type(e), str(e)


def _reference_node(f, g):
    """What subquotient_homology(f, g) must give, found without it: the
    error for a composite g∘f that is not 0, or for a relation of B that is
    not a cycle, else the homology solved in a Smith cycle basis."""
    if not g.source.generators:
        return AbGroupNF(0, ())
    if not g.compose(f).is_zero_hom():
        return CompositionNonZeroError, "g∘f is not zero on presentations"
    if not g.is_well_defined():
        return ZExactError, "boundary not contained in cycles"
    return _smith_homology(f, g)


def _echelon(h):
    return zexact.map_echelon(h.matrix, h.target.relations.columns())


@PROPS
@given(st.one_of(homology_pairs().map(lambda p: p[:2]), wide_homology_pairs(),
                 free_node_pairs()))
@example((GroupHom(Presentation.zero(), Presentation.free(1), M([[]])),
          GroupHom(Presentation.free(1), Presentation.free(1), M([[0]]))))
@example((GroupHom(Presentation.free(1), Presentation.free(1), M([[2]])),
          GroupHom(Presentation.free(1), Presentation.zero(), IntMatrix.zero(0, 1))))
@example((GroupHom(Presentation.free(1), Presentation.free(2), M([[1], [1]])),
          GroupHom(Presentation.free(2), Presentation.free(1), M([[0, 1]]))))
def test_exact_node_decides_exactly_the_zero_homology(pair):
    """exact_node on the two augmented echelons says True exactly when the
    homology is 0, and never when subquotient_homology must raise (g∘f is
    not 0, or a relation of B is not a cycle); subquotient_homology and the
    node routine of ntmod return the reference group or raise its error."""
    f, g = pair
    expected = _reference_node(f, g)
    if g.source.generators:
        decided = zexact.exact_node(_echelon(f), _echelon(g), g.source.generators)
        assert decided == (expected == AbGroupNF(0, ()))
    assert _outcome(lambda: subquotient_homology(f, g).group) == expected
    assert _outcome(lambda: ntmod._node_homology({}, f, g)) == expected


@PROPS
@given(st.one_of(homology_pairs().map(lambda p: p[:2]), free_node_pairs()),
       st.integers(1, 2))
@example((GroupHom(Presentation.zero(), Presentation.free(1), M([[]])),
          GroupHom(Presentation.free(1), Presentation.zero(), IntMatrix.zero(0, 1))), 1)
def test_node_with_other_middle_relations_falls_back(pair, extra):
    """When f lands in a presentation of B with other relations (extra·I
    added) than g starts from, the node routine ignores f's echelon and
    returns what subquotient_homology gives on the relations of g's source.
    In the example f lands in Z/1 = 0, whose echelon would read the node
    Z -> 0 as exact."""
    f, g = pair
    B = g.source
    rels = IntMatrix.identity(B.generators).scale(extra).hstack(B.relations)
    f = GroupHom(f.source, Presentation(B.generators, rels), f.matrix)
    expected = _reference_node(f, g)
    assert _outcome(lambda: subquotient_homology(f, g).group) == expected
    assert _outcome(lambda: ntmod._node_homology({}, f, g)) == expected


def test_homology_sign_flip_invariance():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        fm = rand_matrix(rng, b, a)
        A, B = Presentation.free(a), Presentation.free(b)
        f = GroupHom(A, B, fm)
        # g := projection onto coker-ish quotient of B that kills im(f)
        C = Presentation(b, fm)
        g = GroupHom(B, C, IntMatrix.identity(b))
        h1 = subquotient_homology(f, g).group
        h2 = subquotient_homology(-f, -g).group
        assert h1 == h2


# ---------------------------------------------------------------------------
# Graded utilities
# ---------------------------------------------------------------------------

def test_shift_swaps_parity():
    G = GradedGroup(Presentation.free(1), Presentation.zero())
    S = shift(G)
    assert S.even.generators == 0 and S.odd.generators == 1
    assert shift(S).even.generators == 1


def test_shift_involution_random():
    rng = random.Random(5)
    for _ in range(10):
        G = GradedGroup(Presentation(rng.randint(0, 3)),
                        Presentation(rng.randint(0, 3)))
        assert shift(shift(G)).normal_form() == G.normal_form()


def test_graded_direct_sum():
    G = GradedGroup(Presentation.free(1), Presentation.zero())
    H = GradedGroup(Presentation(1, M([[2]])), Presentation.free(2))
    D = graded_direct_sum([G, H])
    assert D.even.normal_form() == AbGroupNF(1, (2,))
    assert D.odd.normal_form() == AbGroupNF(2, ())


def test_graded_hom_parity_routing():
    G = GradedGroup(Presentation.free(1), Presentation.free(1))
    d1 = GradedHom.build(1, G, G, M([[1]]), M([[1]]))
    composed = d1.compose(d1)
    assert composed.degree == 0
    ident = GradedHom.identity(G)
    assert d1.compose(ident).degree == 1


def test_graded_hom_parity_mismatch_on_sum():
    G = GradedGroup(Presentation.free(1), Presentation.free(1))
    d0 = GradedHom.identity(G)
    d1 = GradedHom.build(1, G, G, M([[1]]), M([[1]]))
    with pytest.raises(Exception):
        d0.add(d1)
