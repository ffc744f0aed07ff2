"""Shared helpers: random triangular block graphs, random valid modules, a
right module that Tor must refuse, the corpus of free and random modules
whose JSON pins the free-module layout, the word-product action matrices,
multiplied out afresh, that the Hom table's cached ones are tested against, the
uncached six-term and Tor loops that check_exact and tor are tested
against, the uncached word-action loop that GradedModule.action_word is
tested against, the dense Smith engine that zexact.smith is tested
against, the Smith-form kernels and the dense Hermite reduction that
zexact's echelon kernels are tested against, the hand-drawn generator
quivers of the builtin spaces that ntcat.derive_arrows is tested against,
the connected T0 spaces on n points, one per homeomorphism class, the shift
and the direct sum of modules and of groups in normal form that the
invariance tests compare Tor against, and the Hom-table and homology
helpers only the tests use (eval_combo, graded_rank, is_generator), the
per-object M_ss loop and the nil-lattice formula for level 0 of a
resolution that ntmod.m_ss and the resolution engine are tested against,
a digest of a table's nil lattices and ideal checks, the renumbering
of the vertices inside the blocks of a graph, its out-splits and
in-splits, and the six-term maps of a graph computed from B' alone
(with a dense lattice solve) that fk_module's are tested against."""

import hashlib
import json
import random
import zlib
from math import gcd
from itertools import combinations, compress, permutations
from operator import itemgetter, neg
from typing import NamedTuple

from fktor.finspace import (BUILTIN_NAMES, FiniteSpace, builtin_space, label,
                            lc_subsets)
from fktor.graphk import BlockGraph
from fktor.ntcat import (Arrow, CategoryError, Element, builtin_category, ideal_checks,
                         nil_basis)
from fktor.ntmod import (GradedModule, TorReport, coker_module, free_module,
                         resolution_for, tensor_complex_maps)
from fktor.zexact import (AbGroupNF, GradedGroup, GradedHom, GroupHom, IntMatrix,
                          Presentation, ZExactError, block_diag, graded_direct_sum,
                          hnf_columns, shift, subquotient_homology)


def matrix_of_columns(cols, nrows):
    """The nrows x len(cols) matrix whose columns are `cols`, built through
    the checked IntMatrix constructor."""
    return IntMatrix(cols, len(cols), nrows).transpose()


def _space(space):
    """A FiniteSpace, or the builtin space of that name."""
    return space if isinstance(space, FiniteSpace) else builtin_space(space)


def random_block_graph(space, rng, max_vertices=3, max_entry=3):
    """Random triangular block graph over a FiniteSpace or a builtin name:
    edges v -> w only when the target's point lies in every open set around
    the source's point; at least two loops at every vertex, so condition (K)
    and no sinks/sources hold."""
    space = _space(space)
    blocks = [(p, rng.randint(1, max_vertices)) for p in space.points]
    n = sum(k for _, k in blocks)
    pt = []
    for p, k in blocks:
        pt.extend([p] * k)
    A = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in range(n):
            if pt[w] in space.min_open(pt[v]):
                A[v][w] = rng.randint(0, max_entry)
        A[v][v] = rng.randint(2, max(2, max_entry))
    return BlockGraph(space, blocks, IntMatrix(A))


def singular_block_graph(space, rng):
    """A triangular graph over a FiniteSpace or a builtin name with two
    vertices a block, each block's own edges [[2, 1], [1, 2]], so that B' is
    [[1, 1], [1, 1]] there and every K1 is nonzero, and random edges between
    blocks where triangularity allows."""
    space = _space(space)
    pt = [p for p in space.points for _ in range(2)]
    n = len(pt)
    A = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in range(n):
            if pt[w] == pt[v]:
                A[v][w] = 2 if v == w else 1
            elif pt[w] in space.min_open(pt[v]):
                A[v][w] = rng.randint(0, 2)
    return BlockGraph(space, [(p, 2) for p in space.points], IntMatrix(A))


_GRAPH_CORPUS = {}
_GRAPH_TOR3 = {}


def graph_corpus(space_name, count=20):
    """A fixed corpus of random triangular graphs per space, shared across
    test modules so Tor reports can be cached."""
    if space_name not in _GRAPH_CORPUS:
        rng = random.Random(2024 + zlib.crc32(space_name.encode()) % 1000)
        _GRAPH_CORPUS[space_name] = [random_block_graph(space_name, rng)
                                     for _ in range(count)]
    return _GRAPH_CORPUS[space_name]


def graph_tor3(space_name, idx):
    """Tor report to degree 3 for the corpus graph, cached."""
    key = (space_name, idx)
    if key not in _GRAPH_TOR3:
        from fktor.graphk import fk_module
        from fktor.ntmod import tor
        G = graph_corpus(space_name)[idx]
        _GRAPH_TOR3[key] = tor(fk_module(G), 3)
    return _GRAPH_TOR3[key]


def random_valid_module(space_name, rng):
    """Random valid left module: a cokernel of a random map of free left
    modules (optionally tensored mod k), which is functorial and hence
    always valid."""
    sc = builtin_category(space_name)
    objs = sc.objects
    kind = rng.random()
    if kind < 0.25:
        return free_module(sc, rng.choice(objs), "left", shift=rng.randint(0, 1))
    n_t = rng.randint(1, 2)
    n_s = rng.randint(1, 2)
    targets = [(rng.choice(objs), rng.randint(0, 1)) for _ in range(n_t)]
    sources = [(rng.choice(objs), rng.randint(0, 1)) for _ in range(n_s)]
    t = sc.table
    mat = []
    for B, eB in targets:
        row = []
        for A, eA in sources:
            parity = (eA + eB) % 2
            basis = t.basis_elements(B, A, parity)
            if not basis or rng.random() < 0.3:
                row.append(None)
            else:
                el = basis[0]
                acc = t.zero(B, A, parity)
                for b in basis:
                    acc = t.add(acc, t.scale(b, rng.randint(-2, 2)))
                row.append(acc)
        mat.append(row)
    M = coker_module(sc, targets, sources, mat)
    if kind > 0.8:
        M = M.tensor_mod_k(rng.choice([2, 3, 4]))
    return M


def layout_corpus(random_count=16):
    """(space, name, module) for every free module over the seven builtins
    (every object, both sides, shifts 0 and 1), then per builtin
    `random_count` random valid modules drawn with a seed from its name."""
    for space_name in BUILTIN_NAMES:
        sc = builtin_category(space_name)
        for Y in sc.objects:
            for side in ("left", "right"):
                for shift in (0, 1):
                    yield (space_name, f"free {Y} {side} {shift}",
                           free_module(sc, Y, side, shift))
        rng = random.Random(2024 + zlib.crc32(space_name.encode()) % 1000)
        for i in range(random_count):
            yield space_name, f"random {i}", random_valid_module(space_name, rng)


def z1_right_module_with_i_acting_by_one():
    """A valid right Z1-module with Z in every entry: i:2>12 acts by 1, the
    other generators by 0.  Read as a left module, the same matrices would
    also give a Tor report."""
    sc = builtin_category("Z1")
    entries = {o: GradedGroup(Presentation.free(1), Presentation.zero())
               for o in sc.objects}
    actions = {}
    for name, a in sc.presentation.arrows.items():
        actions[name] = GradedHom.zero(a.parity, entries[a.dst], entries[a.src])
    actions["i:2>12"] = GradedHom.build(0, entries["12"], entries["2"],
                                        IntMatrix([[1]]), IntMatrix.zero(0, 0))
    return GradedModule(sc, "right", entries, actions)


def shifted_module(M):
    """M[1]: every entry with its two parities swapped, every action the
    same map between the swapped groups."""
    return GradedModule(M.category, M.variance,
                        {obj: shift(g) for obj, g in M.entries.items()},
                        {name: h.shift() for name, h in M.actions.items()})


def direct_sum_module(M, N):
    """M ⊕ N: every entry the direct sum of the two, every action
    block-diagonal."""
    entries = {obj: graded_direct_sum([M.entries[obj], N.entries[obj]])
               for obj in M.entries}
    actions = {}
    for name, h in M.actions.items():
        a = M.category.presentation.arrows[name]
        s, d = (a.src, a.dst) if M.variance == "left" else (a.dst, a.src)
        actions[name] = GradedHom.build(h.degree, entries[s], entries[d], *(
            block_diag([h.component(p).matrix, N.actions[name].component(p).matrix])
            for p in (0, 1)))
    return GradedModule(M.category, M.variance, entries, actions)


def nf_direct_sum(a, b):
    """The normal form of the direct sum of two groups in normal form."""
    torsion = [*a.torsion, *b.torsion]
    n = len(torsion)
    diagonal = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(torsion)]
    nf = Presentation(n, IntMatrix(diagonal, n, n)).normal_form()
    return AbGroupNF(a.rank + b.rank + nf.rank, nf.torsion)


def permute_within_blocks(G, rng):
    """G with the vertices of each block renumbered by a random permutation:
    an isomorphic graph with the same block layout."""
    perm, at = [], 0
    for _, k in G.blocks:
        block = list(range(at, at + k))
        rng.shuffle(block)
        perm += block
        at += k
    A = G.adjacency.data
    return BlockGraph(G.space, G.blocks, IntMatrix([[A[v][w] for w in perm] for v in perm]))


def _split_edges(counts, rng):
    """The multiset of edges counts[w] (to or from vertex w) dealt at random
    into two nonempty parts, as two count lists."""
    edges = [w for w, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(edges)
    parts = [[0] * len(counts) for _ in range(2)]
    for i, w in enumerate(edges):
        parts[i if i < 2 else rng.randrange(2)][w] += 1
    return parts


def _split_vertex(G, v, rows, cols, loops):
    """G with vertex v replaced by two vertices v and v + 1 in v's block:
    rows[i][w] edges from copy i to the old vertex w != v, cols[j][u] from u
    to copy j, and loops[i][j] from copy i to copy j."""
    A = G.adjacency.data
    new = [w if w < v else w + 1 for w in range(G.n)]
    others = [w for w in range(G.n) if w != v]
    out = [[0] * (G.n + 1) for _ in range(G.n + 1)]
    for u in others:
        for w in others:
            out[new[u]][new[w]] = A[u][w]
    for i in range(2):
        for w in others:
            out[v + i][new[w]] = rows[i][w]
            out[new[w]][v + i] = cols[i][w]
        for j in range(2):
            out[v + i][v + j] = loops[i][j]
    blocks, at = [], 0
    for p, k in G.blocks:
        blocks.append((p, k + (at <= v < at + k)))
        at += k
    return BlockGraph(G.space, blocks, IntMatrix(out))


def _vertex_with_two_edges(counts, rng):
    return rng.choice([v for v, c in enumerate(counts) if c >= 2])


def out_split(G, rng):
    """A random out-split (Bates–Pask) of a vertex v with at least two
    out-edges: they are dealt into two nonempty parts, part i leaves copy i
    of v, and every edge into v, a loop of v included, enters both copies.
    Both copies stay in v's block.  C*(E) is unchanged up to isomorphism,
    and the ideals of the block structure correspond, so FK is too."""
    A = G.adjacency.data
    v = _vertex_with_two_edges([sum(row) for row in A], rng)
    parts = _split_edges(A[v], rng)
    col = [row[v] for row in A]
    return _split_vertex(G, v, parts, [col, col], [[part[v]] * 2 for part in parts])


def in_split(G, rng):
    """A random in-split (Bates–Pask) of a vertex v with at least two
    in-edges: they are dealt into two nonempty parts, part j enters copy j
    of v, and every edge out of v, a loop of v included, leaves both copies.
    Both copies stay in v's block.  C*(E) is unchanged up to Morita
    equivalence, and the ideals of the block structure correspond, so FK
    is too."""
    A = G.adjacency.data
    v = _vertex_with_two_edges([sum(col) for col in zip(*A)], rng)
    parts = _split_edges([row[v] for row in A], rng)
    return _split_vertex(G, v, [A[v], A[v]], parts, [[part[v] for part in parts]] * 2)


def m_ss_reference(M):
    """The loop ntmod.m_ss is tested against: each M(obj) modulo its
    relations and the action matrices of the arrows into obj (left module)
    or out of obj (right module), laid side by side."""
    pres = M.category.presentation
    arrows = pres.by_dst if M.variance == "left" else pres.by_src
    out = {}
    for obj in M.category.objects:
        g = M.entries[obj]
        images = ([g.even.relations], [g.odd.relations])
        for a in arrows.get(obj, ()):
            h = M.actions[a.name]
            images[h.degree].append(h.from_even.matrix)
            images[1 - h.degree].append(h.from_odd.matrix)
        out[obj] = GradedGroup(*(
            Presentation(P.generators, IntMatrix.block([mats], [P.generators],
                                                       [m.cols for m in mats]))
            for P, mats in zip((g.even, g.odd), images)))
    return out


def level0_kernels_reference(sc, Y):
    """The kernel of Q_Y ->> S_Y that level 0 of a resolution is tested
    against, per (W, parity): the Hermite basis of the even nil lattice of
    End(Y) (nil_basis at (Y, Y, 0)) at (Y, 0), all of Q_Y(W)_p elsewhere."""
    t = sc.table
    out = {}
    for W in sc.objects:
        for p in (0, 1):
            c = t.rank.get((W, Y, p), 0)
            out[(W, p)] = (hnf_columns(matrix_of_columns(nil_basis(t)[(Y, Y, 0)], c))
                           if (W, p) == (Y, 0) else IntMatrix.identity(c))
    return out


def nil_digest(t):
    """sha256 of the Hermite basis of every nil_basis lattice of the table t,
    in sorted key order, and of its ideal_checks record."""
    lattices = [[list(key), hnf_columns(matrix_of_columns(vecs, t.rank.get(key, 0)))
                 .to_lists()] for key, vecs in sorted(nil_basis(t).items())]
    ideal = ideal_checks(t)
    record = {"nilpotent": ideal.nilpotent, "semidirect": ideal.semidirect,
              "nilpotency_index": ideal.nilpotency_index,
              "end_nil_ranks": ideal.end_nil_ranks}
    text = json.dumps([lattices, record], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def eval_combo(t, src, c):
    """The element of t's Hom group that the combo c of parallel words out
    of src names: the sum of each word's image of the identity of src."""
    if not c:
        raise CategoryError("cannot infer endpoints of an empty combo")
    first = next(iter(c))
    _, dst, parity = t.presentation.word_signature(first, src=src)
    out = t.zero(src, dst, parity)
    ident = t.id_coords[src]
    for w, coeff in c.items():
        if t.presentation.word_signature(w, src=src) != (src, dst, parity):
            raise CategoryError(f"word {w} is not parallel to {first} from {src}")
        vec = t.word_matrix("post", src, 0, w).apply(ident) if w else ident
        out = t.add(out, t.scale(Element(src, dst, parity, vec), coeff))
    return out


def graded_rank(t, src, dst):
    """(even rank, odd rank) of the Hom group from src to dst in table t."""
    return (t.rank.get((src, dst, 0), 0), t.rank.get((src, dst, 1), 0))


def is_generator(h, v):
    """True if the class of the cycle v generates the cyclic homology group
    of the HomologyResult h."""
    nf = h.group
    cls = h.class_of(v)
    if nf.rank == 1 and not nf.torsion:
        return abs(cls[0]) == 1
    if nf.rank == 0 and len(nf.torsion) == 1:
        return gcd(cls[0], nf.torsion[0]) == 1
    raise ZExactError("is_generator only supported for cyclic homology")


def smith_cycles(g, relations):
    """Reference for zexact's kernels: the Hermite basis of the lattice
    {x : g x in the column span of `relations`}, read off the V of one
    dense Smith form of [g | relations] (its columns past the rank, on the
    rows of g's source).  With no relations it is the kernel of g."""
    stacked = g.hstack(relations)
    sf = smith_dense(stacked)
    rank = sum(1 for i in range(min(stacked.rows, stacked.cols)) if sf.S[i, i])
    cols = [sf.V.column(j)[:g.cols] for j in range(rank, stacked.cols)]
    return hnf_columns(matrix_of_columns(cols, g.cols))


def smith_kernel(A):
    """Reference for zexact.kernel."""
    return smith_cycles(A, IntMatrix.zero(A.rows, 0))


class DenseSmith(NamedTuple):
    """U * A * V = S, as smith_dense returns it."""
    U: IntMatrix
    S: IntMatrix
    V: IntMatrix


def smith_dense(A: IntMatrix) -> DenseSmith:
    """Reference for zexact.smith: a dense Smith engine with the same pivot
    choices and the same row and column operations, so its U, S and V must
    equal smith's.  It scans and copies whole rows and columns.

    Pivots are chosen with minimal absolute value to keep intermediate
    entries small; divisibility of the diagonal is enforced at the end.
    V is kept transposed while it is built, so that a column operation on
    it is a row operation on VT.
    """
    m, n = A.rows, A.cols
    M = [list(row) for row in A.data]
    U = [[0] * m for _ in range(m)]
    for i in range(m):
        U[i][i] = 1
    VT = [[0] * n for _ in range(n)]
    for i in range(n):
        VT[i][i] = 1

    def swap_rows(i, j):
        if i != j:
            M[i], M[j] = M[j], M[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(k, j):
        # rows above k are zero in columns k and j (main-loop invariant)
        if k != j:
            for r in M[k:]:
                r[k], r[j] = r[j], r[k]
            VT[k], VT[j] = VT[j], VT[k]

    # Row and column operations visit only the nonzero entries of the
    # source row; the rows of M, U and VT stay sparse in practice.
    all_cols, all_rows = range(n), range(m)

    def add_row(src, dst, q):
        # row[dst] += q*row[src]
        Ms, Md = M[src], M[dst]
        for j in compress(all_cols, Ms):
            Md[j] += q * Ms[j]
        Us, Ud = U[src], U[dst]
        for j in compress(all_rows, Us):
            Ud[j] += q * Us[j]

    def add_col_v(src, dst, q):
        Vs, Vd = VT[src], VT[dst]
        for j in compress(all_cols, Vs):
            Vd[j] += q * Vs[j]

    def add_col(src, dst, q):
        for r in M:
            if r[src]:
                r[dst] += q * r[src]
        add_col_v(src, dst, q)

    def negate_row(i):
        M[i] = list(map(neg, M[i]))
        U[i] = list(map(neg, U[i]))

    # Invariant of the main loop: rows and columns before k are zero off the
    # diagonal, so column operations at step k only meet rows k and below.
    k = 0
    limit = min(m, n)
    while k < limit:
        # minimal-absolute-value nonzero pivot in the trailing block, the
        # first one in row-major order
        piv = None
        best = 0
        for i in range(k, m):
            a = list(map(abs, M[i][k:]))
            v = min(filter(None, a), default=0)
            if v and (not best or v < best):
                best, piv = v, (i, k + a.index(v))
                if v == 1:
                    break
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        below = range(k + 1, m)
        right = range(k + 1, n)
        at_k = itemgetter(k)
        while True:
            pending = list(compress(below, map(at_k, M[k + 1:])))
            for i in pending:
                add_row(k, i, -(M[i][k] // M[k][k]))
            pending = [i for i in pending if M[i][k]]
            if pending:
                # remainder smaller than pivot; promote it
                i = min(pending, key=lambda r: abs(M[r][k]))
                swap_rows(k, i)
                continue
            # column k is now zero below the pivot: a column operation
            # from it changes row k of M only
            Mk = M[k]
            d = Mk[k]
            for j in list(compress(right, Mk[k + 1:])):
                q = -(Mk[j] // d)
                Mk[j] += q * d
                add_col_v(k, j, q)
            pending = list(compress(right, Mk[k + 1:]))
            if pending:
                j = min(pending, key=lambda c: abs(Mk[c]))
                swap_cols(k, j)
                continue
            break
        k += 1

    # nonnegative diagonal
    for i in range(limit):
        if M[i][i] < 0:
            negate_row(i)
    # enforce divisibility d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(limit - 1):
            a, b = M[i][i], M[i + 1][i + 1]
            if a and b % a != 0:
                # fold the next pivot into position i and rediagonalise 2x2
                add_col(i + 1, i, 1)
                # now column i has entries a (row i) and b (row i+1)
                while M[i + 1][i]:
                    if abs(M[i][i]) >= abs(M[i + 1][i]):
                        add_row(i + 1, i, -(M[i][i] // M[i + 1][i]))
                    swap_rows(i, i + 1)
                # clear the fill-in in row i / column i+1
                if M[i][i]:
                    add_col(i, i + 1, -(M[i][i + 1] // M[i][i]))
                if M[i][i] < 0:
                    negate_row(i)
                if M[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    V = tuple(zip(*VT)) if n else ()
    return DenseSmith(IntMatrix._of(tuple(map(tuple, U)), m, m),
                      IntMatrix._of(tuple(map(tuple, M)), m, n),
                      IntMatrix._of(V, n, n))


def hermite_dense(pivots, n, start):
    """Reference for zexact's Hermite bases: the Hermite basis of the
    lattice spanned by the dense echelon rows `pivots` ({pivot column: row
    of length n}) whose pivot is at `start` or later, read on the
    coordinates from `start` on.  Each row is made positive at its pivot
    and the entries above each pivot are reduced into [0, pivot) by
    whole-row subtraction."""
    pivots_at = sorted(p for p in pivots if p >= start)
    out = [list(pivots[p][start:]) for p in pivots_at]
    pivots_at = [p - start for p in pivots_at]
    for p, r in zip(pivots_at, out):
        if r[p] < 0:
            r[:] = map(neg, r)
    for j, (pj, rj) in enumerate(zip(pivots_at, out)):
        for ri in out[:j]:
            if ri[pj]:
                q = ri[pj] // rj[pj]
                ri[:] = [x - q * y for x, y in zip(ri, rj)]
    return matrix_of_columns(out, n - start)


def word_action(M, word, src_obj, dst_obj):
    """Reference for GradedModule.action_word: the generator actions
    composed one by one from the identity, nothing cached."""
    if M.variance == "left":
        hom = GradedHom.identity(M.entries[src_obj])
        for name in word:
            hom = M.actions[name].compose(hom)
        return hom
    hom = GradedHom.identity(M.entries[dst_obj])
    for name in reversed(word):
        hom = M.actions[name].compose(hom)
    return hom


def word_pre_matrix(t, el, W, parity):
    """Reference for t.pre_matrix: pre-composition by el, NT(el.dst, W) ->
    NT(el.src, W), summed over the representative words of el's basis
    classes as products of generator pre-composition matrices (a word with
    a missing matrix contributes nothing)."""
    n_in = t.rank.get((el.dst, W, parity), 0)
    n_out = t.rank.get((el.src, W, parity ^ el.parity), 0)
    out = IntMatrix.zero(n_out, n_in)
    for k, c in enumerate(el.vec):
        if not c:
            continue
        for w, coeff in t.rep_combo(el.src, el.dst, el.parity, k).items():
            M = IntMatrix.identity(n_in)
            cur_src, cur_par = el.dst, parity
            for name in reversed(w):
                Mstep = t.pre.get((cur_src, W, cur_par, name))
                if Mstep is None:
                    break
                M = Mstep * M
                a = t.presentation.arrows[name]
                cur_src, cur_par = a.src, cur_par ^ a.parity
            else:
                out = out + M.scale(c * coeff)
    return out


def word_post_matrix(t, el, W, parity):
    """Reference for t.post_matrix: post-composition by el, NT(W, el.src)
    -> NT(W, el.dst), summed over the representative words of el's basis
    classes as products of generator post-composition matrices."""
    n_in = t.rank.get((W, el.src, parity), 0)
    n_out = t.rank.get((W, el.dst, parity ^ el.parity), 0)
    out = IntMatrix.zero(n_out, n_in)
    for k, c in enumerate(el.vec):
        if not c:
            continue
        for w, coeff in t.rep_combo(el.src, el.dst, el.parity, k).items():
            M = IntMatrix.identity(n_in)
            cur_dst, cur_par = el.src, parity
            for name in w:
                Mstep = t.post.get((W, cur_dst, cur_par, name))
                if Mstep is None:
                    break
                M = Mstep * M
                a = t.presentation.arrows[name]
                cur_dst, cur_par = a.dst, cur_par ^ a.parity
            else:
                out = out + M.scale(c * coeff)
    return out


def bnd_block_reference(D, C, E, U, Y, leaves=None):
    """Reference for Designator.bnd: the block of the six-term boundary of
    the pair (U open in Y) from the component E of Y∖U to the component C
    of U, by the push-out/pull-back recursion over the pair.  The leaf, the
    pair (C, Yc) with Yc ∖ C = E and Yc connected, asks D.bnd(C, E) and,
    when `leaves` is given, appends Yc to it."""
    Yc = next(c for c in D.X.components(Y) if C <= c)
    if not E <= Yc:
        return {}
    U2 = U & Yc
    if U2 != C:
        # push out along the projection onto the summand A(C) of A(U)
        return bnd_block_reference(D, C, E, C, Yc - (U2 - C), leaves)
    if Yc - C != E:
        # pull back along the inclusion of the summand A(E) of A(Y∖U)
        return bnd_block_reference(D, C, E, C, C | E, leaves)
    if leaves is not None:
        leaves.append(Yc)
    return D.bnd(C, E)


def block_graded_hom(degree, sources, targets, blocks):
    """The GradedHom of the given degree between the direct sums of the
    graded groups `sources` and `targets` whose block (i, j) is blocks[i][j]
    (a GradedHom from sources[j] to targets[i], or None), each sum built
    afresh: the layout of the six-term reference maps."""
    mats = [IntMatrix.block(
        [[None if b is None else b.component(p).matrix for b in row] for row in blocks],
        [T.part(p + degree).generators for T in targets],
        [S.part(p).generators for S in sources]) for p in (0, 1)]
    return GradedHom.build(degree, graded_direct_sum(sources),
                           graded_direct_sum(targets), mats[0], mats[1])


def reference_six_term_maps(M, U, Y):
    """Reference for ntmod.six_term_maps: every designated action built
    afresh from its word, the boundary block by bnd_block_reference with
    the pair's own U and Y."""
    sc = M.category
    d = sc.designator
    compsU = sc.space.components(U)
    compsE = sc.space.components(Y - U)

    def act(combo, src, dst, parity):
        return M.action_combo(combo, label(src), label(dst), parity) if combo else None

    def bnd(C, E):
        return act(bnd_block_reference(d, C, E, U, Y), E, C, 1)

    eU = [M.entries[label(c)] for c in compsU]
    eY = [M.entries[label(Y)]]
    eE = [M.entries[label(e)] for e in compsE]
    if M.variance == "left":
        f = block_graded_hom(0, eU, eY, [[act(d.inc(C, Y), C, Y, 0) for C in compsU]])
        g = block_graded_hom(0, eY, eE, [[act(d.res(Y, E), Y, E, 0)] for E in compsE])
        h = block_graded_hom(1, eE, eU, [[bnd(C, E) for E in compsE] for C in compsU])
        names = (f"M({label(U)})", f"M({label(Y)})", f"M({label(Y - U)})")
    else:
        f = block_graded_hom(0, eE, eY, [[act(d.res(Y, E), Y, E, 0) for E in compsE]])
        g = block_graded_hom(0, eY, eU, [[act(d.inc(C, Y), C, Y, 0)] for C in compsU])
        h = block_graded_hom(1, eU, eE, [[bnd(C, E) for C in compsU] for E in compsE])
        names = (f"M({label(Y - U)})", f"M({label(Y)})", f"M({label(U)})")
    return f, g, h, names


def dense_solve(A, cols):
    """A solution x of A x = v for each column v of `cols`, read off one
    dense Smith form U A V = S (x = V y with S y = U v and y zero past the
    rank), or None when some v is not in the column lattice of A."""
    sf = smith_dense(A)
    rank = sum(1 for i in range(min(A.rows, A.cols)) if sf.S[i, i])
    out = []
    for v in cols:
        w = sf.U.apply(v)
        if any(w[rank:]) or any(w[i] % sf.S[i, i] for i in range(rank)):
            return None
        out.append(sf.V.apply([w[i] // sf.S[i, i] for i in range(rank)]
                              + [0] * (A.cols - rank)))
    return out


def graph_six_term_maps(G, U, Y):
    """Reference for the six-term maps of fk_module(G), from B' alone: the
    inclusion f, restriction g and connecting map h of the pair U open in
    Y, laid out over the components of U and of Y∖U as ntmod.six_term_maps
    lays out a left module's maps.

    The vertex sets give a short exact sequence of complexes
    0 -> C_U -> C_Y -> C_{Y∖U} -> 0 with C_S = B'[V_S] on Z^{V_S}, K0 its
    cokernel and K1 its kernel, whose long exact sequence is the six-term
    one: inclusion and restriction act by vertex coordinates, and the
    connecting map lifts a kernel vector of B'[V_E] by zero, applies B' and
    lands in Z^{V_U}, which is the block B'(C, E) into each component C.
    Kernel lattices are the smith_kernel bases, and K1 coordinates in them
    come from dense_solve.  Returns three (from_even, from_odd, relations)
    triples, relations being those of the K0 group the map's K0 part lands
    in (the target's even part for f and g, and for h, of degree 1, the
    target of from_odd)."""
    X = G.space
    compsU, compsE = X.components(U), X.components(Y - U)
    kb = {S: smith_kernel(G.bprime_block(S, S)) for S in [Y, *compsU, *compsE]}
    nv = {S: len(G.vertices_of(S)) for S in kb}
    nk = {S: kb[S].cols for S in kb}

    def coords(S, T):
        return IntMatrix([[int(w == v) for v in G.vertices_of(S)] for w in G.vertices_of(T)],
                         nv[T], nv[S])

    def k1(S, T):
        sol = dense_solve(kb[T], (coords(S, T) * kb[S]).columns())
        assert sol is not None, f"K1({label(S)}) does not map into K1({label(T)})"
        return matrix_of_columns(sol, nk[T])

    def rels(parts):
        return block_diag([G.bprime_block(S, S) for S in parts])

    def sizes(n, parts):
        return [n[S] for S in parts]

    f = (IntMatrix.block([[coords(C, Y) for C in compsU]], [nv[Y]], sizes(nv, compsU)),
         IntMatrix.block([[k1(C, Y) for C in compsU]], [nk[Y]], sizes(nk, compsU)),
         rels([Y]))
    g = (IntMatrix.block([[coords(Y, E)] for E in compsE], sizes(nv, compsE), [nv[Y]]),
         IntMatrix.block([[k1(Y, E)] for E in compsE], sizes(nk, compsE), [nk[Y]]),
         rels(compsE))
    h = (IntMatrix.zero(sum(sizes(nk, compsU)), sum(sizes(nv, compsE))),
         IntMatrix.block([[G.bprime_block(C, E) * kb[E] for E in compsE] for C in compsU],
                         sizes(nv, compsU), sizes(nk, compsE)),
         rels(compsU))
    return f, g, h


def reference_six_term_nodes(M):
    """Every node of every six-term pair of M, in check_exact's order, as
    (U, Y, node name, incoming map, outgoing map)."""
    X = M.category.space
    out = []
    for lc in lc_subsets(X):
        Y = lc.value
        if not Y or not X.is_connected(Y):
            continue
        for U in X.relative_opens(Y):
            if not U or U == Y:
                continue
            f, g, h, names = reference_six_term_maps(M, U, Y)
            out += [(U, Y, node, fin, fout) for node, fin, fout in [
                (f"{names[1]} even", f.from_even, g.from_even),
                (f"{names[2]} even", g.from_even, h.from_even),
                (f"{names[0]} odd", h.from_even, f.from_odd),
                (f"{names[1]} odd", f.from_odd, g.from_odd),
                (f"{names[2]} odd", g.from_odd, h.from_odd),
                (f"{names[0]} even", h.from_odd, f.from_even),
            ]]
    return out


def reference_check_exact(M):
    """Reference for ntmod.check_exact: the failure strings, in order, of
    every node of every pair, each node's homology computed on its own."""
    failures = []
    for U, Y, node, fin, fout in reference_six_term_nodes(M):
        group = subquotient_homology(fin, fout).group
        if not group.is_trivial():
            failures.append(f"pair ({label(U)} ⊆ {label(Y)}) fails at {node}: {group}")
    return failures


def reference_tor_nodes(M, n):
    """Every node of tor(M, n), in its order, as (object, degree, incoming
    map, outgoing map), the even part before the odd one."""
    sc = M.category
    out = []
    for Y in sc.objects:
        d = tensor_complex_maps(resolution_for(sc, Y, n + 1), M, n)
        for k in range(n + 1):
            for parity in (0, 1):
                f = d[k + 1].component(parity)
                g = GroupHom.zero(f.target, Presentation.zero()) if d[k] is None \
                    else d[k].component(parity)
                out.append((Y, k, f, g))
    return out


def reference_tor(M, n):
    """Reference for ntmod.tor on a left module: each node's homology
    computed on its own."""
    groups = {}
    for Y, k, f, g in reference_tor_nodes(M, n):
        groups.setdefault(Y, {}).setdefault(k, ())
        groups[Y][k] += (subquotient_homology(f, g).group,)
    return TorReport(M.category.space.name, groups)


# ---------------------------------------------------------------------------
# Hand-drawn generator quivers of the builtin spaces
# ---------------------------------------------------------------------------

def _arrows(spec):
    return [Arrow(f"{k}:{s}>{d}", s, d, 1 if k == "d" else 0, k)
            for k, s, d in spec]


def _z_arrows(m):
    """Z_m: i adds one closed point to an open set, r restricts the whole
    space to each closed point, and δ runs from each closed point to the
    open point m+1."""
    from itertools import combinations
    top = str(m + 1)
    rest = [str(i) for i in range(1, m + 1)]
    spec = []
    for k in range(m + 1):
        for c in combinations(rest, k):
            spec += [("i", label(set(c) | {top}), label(set(c) | {x, top}))
                     for x in rest if x not in c]
    full = label(set(rest) | {top})
    for j in rest:
        spec += [("r", full, j), ("d", j, top)]
    return _arrows(spec)


HAND_ARROWS = {
    "pt": lambda: [],
    "Z1": lambda: _z_arrows(1),
    "Z2": lambda: _z_arrows(2),
    "Z3": lambda: _z_arrows(3),
    "Z4": lambda: _z_arrows(4),
    "C2": lambda: _arrows([
        ("i", "3", "134"), ("i", "3", "234"), ("i", "4", "134"), ("i", "4", "234"),
        ("i", "134", "1234"), ("i", "234", "1234"),
        ("i", "13", "123"), ("i", "23", "123"), ("i", "14", "124"), ("i", "24", "124"),
        ("r", "134", "13"), ("r", "134", "14"), ("r", "234", "23"), ("r", "234", "24"),
        ("r", "1234", "123"), ("r", "1234", "124"),
        ("r", "123", "1"), ("r", "123", "2"), ("r", "124", "1"), ("r", "124", "2"),
        ("d", "1", "3"), ("d", "1", "4"), ("d", "2", "3"), ("d", "2", "4"),
    ]),
    "S": lambda: _arrows([
        ("i", "4", "34"), ("i", "4", "24"), ("i", "34", "234"), ("i", "24", "234"),
        ("i", "234", "1234"), ("i", "2", "123"), ("i", "3", "123"),
        ("r", "123", "12"), ("r", "123", "13"), ("r", "12", "1"), ("r", "13", "1"),
        ("r", "234", "2"), ("r", "234", "3"), ("r", "1234", "123"),
        ("d", "123", "4"), ("d", "12", "34"), ("d", "13", "24"), ("d", "1", "234"),
    ]),
}


# ---------------------------------------------------------------------------
# Finite spaces up to homeomorphism
# ---------------------------------------------------------------------------

def connected_t0_spaces(n):
    """The connected T0 spaces on the points 1..n, one per homeomorphism
    class, sorted by name.  A T0 space is its specialisation order, x < y
    when every open set holding x holds y, and its opens are the up-sets.
    Each space is named by its canonical order relation: of the labellings
    on which x < y implies x < y as integers (every order has one, a linear
    extension), the one whose sorted list of pairs is least (so Z3 is
    "1<4,2<4,3<4")."""
    pts = range(1, n + 1)
    pairs = list(combinations(pts, 2))
    orders = set()
    for mask in range(1 << len(pairs)):
        rel = [p for k, p in enumerate(pairs) if mask >> k & 1]
        if any((x, z) not in rel for x, y in rel for y2, z in rel if y == y2):
            continue  # not transitive
        orders.add(min(tuple(sorted((s[x - 1], s[y - 1]) for x, y in rel))
                       for s in permutations(pts)
                       if all(s[x - 1] < s[y - 1] for x, y in rel)))
    spaces = []
    for rel in sorted(orders):
        opens = [set(map(str, c)) for k in range(n + 1) for c in combinations(pts, k)
                 if all(y in c for x, y in rel if x in c)]
        X = FiniteSpace(map(str, pts), opens,
                        name=",".join(f"{x}<{y}" for x, y in rel))
        if X.is_connected(X.points):
            spaces.append(X)
    return spaces
