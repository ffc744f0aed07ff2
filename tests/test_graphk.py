import json
import os
import random
import sys

import pytest

from conftest import (add_edges_against_the_order, connected_t0_spaces, dense_solve,
                      graph_six_term_maps, is_generator, nonzero_bprime_blocks,
                      random_block_graph, reference_check_exact, reference_six_term_nodes,
                      reference_tor, reference_tor_nodes, singular_block_graph, word_action,
                      z1_right_module_with_i_acting_by_one)

from fktor.finspace import (BUILTIN_NAMES, FiniteSpace, builtin_name, builtin_space, label,
                            lc_subsets, point_space, space_from_json, space_to_json)
from fktor.graphk import (
    BlockGraph, GraphError, fk_module, graph_checks, k_groups, s_fast_tor1,
    tor_ck, z3_fast_tor1,
)
from fktor.ntcat import builtin_category, space_category
import fktor.ntmod as ntmod
from fktor.ntmod import check_exact, projective_dimension, tor, validate
import fktor.zexact as zexact
from fktor.zexact import AbGroupNF, IntMatrix, Presentation

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "fktor", "data")


def load_graph(name):
    with open(os.path.join(DATA, name)) as fh:
        return BlockGraph.from_json(json.load(fh))


def ck_z3():
    return load_graph("ck_z3.json")


def ck_s():
    return load_graph("ck_s.json")


# ---------------------------------------------------------------------------
# Structure and checks
# ---------------------------------------------------------------------------

def test_ck_z3_bprime_blocks():
    G = ck_z3()
    assert G.bprime_block("4", "4") == IntMatrix([[2, 2], [2, 2]])
    for j in "123":
        assert G.bprime_block(j, j) == IntMatrix([[2, 1], [2, 1]])
        # the transposed coupling block sits above the diagonal of B'
        assert G.bprime_block("4", j) == IntMatrix([[1, 1], [1, 1]])
        assert G.bprime_block(j, "4").is_zero()


def test_ck_s_bprime_blocks():
    G = ck_s()
    assert G.bprime_block("1", "1") == IntMatrix([[1, 1], [1, 1]])
    for j in "234":
        assert G.bprime_block(j, j) == IntMatrix([[2]])


def test_ck_graph_checks_pass():
    for G in (ck_z3(), ck_s()):
        rep = graph_checks(G)
        assert rep.triangular and rep.no_sinks and rep.no_sources
        assert rep.condition_k and rep.condition_k_checked


def test_condition_k_single_loop_fails():
    X = point_space()
    G1 = BlockGraph(X, [("1", 1)], IntMatrix([[1]]))
    assert not graph_checks(G1).condition_k
    G2 = BlockGraph(X, [("1", 1)], IntMatrix([[2]]))
    assert graph_checks(G2).condition_k
    # golden-mean graph: vertex 0 lies on one simple cycle but has
    # infinitely many return paths, so (K) holds
    G3 = BlockGraph(X, [("1", 2)], IntMatrix([[0, 1], [1, 1]]))
    assert graph_checks(G3).condition_k
    G4 = BlockGraph(X, [("1", 2)], IntMatrix([[0, 1], [1, 0]]))
    assert not graph_checks(G4).condition_k


def first_return_paths(A, v, length):
    """Numbers of paths of length 1, ..., `length` from v back to v that
    meet v only at their two ends, by walks on the other vertices."""
    others = [w for w in range(len(A)) if w != v]
    counts = [A[v][v]]
    walks = [A[v][w] for w in others]  # paths of the current length to w
    for _ in range(length - 1):
        counts.append(sum(x * A[w][v] for x, w in zip(walks, others)))
        walks = [sum(x * A[u][w] for x, u in zip(walks, others)) for w in others]
    return counts


def test_condition_k_agrees_with_counting_first_return_paths():
    """(K) fails exactly at the vertices with one first-return path.  A
    vertex with a second one has one of length at most 3n: either another
    simple cycle through it, or its way to another cycle of its component,
    once round that cycle, and back."""
    rng = random.Random(11)
    X = point_space()
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.random() / 2
        A = [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        bad = [v for v in range(n) if sum(first_return_paths(A, v, 3 * n)) == 1]
        rep = graph_checks(BlockGraph(X, [("1", n)], IntMatrix(A)))
        assert rep.condition_k == (not bad)
        assert (f"vertices with exactly one return path: {bad}" in rep.problems) == bool(bad)
        verdicts.add(bool(bad))
    assert verdicts == {False, True}


def test_triangularity_violation_detected():
    X = builtin_space("Z3")
    blocks = [("4", 1), ("1", 1), ("2", 1), ("3", 1)]
    A = [[2, 1, 0, 0],  # edge from the open-point block into a closed block
         [1, 2, 0, 0],
         [1, 0, 2, 0],
         [1, 0, 0, 2]]
    G = BlockGraph(X, blocks, IntMatrix(A))
    assert not graph_checks(G).triangular
    with pytest.raises(GraphError):
        k_groups(G, "14")


@pytest.mark.parametrize("count", [True, 1.0, 1.5, "1"])
def test_a_vertex_count_that_is_not_an_int_is_refused(count):
    """By the constructor and so by from_json alike: True would be written
    back as "vertices": true, 1.0 would reach IntMatrix.identity and 1.5
    the adjacency shape check."""
    X = builtin_space("Z2")
    blocks = [(X.points[0], count)] + [(p, 1) for p in X.points[1:]]
    A = IntMatrix.identity(len(blocks))
    with pytest.raises(GraphError, match="must be integers"):
        BlockGraph(X, blocks, A)
    data = {"space": "Z2", "blocks": [{"point": p, "vertices": k} for p, k in blocks],
            "adjacency": A.to_lists()}
    with pytest.raises(GraphError, match="must be integers"):
        BlockGraph.from_json(json.loads(json.dumps(data)))


def test_graph_json_round_trip():
    G = ck_z3()
    clone = BlockGraph.from_json(G.to_json())
    assert clone.adjacency == G.adjacency
    assert clone.blocks == G.blocks
    # the space is written as GradedModule writes it: a builtin by its name,
    # whatever the space's own name, and any other space as an object
    S = ck_s()
    renamed = BlockGraph(FiniteSpace(S.space.points, S.space.opens, name="Z3"),
                         S.blocks, S.adjacency)
    data = json.loads(json.dumps(renamed.to_json()))
    assert data == S.to_json() and data["space"] == "S"
    clone = BlockGraph.from_json(data)
    assert clone.space == builtin_space("S") and graph_checks(clone).triangular
    two = FiniteSpace(["a", "b"], [[], ["b"], ["a", "b"]], name="two")
    G = BlockGraph(two, [("a", 1), ("b", 2)],
                   IntMatrix([[2, 1, 0], [0, 2, 1], [0, 1, 2]]))
    data = json.loads(json.dumps(G.to_json()))
    assert data["space"] == space_to_json(two)
    clone = BlockGraph.from_json(data)
    assert clone.space == two and clone.space.name == "two"
    assert clone.to_json() == data and graph_checks(clone) == graph_checks(G)


# ---------------------------------------------------------------------------
# K-groups
# ---------------------------------------------------------------------------

def test_k_groups_reference_examples():
    G = ck_z3()
    k4 = k_groups(G, "4")
    assert k4.k0_nf() == AbGroupNF(1, (2,))
    assert k4.k1_basis.cols == 1
    v = k4.k1_basis.column(0)
    assert v in ((1, -1), (-1, 1))
    for j in "123":
        kj = k_groups(G, j)
        assert kj.k0_nf() == AbGroupNF(1, ())
        assert kj.k1_nf() == AbGroupNF(1, ())


def test_k_groups_s_example():
    G = ck_s()
    k1 = k_groups(G, "1")
    assert k1.k0_nf() == AbGroupNF(1, ())
    assert k1.k1_nf() == AbGroupNF(1, ())


def test_k_groups_rank_nullity_random():
    rng = random.Random(1)
    for _ in range(5):
        G = random_block_graph("S", rng)
        for lc_label in ("4", "24", "234", "1234"):
            sub = k_groups(G, lc_label)
            B = G.bprime_block(lc_label, lc_label)
            assert sub.k1_basis.cols + (B.cols - sub.k1_basis.cols) == B.cols


# ---------------------------------------------------------------------------
# The module pipeline
# ---------------------------------------------------------------------------

def test_fk_module_is_valid_and_exact_for_ck_examples():
    for G in (ck_z3(), ck_s()):
        M = fk_module(G)
        assert validate(M).ok
        assert check_exact(M).ok


_RNG = random.Random(17)
# over each builtin space with a six-term pair, three seeded random graphs,
# whose K1 groups are mostly 0, and two whose K1 groups are all nonzero;
# then the ck examples, then one graph of each kind over each connected
# four-point space that is no builtin, on an unnamed copy of the space: the
# process keeps one category per set of opens, with the first space's name
SIX_TERM_GRAPHS = [(f"{name}-{i}", random_block_graph(name, _RNG))
                   for name in BUILTIN_NAMES if name != "pt" for i in range(3)] + \
    [(f"{name}-singular-{i}", singular_block_graph(name, _RNG))
     for name in BUILTIN_NAMES if name != "pt" for i in range(2)] + \
    [("ck_z3", ck_z3()), ("ck_s", ck_s())] + \
    [(f"{X.name}-{tag}", make(FiniteSpace(X.points, X.opens), _RNG))
     for X in connected_t0_spaces(4) if builtin_name(X) is None
     for tag, make in (("random", random_block_graph), ("singular", singular_block_graph))]


@pytest.mark.parametrize("name,G", SIX_TERM_GRAPHS, ids=[n for n, _ in SIX_TERM_GRAPHS])
def test_fk_module_six_term_maps_are_the_graphs(name, G):
    """The maps check_exact checks, built from fk_module's actions along the
    designated words, are the inclusion, restriction and connecting map of
    the graph's own six-term sequences: equal on K1 coordinates and equal
    modulo the relations of K0."""
    M = fk_module(G)
    for U, Y, compsU, compsE in G.space.six_term_pairs():
        f, g, h, _ = ntmod.six_term_maps(M, U, Y, compsU, compsE)
        for kind, hom, degree, (ev, od, rel) in zip(
                "fgh", (f, g, h), (0, 0, 1), graph_six_term_maps(G, U, Y)):
            at = f"{kind} of ({label(U)} ⊆ {label(Y)})"
            assert hom.degree == degree, at
            if degree == 0:
                k0, k0_ref, k1, k1_ref = hom.from_even, ev, hom.from_odd, od
            else:
                k0, k0_ref, k1, k1_ref = hom.from_odd, od, hom.from_even, ev
            assert k1.matrix == k1_ref, at
            assert dense_solve(rel, (k0.matrix - k0_ref).columns()) is not None, at


@pytest.mark.parametrize("graph", [ck_z3, ck_s])
def test_fk_module_factors_nothing(monkeypatch, graph):
    """The odd actions are coordinates in the Hermite kernel bases, read
    off by reduction with no Smith form."""
    G = graph()
    sc = space_category(G.space)
    calls = []
    real = zexact.smith
    monkeypatch.setattr(zexact, "smith", lambda A: calls.append(A) or real(A))
    fk_module(G, sc)
    assert calls == []


def test_check_exact_of_an_exact_module_factors_only_kernels(monkeypatch):
    M = fk_module(ck_z3())
    callers = []
    real = zexact.smith

    def smith(A):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(A)

    monkeypatch.setattr(zexact, "smith", smith)
    normal_forms = []
    real_nf = Presentation.normal_form
    monkeypatch.setattr(Presentation, "normal_form",
                        lambda P: normal_forms.append(P) or real_nf(P))
    assert check_exact(M).ok
    # every node is exact: the cycle lattices come from echelons, and no
    # kernel, cycle basis, quotient or target presentation is factored
    assert callers == []
    assert normal_forms == []


def _words(sc, length):
    """Every composable word of at most `length` generators, with its ends."""
    words = frontier = [((), Y, Y) for Y in sc.objects]
    for _ in range(length):
        frontier = [(w + (a.name,), s, a.dst) for w, s, d in frontier
                    for a in sc.presentation.by_src.get(d, ())]
        words = words + frontier
    return words


@pytest.mark.parametrize("module", [lambda: fk_module(ck_z3()),
                                    z1_right_module_with_i_acting_by_one])
def test_action_word_equals_the_uncached_loop(module):
    M = module()
    words = _words(M.category, 3)
    assert len({len(w) for w, _, _ in words}) == 4
    # longest first, so that shorter words come out of the cache
    for w, s, d in reversed(words):
        hom = M.action_word(w, s, d)
        assert hom == word_action(M, w, s, d)
        assert M.action_word(w, s, d) is hom


def _node_key(f, g):
    return (f.matrix, g.source.relations, g.matrix, g.target.relations)


def _map_key(h):
    return (h.matrix, tuple(h.target.relations.columns()))


def _record_node_work(monkeypatch):
    """Record the node table's work from here on: each map_echelon by its
    (matrix, target relations), each exact_node decision by the keys of
    its two echelons, and each node factored by _inexact_homology, which
    must take g's echelon from the table; a fresh subquotient_homology
    fails the test.  Returns the three lists."""
    echelons, decided, computed = [], [], []
    key_of = {}
    real_echelon, real_exact = ntmod.map_echelon, ntmod.exact_node
    real_inexact = ntmod._inexact_homology

    def map_echelon(h, relations):
        ech = real_echelon(h, relations)
        key_of[id(ech)] = (h, tuple(relations))
        echelons.append(key_of[id(ech)])
        return ech

    monkeypatch.setattr(ntmod, "map_echelon", map_echelon)
    monkeypatch.setattr(ntmod, "exact_node", lambda fe, ge, n: decided.append(
        (key_of[id(fe)], key_of[id(ge)])) or real_exact(fe, ge, n))

    def inexact(f, g, g_ech):
        assert key_of[id(g_ech)] == _map_key(g)
        computed.append(_node_key(f, g))
        return real_inexact(f, g, g_ech)

    monkeypatch.setattr(ntmod, "_inexact_homology", inexact)
    monkeypatch.setattr(ntmod, "subquotient_homology",
                        lambda f, g: pytest.fail("a node was computed afresh"))
    return echelons, decided, computed


def _assert_each_piece_once(nodes, work):
    """The recorded work is one echelon per distinct map, one decision per
    distinct node whose middle group has generators, and one factoring
    per such node that is not 0; returns the number of distinct nodes."""
    echelons, decided, computed = work
    live = [(f, g) for *_, f, g in nodes if g.source.generators]
    assert all(f.target.relations == g.source.relations for f, g in live)
    wanted = {(_map_key(f), _map_key(g)) for f, g in live}
    assert len(decided) == len(wanted) and set(decided) == wanted
    maps = {k for pair in wanted for k in pair}
    assert len(echelons) == len(maps) and set(echelons) == maps
    nonzero = {_node_key(f, g) for f, g in live
               if not zexact.subquotient_homology(f, g).group.is_trivial()}
    assert len(computed) == len(nonzero) and set(computed) == nonzero
    distinct = len({_node_key(f, g) for f, g in live})
    assert distinct == len(wanted)
    return distinct


@pytest.mark.parametrize("graph,exact_counts,tor_counts", [
    (ck_z3, (114, 54), (88, 48)),
    (ck_s, (84, 40), (88, 52)),
])
def test_each_distinct_node_is_factored_once_per_call(monkeypatch, graph,
                                                      exact_counts, tor_counts):
    """check_exact and tor(M, 3), each on a fresh fk_module whose node
    table starts empty, decide each distinct node whose middle group has
    generators once, from one augmented echelon per distinct (map, target
    relations), and factor a homology only at the nodes where it is not 0
    (none in check_exact of these exact modules), from the echelon of g
    already in the node table, never with a fresh subquotient_homology.
    Both run on M.reduced(), the module on pruned presentations, so its
    nodes are the reference."""
    for run, reference, (total, distinct) in [
            (check_exact, reference_six_term_nodes, exact_counts),
            (lambda M: tor(M, 3), lambda R: reference_tor_nodes(R, 3), tor_counts)]:
        M = fk_module(graph())
        nodes = reference(M.reduced())
        with monkeypatch.context() as patch:
            work = _record_node_work(patch)
            run(M)
        assert (len(nodes), _assert_each_piece_once(nodes, work)) == (total, distinct)
    # ck_z3 and ck_s are exact, so only tor computed groups
    assert work[2] and not check_exact(M).failures


@pytest.mark.parametrize("graph,distinct,echelons", [(ck_z3, 78, 62), (ck_s, 69, 50)])
def test_check_exact_and_tor_share_the_node_table_of_their_module(monkeypatch, graph,
                                                                  distinct, echelons):
    """check_exact then tor(M, 3) on one module build each distinct echelon
    and decide each distinct node exactly once across both calls, since
    both keep the node table on M.reduced().  Apart, the two calls take
    54 + 48 nodes and 45 + 38 echelons on ck_z3, 40 + 52 and 32 + 39 on
    ck_s.  Running either again builds nothing."""
    M = fk_module(graph())
    R = M.reduced()
    nodes = reference_six_term_nodes(R) + reference_tor_nodes(R, 3)
    work = _record_node_work(monkeypatch)
    exact, report = check_exact(M), tor(M, 3)
    assert (_assert_each_piece_once(nodes, work), len(work[0])) == (distinct, echelons)
    for calls in work:
        calls.clear()
    assert (check_exact(M), tor(M, 3).to_json()) == (exact, report.to_json())
    assert work == ([], [], [])


def _shared_nodes_modules():
    """(id, module builder) of a random and a singular graph of each of
    the six graph-corpus spaces, and of their modules tensored with Z/2,
    whose nodes are not all exact."""
    out = []
    for space in ("Z1", "Z2", "Z3", "S", "C2", "Z4"):
        rng = random.Random(f"shared-nodes/{space}")
        for kind, G in (("random", random_block_graph(space, rng)),
                        ("singular", singular_block_graph(space, rng))):
            out.append((f"{space}-{kind}", lambda G=G: fk_module(G)))
            out.append((f"{space}-{kind}-mod2", lambda G=G: fk_module(G).tensor_mod_k(2)))
    return out


@pytest.mark.parametrize("build", [pytest.param(b, id=i) for i, b in _shared_nodes_modules()])
def test_reports_from_the_shared_node_table_equal_those_from_fresh_tables(build):
    """check_exact and tor(M, 3) give the same reports whichever of them
    ran first on the module, as on fresh modules whose tables start
    empty, and as the references that compute each node on its own."""
    exact_first = build()
    reports = (check_exact(exact_first), tor(exact_first, 3).to_json())
    tor_first = build()
    report = tor(tor_first, 3).to_json()
    assert (check_exact(tor_first), report) == reports
    assert (check_exact(build()), tor(build(), 3).to_json()) == reports
    M = build()
    assert (reference_check_exact(M), reference_tor(M, 3).to_json()) == \
        (reports[0].failures, reports[1])


def _triangularity_graphs():
    """Seeded graphs over the builtins and the connected four-point spaces:
    a random triangular graph, the same graph with one edge added against
    the order, and a graph whose every entry is random."""
    rng = random.Random("one-pass-triangularity")
    spaces = [builtin_space(name) for name in BUILTIN_NAMES] + connected_t0_spaces(4)
    out = []
    for X in spaces:
        for _ in range(3):
            G = random_block_graph(X, rng)
            out.append(G)
            H = add_edges_against_the_order(G, rng, 1)
            if H is not G:
                out.append(H)
            sizes = [rng.randint(1, 2) for _ in X.points]
            m = sum(sizes)
            A = [[rng.choice((0, 0, 1, 2)) for _ in range(m)] for _ in range(m)]
            out.append(BlockGraph(X, list(zip(X.points, sizes)), IntMatrix(A)))
    return out


def _assert_triangularity_agrees_with_the_blocks(graphs):
    """G.triangular holds exactly when every block B'[Y∖U, U] is zero;
    graph_checks names the nonzero blocks in order, and k_groups refuses
    exactly the locally closed Y that have one.  Returns the verdicts."""
    verdicts = []
    for G in graphs:
        bad = nonzero_bprime_blocks(G)
        verdicts.append(G.triangular)
        assert G.triangular == (not bad)
        rep = graph_checks(G)
        assert rep.triangular == G.triangular
        named = [p for p in rep.problems if p.startswith("B'")]
        assert named == [f"B'[{label(Y - U)}, {label(U)}] is nonzero" for Y, U in bad]
        refused = {Y for Y, _ in bad}
        for lc in lc_subsets(G.space):
            if not lc.value:
                continue
            if lc.value in refused:
                with pytest.raises(GraphError, match="triangularity violated on"):
                    k_groups(G, lc.value)
            else:
                k_groups(G, lc.value)
    return verdicts


def test_one_pass_triangularity_agrees_with_the_per_subset_blocks():
    """BlockGraph.triangular and the problems and refusals read off its
    reversed edges agree with the per-subset blocks B'[Y∖U, U] (see
    _assert_triangularity_agrees_with_the_blocks).  Most of the graphs are
    not triangular."""
    verdicts = _assert_triangularity_agrees_with_the_blocks(_triangularity_graphs())
    assert (verdicts.count(True), verdicts.count(False)) == (56, 94)


def test_reversed_edges_agree_with_the_blocks_on_singular_graphs():
    """The same agreement on a singular_block_graph of each builtin and
    connected four-point space, and on that graph with one and with three
    edges added against the order: two vertices a block, each block's own
    edges fixed, so the reversed edges alone decide the blocks.  The
    one-point space has no pair against the order."""
    rng = random.Random("reversed-edges/singular")
    graphs = []
    for X in [builtin_space(name) for name in BUILTIN_NAMES] + connected_t0_spaces(4):
        G = singular_block_graph(X, rng)
        graphs += [G, add_edges_against_the_order(G, rng, 1),
                   add_edges_against_the_order(G, rng, 3)]
    verdicts = _assert_triangularity_agrees_with_the_blocks(graphs)
    assert (verdicts.count(True), verdicts.count(False)) == (19, 32)


def test_fk_module_block_diagonal_graph():
    # all coupling blocks zero: still a valid, exact module
    X = builtin_space("Z3")
    blocks = [("4", 1), ("1", 1), ("2", 1), ("3", 1)]
    A = [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]
    G = BlockGraph(X, blocks, IntMatrix(A))
    M = fk_module(G)
    assert validate(M).ok
    assert check_exact(M).ok
    rb = tor(M, 2, engine="builtin")
    rg = tor(M, 2, engine="generic")
    for Y in M.category.objects:
        for n in range(3):
            assert rb.groups[Y][n] == rg.groups[Y][n]


def test_a_graph_gets_the_category_of_its_points_and_opens():
    """A space is known by its points and opens: S's opens under the name
    Z3 give S's category and module, and so does an unnamed copy of S."""
    G = ck_s()
    renamed = space_from_json({**space_to_json(G.space), "name": "Z3"})
    G2 = BlockGraph(renamed, G.blocks, G.adjacency)
    M = fk_module(G2)
    assert M.category is builtin_category("S")
    assert M.to_json() == fk_module(G).to_json()
    assert s_fast_tor1(G2).group_odd == s_fast_tor1(G).group_odd
    with pytest.raises(GraphError, match="Z3 fast path"):
        z3_fast_tor1(G2)
    unnamed = FiniteSpace(G.space.points, G.space.opens)
    assert unnamed.name is None
    assert space_category(unnamed) is builtin_category("S")


def test_ck_z3_tor1_odd_is_z2_with_witnesses():
    G = ck_z3()
    fast = z3_fast_tor1(G)
    assert fast.group_odd == AbGroupNF(0, (2,))
    assert fast.group_even.is_trivial()
    num = tuple(abs(x) for x in fast.witnesses["numerator"])
    img = tuple(abs(x) for x in fast.witnesses["image"])
    assert num == (1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0)
    assert img == (2, 2, 0, 0, 2, 2, 0, 0, 2, 2, 0, 0)


def test_ck_s_identified_complex_and_generator():
    G = ck_s()
    fast = s_fast_tor1(G)
    assert fast.group_even == AbGroupNF(0, (2,))
    assert fast.group_odd.is_trivial()
    src, mid, end = fast.middle_groups
    assert src == AbGroupNF(2, (2,))            # Z + Z/2 + Z
    assert mid == AbGroupNF(1, (2, 2, 2, 2))    # (Z/2)^2 + Z + (Z/2)^2
    assert end == AbGroupNF(0, (2, 2, 2))       # (Z/2)^3
    assert is_generator(fast.homology, (0, 1, 1, 0, 1))


def test_s_fast_path_signs_on_a_graph_where_they_matter():
    # here d:1>234 r:13>1 does not vanish on K1(13), so a wrong sign on
    # either block of that column leaves d2∘d1 nonzero
    A = [[2, 1, 1, 1, 1, 1], [1, 2, 0, 0, 1, 0], [0, 0, 3, 0, 0, 2],
         [0, 0, 0, 2, 0, 1], [0, 0, 0, 0, 2, 2], [0, 0, 0, 0, 2, 2]]
    G = BlockGraph(builtin_space("S"), [("1", 2), ("2", 1), ("3", 1), ("4", 2)],
                   IntMatrix(A))
    fast = s_fast_tor1(G)
    assert tor_ck(G, 1).aggregate(1) == (fast.group_even, fast.group_odd)


def test_tor_ck_general_engine_matches_fast_paths_on_ck_examples():
    G = ck_z3()
    rep = tor_ck(G, 2)
    fast = z3_fast_tor1(G)
    assert rep.aggregate(1) == (fast.group_even, fast.group_odd)
    assert rep.is_zero(2)
    GS = ck_s()
    repS = tor_ck(GS, 2)
    fastS = s_fast_tor1(GS)
    assert repS.aggregate(1) == (fastS.group_even, fastS.group_odd)
    assert repS.is_zero(2)


@pytest.mark.parametrize("space_name,seed", [("Z3", 0), ("Z3", 1), ("S", 2),
                                             ("S", 3), ("C2", 4), ("C2", 5)])
def test_random_graphs_exact_tor2_zero_pd_at_most_2(space_name, seed):
    rng = random.Random(seed)
    G = random_block_graph(space_name, rng)
    M = fk_module(G)
    assert validate(M).ok
    assert check_exact(M).ok
    rep = tor(M, 2)
    assert rep.is_zero(2)
    assert projective_dimension(M, 2) is not None


def test_fast_path_matches_general_on_20_random_graphs_per_space():
    from conftest import graph_corpus, graph_tor3
    for space_name, fast_fn in (("Z3", z3_fast_tor1), ("S", s_fast_tor1)):
        for idx, G in enumerate(graph_corpus(space_name)):
            fast = fast_fn(G)
            rep = graph_tor3(space_name, idx)
            assert rep.aggregate(1) == (fast.group_even, fast.group_odd), \
                (space_name, idx)


def test_c2_tor1_localizes_to_the_four_exceptional_objects():
    # for exact modules over the pseudocircle, Tor_1(S_Y, -) vanishes
    # unless Y is one of 123, 124, 1, 2, and Tor_n = 0 for n >= 2
    from conftest import graph_corpus, graph_tor3
    objs = None
    for idx, G in enumerate(graph_corpus("C2")[:8]):
        rep = graph_tor3("C2", idx)
        for Y, degs in rep.groups.items():
            for n in (2, 3):
                ev, od = degs[n]
                assert ev.is_trivial() and od.is_trivial(), (idx, Y, n)
            if Y not in ("123", "124", "1", "2"):
                ev, od = degs[1]
                assert ev.is_trivial() and od.is_trivial(), (idx, Y)


def test_one_point_space_graph_tor_vanishes():
    X = point_space()
    G = BlockGraph(X, [("1", 2)], IntMatrix([[2, 1], [1, 2]]))
    M = fk_module(G)
    assert validate(M).ok
    rep = tor(M, 2)
    for n in (1, 2):
        assert rep.is_zero(n)


def test_delta_sign_flip_leaves_tor_invariant():
    rng = random.Random(21)
    G = random_block_graph("S", rng)
    M = fk_module(G)
    from fktor.ntmod import GradedModule
    flipped = {}
    for name, h in M.actions.items():
        a = M.category.presentation.arrows[name]
        flipped[name] = -h if a.parity == 1 else h
    M2 = GradedModule(M.category, "left", M.entries, flipped)
    assert validate(M2).ok
    r1, r2 = tor(M, 2), tor(M2, 2)
    for Y in M.category.objects:
        for n in range(3):
            assert r1.groups[Y][n] == r2.groups[Y][n]
