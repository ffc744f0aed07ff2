"""Change of presentation: exactness and Tor are invariants of a module up
to isomorphism, so twisting each entry's generators by a unimodular matrix
must change no exactness report and no Tor report, and neither must the
pruned presentations check_exact and tor run on (GradedModule.reduced).
The shift M[1] swaps the parities of every Tor group and of every failing
six-term node, and Tor of a direct sum is the direct sum of the Tor
groups.  Renumbering the vertices inside the blocks of a graph gives an
isomorphic graph over the same space, so it changes no K-group, no
exactness verdict and no Tor report, and neither does splitting a vertex
(Bates–Pask out- and in-splits, the new vertices in the old one's
block).

Each relation is checked on random_block_graphs, whose K₁ is 0 on nearly
every subset, and on singular_block_graphs, whose K₁ is nonzero on every
block, so that the odd actions and the boundary maps carry something."""

import random

import pytest

from conftest import (direct_sum_module, in_split, matrix_of_columns, nf_direct_sum,
                      out_split, permute_within_blocks, random_block_graph,
                      reference_check_exact, shifted_module, singular_block_graph)

from fktor.graphk import fk_module, graph_checks, k_groups
from fktor.ntcat import builtin_category
from fktor.ntmod import (GradedModule, _along, check_exact, free_module,
                         resolution_for, tor, tor_single, validate)
from fktor.zexact import (GradedGroup, GradedHom, GroupHom, IntMatrix,
                          Presentation)

SEED = 2026
DEGREE = 3


def unimodular(rng, n, steps=6):
    """A random unimodular U and its inverse, as products of elementary
    row operations: adding a multiple of one row to another, swapping two
    rows, negating a row."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [row[:] for row in U]  # U^-1, built by the inverse column operations
    for _ in range(steps if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            q = rng.choice([-2, -1, 1, 2])
            U[i] = [a + q * b for a, b in zip(U[i], U[j])]
            for row in V:
                row[j] -= q * row[i]
        elif kind == 1:
            U[i], U[j] = U[j], U[i]
            for row in V:
                row[i], row[j] = row[j], row[i]
        else:
            U[i] = [-a for a in U[i]]
            for row in V:
                row[i] = -row[i]
    return IntMatrix(U, n, n), IntMatrix(V, n, n)


def twisted(M, rng):
    """M with every entry's generators changed by a random unimodular U:
    the relations become U·R and each action U_t·h·U_s^-1."""
    change = {obj: [unimodular(rng, P.generators) for P in (g.even, g.odd)]
              for obj, g in M.entries.items()}
    entries = {obj: GradedGroup(*(Presentation(P.generators, U * P.relations)
                                  for P, (U, _) in zip((g.even, g.odd), change[obj])))
               for obj, g in M.entries.items()}
    actions = {}
    for name, h in M.actions.items():
        a = M.category.presentation.arrows[name]
        s, d = _along(M.variance, a.src, a.dst)
        mats = [change[d][p ^ h.degree][0] * h.component(p).matrix * change[s][p][1]
                for p in (0, 1)]
        actions[name] = GradedHom.build(h.degree, entries[s], entries[d], *mats)
    return GradedModule(M.category, M.variance, entries, actions)


def singular_graphs(salt):
    """(space, singular_block_graph) for each corpus space, from its own
    seed, so that adding them moves none of the random graphs."""
    rng = random.Random(SEED + 100 + salt)
    return [(space, singular_block_graph(space, rng)) for space in ("Z3", "S", "C2", "Z4")]


def corpus():
    rng = random.Random(SEED)
    for space in ("Z3", "S", "C2", "Z4"):
        for i in range(2):
            M = fk_module(random_block_graph(space, rng, max_vertices=2))
            yield f"{space}/graph{i}", M
            yield f"{space}/graph{i}/Z2", M.tensor_mod_k(2)
    for space, G in singular_graphs(0):
        M = fk_module(G)
        yield f"{space}/singular", M
        yield f"{space}/singular/Z2", M.tensor_mod_k(2)


CORPUS = list(corpus())


def exact_report(M):
    rep = check_exact(M)
    return rep.ok, rep.failures


def test_unimodular_inverts():
    rng = random.Random(SEED)
    for n in range(5):
        U, V = unimodular(rng, n)
        assert U * V == IntMatrix.identity(n) == V * U


@pytest.mark.parametrize("name,M", CORPUS, ids=[name for name, _ in CORPUS])
def test_a_change_of_presentation_keeps_exactness_and_tor(name, M):
    T = twisted(M, random.Random(f"{SEED} {name}"))
    assert validate(T).ok
    assert exact_report(T) == exact_report(M)
    assert tor(T, DEGREE).to_json() == tor(M, DEGREE).to_json()


@pytest.mark.parametrize("name,M", CORPUS, ids=[name for name, _ in CORPUS])
def test_the_reduced_module_is_valid_and_agrees_with_the_unreduced_loops(name, M):
    """check_exact and tor run on M.reduced(); the uncached six-term loop
    and tor_single run on M itself."""
    R = M.reduced()
    assert R is not M and R.reduced() is R and M.reduced() is R
    assert validate(R).ok
    failures = reference_check_exact(M)
    assert exact_report(M) == (not failures, failures)
    assert sum(P.generators for g in R.entries.values() for P in (g.even, g.odd)) < \
        sum(P.generators for g in M.entries.values() for P in (g.even, g.odd))
    rep = tor(M, DEGREE)
    sc = M.category
    for Y in sc.objects:
        res = resolution_for(sc, Y, DEGREE + 1)
        for k in range(DEGREE + 1):
            assert rep.groups[Y][k] == tor_single(res, M, k), (Y, k)


def test_a_module_that_does_not_prune_is_its_own_reduced_module():
    M = free_module(builtin_category("Z3"), "4", "left")
    assert M.reduced() is M


def random_presentation(rng, n, m):
    """n generators and m relations, sparse, with some unit entries."""
    cols = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n)] for _ in range(m)]
    return Presentation(n, matrix_of_columns(cols, n))


@pytest.mark.parametrize("trial", range(40))
def test_pruning_keeps_the_group_and_includes_the_kept_generators(trial):
    rng = random.Random(SEED * 1000 + trial)
    P = random_presentation(rng, rng.randint(0, 7), rng.randint(0, 8))
    Q, to_new, kept = P.pruned()
    n = P.generators
    assert Q.normal_form() == P.normal_form()
    assert (to_new.rows, to_new.cols) == (Q.generators, n) and len(kept) == Q.generators
    assert to_new.submatrix(range(Q.generators), kept) == IntMatrix.identity(Q.generators)
    # to_new and the inclusion of the kept generators are inverse
    # isomorphisms of presented groups
    inc = matrix_of_columns([[int(i == k) for i in range(n)] for k in kept], n)
    forward, back = GroupHom(P, Q, to_new), GroupHom(Q, P, inc)
    assert forward.is_well_defined() and back.is_well_defined()
    assert to_new * inc == IntMatrix.identity(Q.generators)
    assert GroupHom(P, P, inc * to_new - IntMatrix.identity(n)).is_zero_hom()
    # no unit entry is left to eliminate
    assert not any(abs(x) == 1 for row in Q.relations.data for x in row)
    if Q is P:
        assert kept == tuple(range(n))


def test_pruning_a_hand_example():
    # the first relation g0 + g1 = 0 has units at g0 and g1; g1 lies in
    # fewer relations, so g1 = -g0 goes, and 2 g0 + 3 g2 = 0 and 4 g2 = 0
    # remain
    P = Presentation(3, IntMatrix([[1, 2, 0], [1, 0, 0], [0, 3, 4]]))
    Q, to_new, kept = P.pruned()
    assert kept == (0, 2)
    assert to_new == IntMatrix([[1, -1, 0], [0, 0, 1]])
    assert Q.relations == IntMatrix([[2, 0], [3, 4]])
    assert Q.normal_form() == P.normal_form()


def swap_parities(failure):
    return failure.replace(" even:", " odd*").replace(" odd:", " even:").replace(" odd*", " odd:")


SHIFT_CORPUS = [(name, M) for name, M in CORPUS if "/graph0" in name or "/singular" in name]


@pytest.mark.parametrize("name,M", SHIFT_CORPUS, ids=[name for name, _ in SHIFT_CORPUS])
def test_the_shift_swaps_the_parities_of_tor_and_of_failing_nodes(name, M):
    S = shifted_module(M)
    assert validate(S).ok
    rep = check_exact(M)
    shifted = check_exact(S)
    assert shifted.ok == rep.ok
    assert sorted(shifted.failures) == sorted(map(swap_parities, rep.failures))
    assert tor(S, DEGREE).groups == {
        Y: {k: (odd, even) for k, (even, odd) in degs.items()}
        for Y, degs in tor(M, DEGREE).groups.items()}


def sum_pairs():
    """One pair per corpus space: an fk module and the tensor_mod_k(2) of
    another, so that the sum has torsion."""
    rng = random.Random(SEED + 1)
    for space in ("Z1", "Z2", "Z3", "S", "C2", "Z4"):
        M = fk_module(random_block_graph(space, rng, max_vertices=2))
        N = fk_module(random_block_graph(space, rng, max_vertices=2)).tensor_mod_k(2)
        yield space, M, N
    for space, G in singular_graphs(1):
        M = fk_module(G)
        yield f"{space}/singular", M, M.tensor_mod_k(2)


SUM_PAIRS = list(sum_pairs())


@pytest.mark.parametrize("space,M,N", SUM_PAIRS, ids=[space for space, _, _ in SUM_PAIRS])
def test_tor_of_a_direct_sum_is_the_direct_sum_of_the_tor_groups(space, M, N):
    MN = direct_sum_module(M, N)
    assert validate(MN).ok
    assert check_exact(MN).ok == (check_exact(M).ok and check_exact(N).ok)
    left, right = tor(M, DEGREE), tor(N, DEGREE)
    assert tor(MN, DEGREE).groups == {
        Y: {k: tuple(map(nf_direct_sum, left.groups[Y][k], right.groups[Y][k]))
            for k in degs}
        for Y, degs in left.groups.items()}


def block_permutation_pairs():
    rng = random.Random(SEED + 2)
    for space in ("Z3", "S", "C2", "Z4"):
        for i in range(2):
            G = random_block_graph(space, rng)
            yield f"{space}/graph{i}", G, permute_within_blocks(G, rng)
    for space, G in singular_graphs(2):
        yield f"{space}/singular", G, permute_within_blocks(G, rng)


PERMUTED = list(block_permutation_pairs())


def test_the_block_permutations_renumber_vertices():
    assert sum(G.adjacency != H.adjacency for _, G, H in PERMUTED) >= len(PERMUTED) // 2
    assert all(H.blocks == G.blocks for _, G, H in PERMUTED)


def assert_same_invariants(G, H):
    """H has G's K₀/K₁ normal forms on every locally closed subset, its
    check_exact report and its Tor report."""
    for lc in G.space.lc_star():
        k, k_moved = k_groups(G, lc.value), k_groups(H, lc.value)
        assert (k_moved.k0_nf(), k_moved.k1_nf()) == (k.k0_nf(), k.k1_nf()), lc.label
    M, N = fk_module(G), fk_module(H)
    assert exact_report(N) == exact_report(M)
    assert tor(N, DEGREE).to_json() == tor(M, DEGREE).to_json()


@pytest.mark.parametrize("name,G,H", PERMUTED, ids=[name for name, _, _ in PERMUTED])
def test_permuting_the_vertices_inside_a_block_changes_nothing(name, G, H):
    assert_same_invariants(G, H)


def split_moves():
    rng = random.Random(SEED + 3)
    for space in ("Z3", "S", "C2", "Z4"):
        for i in range(2):
            G = random_block_graph(space, rng, max_vertices=2)
            for move in (out_split, in_split):
                yield f"{space}/graph{i}/{move.__name__}", G, move(G, rng)
    for space, G in singular_graphs(3):
        for move in (out_split, in_split):
            yield f"{space}/singular/{move.__name__}", G, move(G, rng)


SPLITS = list(split_moves())


@pytest.mark.parametrize("name,G,H", SPLITS, ids=[name for name, _, _ in SPLITS])
def test_splitting_a_vertex_changes_nothing(name, G, H):
    """The split graph has one vertex more, in one block, and passes the
    graph checks; its K-groups, exactness and Tor are G's."""
    assert H.n == G.n + 1
    assert [k for _, k in H.blocks] != [k for _, k in G.blocks]
    assert [p for p, _ in H.blocks] == [p for p, _ in G.blocks]
    assert sum(map(sum, H.adjacency.data)) > sum(map(sum, G.adjacency.data))
    report = graph_checks(H)
    assert report.triangular and report.no_sinks and report.no_sources, report.problems
    assert_same_invariants(G, H)
