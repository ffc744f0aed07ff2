from itertools import combinations

import pytest
from conftest import connected_t0_spaces

from fktor.finspace import (
    BUILTIN_NAMES, FiniteSpace, SpaceError, builtin_name, builtin_space,
    hasse_edges,
    is_accordion_union, label, lc_subsets, point_space,
    pseudocircle, s_space, space_from_json, space_to_json, z_space,
)


def labels(lcs):
    return [lc.label for lc in lcs]


# ---------------------------------------------------------------------------
# Builders and validation
# ---------------------------------------------------------------------------

def test_z3_opens():
    X = z_space(3)
    assert len(X.points) == 4
    for o in X.opens:
        assert not o or "4" in o
    assert len(X.opens) == 9  # all sets containing 4, plus empty


@pytest.mark.parametrize("m", [True, 2.0, "3", None, 0, 9])
def test_z_space_needs_an_integer_from_1_to_8(m):
    with pytest.raises(SpaceError, match="integer 1 <= m <= 8"):
        z_space(m)


def test_s_space_opens():
    X = s_space()
    expected = {frozenset(), frozenset("4"), frozenset("24"), frozenset("34"),
                frozenset("234"), frozenset("1234")}
    assert X.opens == expected


def test_point_space():
    X = point_space()
    assert X.opens == {frozenset(), frozenset({"1"})}


def test_non_topology_rejected():
    with pytest.raises(SpaceError):
        FiniteSpace(["1", "2", "3"], [set(), {"1"}, {"2"}, {"1", "2", "3"}])


def test_non_t0_accepted_but_flagged():
    X = FiniteSpace(["1", "2"], [set(), {"1", "2"}])
    assert not X.is_t0()
    with pytest.raises(SpaceError):
        hasse_edges(X)


def test_json_round_trip():
    X = pseudocircle()
    Y = space_from_json(space_to_json(X))
    assert Y.opens == X.opens and Y.points == X.points
    assert builtin_space("Z3").opens == z_space(3).opens


def test_json_reads_builtin_and_string_forms():
    assert space_from_json({"builtin": "S"}).opens == s_space().opens
    X = space_from_json('{"points": ["1", "2"], "opens": [[], ["2"], ["1", "2"]],'
                        ' "name": "Z1"}')
    assert X.opens == z_space(1).opens and X.name == "Z1"


MALFORMED_SPACES = {
    "list-root": [],
    "json-list-root": "[1, 2]",
    "not-json": "not json",
    "no-points": {"opens": [[], ["1"]]},
    "no-opens": {"points": ["1"]},
    "points-string": {"points": "1", "opens": [[], ["1"]]},
    "opens-string": {"points": ["1"], "opens": "1"},
    "opens-object": {"points": ["1"], "opens": {"a": ["1"]}},
    "int-point": {"points": [1], "opens": [[], [1]]},
    "null-point": {"points": ["1", None], "opens": [[], ["1", None]]},
    "int-in-open": {"points": ["1"], "opens": [[], [1]]},
    "string-open-set": {"points": ["1", "2"], "opens": [[], ["2"], "12"]},
    "repeated-point": {"points": ["1", "1"], "opens": [[], ["1"]]},
    "two-character-point": {"points": ["1", "2", "12"],
                            "opens": [[], ["2"], ["1", "2"], ["12"], ["2", "12"],
                                      ["1", "2", "12"]]},
    "empty-point-name": {"points": [""], "opens": [[], [""]]},
    "int-name": {"points": ["1"], "opens": [[], ["1"]], "name": 7},
    "list-builtin": {"builtin": ["Z1"]},
    "unknown-builtin": {"builtin": "Q"},
}


@pytest.mark.parametrize("data", list(MALFORMED_SPACES.values()),
                         ids=list(MALFORMED_SPACES))
def test_malformed_space_json_raises_space_error(data):
    with pytest.raises(SpaceError):
        space_from_json(data)


def test_point_names_are_single_characters():
    # a subset is named by the concatenation of its points, so a point "12"
    # would share its name with the subset {1, 2}: LC(X)* would list 12 twice
    with pytest.raises(SpaceError, match="one-character"):
        FiniteSpace(["1", "2", "12"], [[], ["2"], ["1", "2"], ["12"], ["2", "12"],
                                       ["1", "2", "12"]])
    with pytest.raises(SpaceError, match="one-character"):
        FiniteSpace([1], [[], [1]])
    with pytest.raises(SpaceError):
        z_space(9)
    assert z_space(8).points[-1] == "9"


def test_repeated_points_are_refused():
    # kept, ('1', '1') would make a space that is not T0 from a one-point one
    with pytest.raises(SpaceError, match="distinct"):
        FiniteSpace(["1", "1"], [[], ["1"]])


@pytest.mark.parametrize("opens", [[[], ["1", "2"], 5], [[], ["1", "2"], None],
                                   [[], ["1", "2"], [["1"]]], None],
                         ids=["int-open", "None-open", "unhashable-point", "None"])
def test_an_open_that_is_not_an_iterable_of_points_is_refused(opens):
    with pytest.raises(SpaceError, match="iterables of points"):
        FiniteSpace(["1", "2"], opens)


@pytest.mark.parametrize("name", ["Z5", "Z04", "Z\u0663"])
def test_builtin_space_refuses_names_outside_the_builtin_list(name):
    # Z5 has no table, Z04 is Z4 misspelt, and "Z٣" has a non-ASCII digit
    with pytest.raises(SpaceError):
        builtin_space(name)


def test_builtin_space_builds_every_builtin_name():
    for name in BUILTIN_NAMES:
        assert builtin_space(name).name == name


def test_spaces_are_known_by_points_and_opens_not_by_name():
    S = builtin_space("S")
    renamed = FiniteSpace(S.points, S.opens, name="Z3")
    assert renamed == S and hash(renamed) == hash(S)
    assert renamed != builtin_space("C2") and renamed != "S"
    assert builtin_name(renamed) == "S"
    assert builtin_name(FiniteSpace(S.points, S.opens)) == "S"
    assert [builtin_name(builtin_space(n)) for n in BUILTIN_NAMES] == list(BUILTIN_NAMES)
    chain = FiniteSpace("1234", ["", "4", "34", "234", "1234"], name="Z3")
    assert builtin_name(chain) is None


# ---------------------------------------------------------------------------
# Locally closed subsets
# ---------------------------------------------------------------------------

def test_lc_star_pseudocircle_reference_list():
    got = set(labels(pseudocircle().lc_star()))
    assert got == {"3", "4", "134", "234", "1234", "13", "14", "23", "24",
                   "124", "123", "1", "2"}
    assert len(got) == 13


def test_lc_star_z3():
    got = set(labels(z_space(3).lc_star()))
    assert got == {"1", "2", "3", "4", "14", "24", "34", "124", "134", "234",
                   "1234"}


def test_lc_star_s_space():
    got = set(labels(s_space().lc_star()))
    assert got == {"4", "24", "34", "234", "1234", "123", "12", "13",
                   "1", "2", "3"}


def test_lc_star_is_a_subset_of_lc_subsets():
    for name in ("Z1", "Z2", "Z3", "S", "C2"):
        X = builtin_space(name)
        every = {lc.value for lc in lc_subsets(X)}
        conn = {lc.value for lc in X.lc_star()}
        assert conn <= every


def brute_force_lc(X):
    """Oracle: S is locally closed iff S = U \\ V for opens V ⊆ U."""
    pts = list(X.points)
    out = set()
    for k in range(len(pts) + 1):
        for sub in combinations(pts, k):
            s = frozenset(sub)
            if any(v <= u and u - v == s for u in X.opens for v in X.opens):
                out.add(s)
    return out


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "Z4", "S", "C2"])
def test_lc_oracle_equivalence(name):
    X = builtin_space(name)
    assert {lc.value for lc in lc_subsets(X)} == brute_force_lc(X)
    for lc in lc_subsets(X):
        assert lc.witness_u - lc.witness_v == lc.value
        assert X.is_locally_closed(lc.value)


def test_witnesses_validate():
    for lc in s_space().lc_star():
        assert lc.witness_v <= lc.witness_u


# ---------------------------------------------------------------------------
# Open pairs
# ---------------------------------------------------------------------------

def pairs_on(X, Y):
    """The (U, Y∖U) of the six-term pairs of X on the total space Y."""
    return [(U, YY - U) for U, YY, _, _ in X.six_term_pairs() if YY == frozenset(Y)]


def test_open_pairs_singleton_trivial():
    # a point has only the trivial pairs, which six_term_pairs leaves out
    X = z_space(3)
    assert X.relative_opens(frozenset("4")) == [frozenset(), frozenset("4")]
    assert pairs_on(X, "4") == []


def test_open_pairs_full_z3():
    X = z_space(3)
    us = {label(u) for u, _ in pairs_on(X, "1234")}
    assert {"4", "14", "24", "34", "124", "134", "234"} <= us


def test_open_pairs_s_space_234():
    X = s_space()
    us = {label(u) for u, _ in pairs_on(X, "234")}
    assert {"4", "24", "34"} <= us


def test_open_pairs_requires_locally_closed():
    X = s_space()
    assert not X.is_locally_closed(frozenset("14"))
    assert all(Y != frozenset("14") for _, Y, _, _ in X.six_term_pairs())


def reference_lc_star(X):
    """Oracle for lc_star, from the opens alone: every subset S = U∖V for
    opens V ⊆ U that is nonempty and has no relatively clopen piece other
    than ∅ and S, sorted by (size, label)."""
    pts = sorted(X.points)
    subsets = [frozenset(c) for k in range(1, len(pts) + 1) for c in combinations(pts, k)]
    lc = [s for s in subsets
          if any(v <= u and u - v == s for u in X.opens for v in X.opens)]
    return [s for s in lc if reference_components(X, s) == [s]]


def reference_components(X, S):
    """The minimal nonempty relatively clopen subsets of S, by label."""
    rel = {o & S for o in X.opens}
    clopen = [A for A in rel if A and S - A in rel]
    return sorted((A for A in clopen if not any(B < A for B in clopen)),
                  key=lambda A: "".join(sorted(A)))


def reference_six_term_pairs(X):
    """Oracle for six_term_pairs: for each Y of reference_lc_star, each
    relatively open ∅ ⊊ U ⊊ Y by (size, label), with the components of U
    and of Y∖U."""
    out = []
    for Y in reference_lc_star(X):
        opens = sorted({o & Y for o in X.opens} - {frozenset(), Y},
                       key=lambda U: (len(U), "".join(sorted(U))))
        out += [(U, Y, tuple(reference_components(X, U)),
                 tuple(reference_components(X, Y - U))) for U in opens]
    return out


@pytest.mark.parametrize("X", [builtin_space(n) for n in BUILTIN_NAMES]
                         + [X for n in range(1, 6) for X in connected_t0_spaces(n)],
                         ids=lambda X: X.name)
def test_lc_star_and_six_term_pairs_match_the_brute_force_lists(X):
    assert [lc.value for lc in X.lc_star()] == reference_lc_star(X)
    assert X.six_term_pairs() == reference_six_term_pairs(X)
    assert X.lc_star() is X.lc_star() and X.six_term_pairs() is X.six_term_pairs()


# ---------------------------------------------------------------------------
# Accordions
# ---------------------------------------------------------------------------

def test_accordion_verdicts():
    assert is_accordion_union(z_space(1))
    assert is_accordion_union(z_space(2))  # path 1-3-2
    assert not is_accordion_union(z_space(3))  # star with 3 leaves
    assert not is_accordion_union(pseudocircle())  # 4-cycle
    assert not is_accordion_union(s_space())
    assert is_accordion_union(point_space())


def all_t0_spaces_on(points):
    """Enumerate all T0 topologies on a small point set (as up-set families
    of all partial orders, via reflexive transitive antisymmetric relations).
    Brute force over all relations is too big; use all DAGs on <=3 points."""
    n = len(points)
    pairs = [(a, b) for a in points for b in points if a != b]
    for mask in range(2 ** len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if mask >> i & 1}
        # transitive closure
        closed = set(rel)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(closed):
                for (c, d) in list(closed):
                    if b == c and (a, d) not in closed:
                        closed.add((a, d))
                        changed = True
        if closed != rel:
            continue  # only transitively closed relations
        if any((a, b) in rel and (b, a) in rel for (a, b) in rel):
            continue  # antisymmetry
        # opens = up-sets
        opens = []
        for k in range(n + 1):
            for sub in combinations(points, k):
                s = set(sub)
                if all(b in s for a in s for (aa, b) in rel if aa == a):
                    opens.append(s)
        yield FiniteSpace(points, opens)


def test_accordion_agrees_with_bruteforce_on_3_point_spaces():
    def brute(X):
        edges = hasse_edges(X)
        adj = {p: set() for p in X.points}
        for x, y in edges:
            adj[x].add(y)
            adj[y].add(x)
        for comp in X.components(X.points):
            nodes = sorted(comp)
            sub = {p: adj[p] & comp for p in nodes}
            m = sum(len(v) for v in sub.values()) // 2
            if m != len(nodes) - 1 or any(len(v) > 2 for v in sub.values()):
                return False
        return True

    count = 0
    for X in all_t0_spaces_on(("a", "b", "c")):
        assert is_accordion_union(X) == brute(X)
        count += 1
    assert count > 5


# ---------------------------------------------------------------------------
# Connectivity details
# ---------------------------------------------------------------------------

def test_components_of_discrete_subspace():
    X = z_space(3)
    comps = X.components(frozenset("123"))
    assert [label(c) for c in comps] == ["1", "2", "3"]


def test_s_space_12_connected_23_not():
    X = s_space()
    assert X.is_connected(frozenset("12"))
    assert not X.is_connected(frozenset("23"))


def test_z3_34_connected():
    X = z_space(3)
    assert X.is_connected(frozenset("34"))
