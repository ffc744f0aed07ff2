import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cached_property, lru_cache

import pytest

from conftest import (HAND_ARROWS, bnd_block_reference, connected_t0_spaces,
                      eval_combo, graded_rank, matrix_of_columns, nil_digest, smith_dense,
                      word_post_matrix, word_pre_matrix)

from fktor.finspace import (BUILTIN_NAMES, FiniteSpace, SpaceError, builtin_name,
                            builtin_space, is_accordion_union, space_to_json)
import fktor.finspace as finspace
import fktor.ntcat as ntcat
import fktor.zexact as zexact
from fktor.ntcat import (
    Arrow, CatPresentation, CategoryError, Designator, Element,
    InconsistentRelationError,
    NonStabilizedError, SpaceCategory, build_category, builtin_category,
    builtin_presentation, combo_add, combo_compose, derive_arrows,
    generate_relations, hom_closure, ideal_checks, nil_basis, space_category,
    table_from_json, table_to_json,
)
from fktor.ntmod import CatalogueError, resolution_for
from fktor.zexact import (Echelon, IntMatrix, Presentation, SmithForm, hnf_columns, smith,
                          solve_columns)


def W(*names):
    return {tuple(names): 1}


def cat(name):
    return builtin_category(name)


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------

def test_builtin_object_counts():
    assert len(cat("Z3").objects) == 11
    assert len(cat("Z4").objects) == 20
    assert len(cat("C2").objects) == 13
    assert len(cat("S").objects) == 11


@pytest.mark.parametrize("name", ["pt", "Z1", "Z2", "Z3", "Z4", "S", "C2"])
def test_derived_arrows_equal_hand_quivers(name):
    hand = sorted(HAND_ARROWS[name](), key=lambda a: a.name)
    assert derive_arrows(builtin_space(name)) == hand


def test_derive_arrows_lists_lc_star_once(monkeypatch):
    calls = []
    real = finspace.lc_subsets
    monkeypatch.setattr(finspace, "lc_subsets",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    # 129 candidates for Z4, each tried on its own Designator
    assert len(derive_arrows(builtin_space("Z4"))) == 40
    assert len(calls) == 1


def chain():
    """The chain 1 < 2 < 3 < 4: a four-point space that is not builtin."""
    return FiniteSpace("1234", ["", "4", "34", "234", "1234"])


def test_a_four_point_space_that_is_not_builtin_builds():
    X = chain()
    arrows = derive_arrows(X)
    assert [a.name for a in arrows] == [
        "d:123>4", "d:12>34", "d:1>234", "i:234>1234", "i:23>123", "i:2>12",
        "i:34>234", "i:3>23", "i:4>34", "r:1234>123", "r:123>12", "r:12>1",
        "r:234>23", "r:23>2", "r:34>3"]
    sc = space_category(X)
    assert sc is space_category(chain()) and sc.space == X
    assert sc.presentation.reconstructed is True
    assert len(sc.objects) == 10 and sc.table.total_rank() == 50
    data = ideal_checks(sc.table)
    assert data.nilpotent and data.semidirect
    assert is_accordion_union(X)
    # built at the documented bound 10
    at_10 = SpaceCategory(X, sc.presentation, hom_closure(sc.presentation, 10),
                          sc.designator)
    assert table_to_json(sc) == table_to_json(at_10)
    # the builtin resolution engine goes by points and opens, not by name
    named_z3 = build_category(FiniteSpace(X.points, X.opens, name="Z3"))
    with pytest.raises(CatalogueError):
        resolution_for(named_z3, "1", 2, engine="builtin")


def test_bound_and_flag_follow_points_and_opens_not_the_name(monkeypatch):
    Z2 = builtin_space("Z2")
    unnamed = build_category(FiniteSpace(Z2.points, Z2.opens))
    assert unnamed.table.reps == builtin_category("Z2").table.reps
    assert unnamed.presentation.reconstructed is False
    monkeypatch.setitem(ntcat.DEFAULT_MAX_LEN, "Z2", 2)
    with pytest.raises(NonStabilizedError):
        hom_closure(unnamed.presentation)


def test_a_bound_that_does_not_stabilize_is_not_retried(monkeypatch):
    X = chain()
    with pytest.raises(NonStabilizedError):
        hom_closure(space_category(X).presentation, max_len=2)
    calls = []

    def short(pres, max_len=None):
        calls.append(max_len)
        return hom_closure(pres, max_len=2)

    monkeypatch.setattr(ntcat, "_CATEGORY_CACHE", {})
    monkeypatch.setattr(ntcat, "hom_closure", short)
    with pytest.raises(NonStabilizedError):
        space_category(X)
    assert calls == [None] and ntcat._CATEGORY_CACHE == {}


def test_a_space_that_is_not_t0_is_refused():
    X = FiniteSpace("12", ["", "12"])
    with pytest.raises(CategoryError, match="T0"):
        space_category(X)


DERIVE_SCRIPT = """
import hashlib, json
from fktor.finspace import builtin_space
from fktor.ntcat import build_category, derive_arrows, table_to_json
for name in ("Z3", "C2"):
    print([a.name for a in derive_arrows(builtin_space(name))])
table = json.dumps(table_to_json(build_category(builtin_space("Z2"))), sort_keys=True)
print(hashlib.sha256(table.encode()).hexdigest())
"""


def test_derivation_is_the_same_in_every_process():
    src = os.path.dirname(os.path.dirname(ntcat.__file__))
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", DERIVE_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1] and outs[0].count("\n") == 3


def test_unknown_space_rejected():
    with pytest.raises(CategoryError):
        builtin_presentation("Q7")


def test_reconstructed_flags():
    assert cat("C2").presentation.reconstructed
    assert cat("S").presentation.reconstructed
    assert not cat("Z3").presentation.reconstructed


def test_presentation_json_round_trip():
    pres = cat("Z1").presentation
    clone = CatPresentation.from_json(pres.to_json())
    assert sorted(clone.arrows) == sorted(pres.arrows)
    assert len(clone.relations) == len(pres.relations)


# ---------------------------------------------------------------------------
# Hom tables: reference facts
# ---------------------------------------------------------------------------

def test_pseudocircle_total_end_is_Z_plus_Z_shifted():
    t = cat("C2").table
    assert graded_rank(t, "1234", "1234") == (1, 1)


def test_pseudocircle_odd_loop_word_and_square_zero():
    # the odd endomorphism generated by 1234 -r-> 1 -d-> 3 -i-> 1234
    t = cat("C2").table
    w = ("r:1234>123", "r:123>1", "d:1>3", "i:3>134", "i:134>1234")
    el = eval_combo(t, "1234", {w: 1})
    assert el.parity == 1 and not el.is_zero()
    sq = t.compose(el, el)
    assert sq.is_zero()


def test_one_object_category_trivial_end():
    t = cat("pt").table
    assert graded_rank(t, "1", "1") == (1, 0)
    ident = t.identity("1")
    assert t.compose(ident, ident) == ident


def test_z3_end_groups_free_rank_one():
    t = cat("Z3").table
    for obj in t.objects:
        assert graded_rank(t, obj, obj) == (1, 0)


def test_z4_reference_relations_hold():
    t = cat("Z4").table
    # hypercube commutes
    a = combo_compose(W("i:5>15"), W("i:15>125"))
    b = combo_compose(W("i:5>25"), W("i:25>125"))
    assert eval_combo(t, "5", a) == eval_combo(t, "5", b)
    # 1235 -i-> 12345 -r-> 4 vanishes (and the three like it)
    for j in "1234":
        src = "".join(sorted(set("12345") - {j}))
        v = eval_combo(t, src, combo_compose(W(f"i:{src}>12345"), W(f"r:12345>{j}")))
        assert v.is_zero()
    # j -d-> 5 -i-> j5 vanishes
    for j in "1234":
        v = eval_combo(t, j, combo_compose(W(f"d:{j}>5"), W(f"i:5>{j}5")))
        assert v.is_zero()
    # the sum of the four maps 12345 -> 5 vanishes, but no single one does
    total = {}
    for j in "1234":
        total = combo_add(total, combo_compose(W(f"r:12345>{j}"), W(f"d:{j}>5")))
    assert eval_combo(t, "12345", total).is_zero()
    single = combo_compose(W("r:12345>1"), W("d:1>5"))
    assert not eval_combo(t, "12345", single).is_zero()


def test_z3_delta_word_from_resolution_is_nonzero():
    # delta_{1234}^{14} = i_4^14 ∘ d_3^4 ∘ r_{1234}^3 is a nonzero odd element
    t = cat("Z3").table
    w = combo_compose(combo_compose(W("r:1234>3"), W("d:3>4")), W("i:4>14"))
    el = eval_combo(t, "1234", w)
    assert el.parity == 1 and not el.is_zero()
    # but included into 134 it dies blockwise
    dead = combo_compose(combo_compose(W("r:1234>3"), W("d:3>4")),
                         W("i:4>14", "i:14>134"))
    assert eval_combo(t, "1234", dead).is_zero()


def test_every_relation_evaluates_to_zero():
    for name in ("Z1", "Z2", "Z3", "Z4", "C2", "S"):
        sc = cat(name)
        for rel in sc.presentation.relations:
            first = next(iter(rel))
            src, _, _ = sc.presentation.word_signature(first)
            assert eval_combo(sc.table, src, rel).is_zero(), (name, rel)


# ---------------------------------------------------------------------------
# Table algebra: associativity, parity, identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "S", "C2"])
def test_associativity_identity_parity_exhaustive(name):
    t = cat(name).table
    objs = t.objects
    basis = {}
    for a in objs:
        for b in objs:
            for p in (0, 1):
                els = t.basis_elements(a, b, p)
                if els:
                    basis[(a, b, p)] = els
    # identities neutral
    for (a, b, p), els in basis.items():
        for el in els:
            assert t.compose(t.identity(a), el) == el
            assert t.compose(el, t.identity(b)) == el
    # associativity on composable basis triples
    keys = list(basis)
    for (a, b, p1) in keys:
        for (b2, c, p2) in keys:
            if b2 != b:
                continue
            for (c2, d, p3) in keys:
                if c2 != c:
                    continue
                for x in basis[(a, b, p1)]:
                    for y in basis[(b2, c, p2)]:
                        xy = t.compose(x, y)
                        for z in basis[(c2, d, p3)]:
                            yz = t.compose(y, z)
                            assert t.compose(xy, z) == t.compose(x, yz)
                            # parity additive
                            assert t.compose(xy, z).parity == (p1 + p2 + p3) % 2


def test_associativity_z4_sampled():
    t = cat("Z4").table
    objs = t.objects
    import random
    rng = random.Random(0)
    triples = 0
    while triples < 400:
        a, b, c, d = (rng.choice(objs) for _ in range(4))
        p1, p2, p3 = (rng.randint(0, 1) for _ in range(3))
        e1 = t.basis_elements(a, b, p1)
        e2 = t.basis_elements(b, c, p2)
        e3 = t.basis_elements(c, d, p3)
        if not (e1 and e2 and e3):
            continue
        x, y, z = rng.choice(e1), rng.choice(e2), rng.choice(e3)
        assert t.compose(t.compose(x, y), z) == t.compose(x, t.compose(y, z))
        triples += 1


# ---------------------------------------------------------------------------
# Ring ideal data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["pt", "Z1", "Z2", "Z3", "Z4", "S", "C2"])
def test_nilpotent_and_semidirect(name):
    sc = cat(name)
    chk = ideal_checks(sc.table)
    assert chk.nilpotent
    assert chk.semidirect
    # index bounded by the longest generator path bound
    assert chk.nilpotency_index <= 12


def test_nt_ss_is_Z_power_lcstar():
    # identities are orthogonal idempotents and each End splits off exactly
    # one Z·id summand, so the ss subring is Z^{number of objects}
    for name in ("Z3", "S", "C2"):
        sc = cat(name)
        t = sc.table
        chk = ideal_checks(t)
        assert chk.semidirect
        for o in t.objects:
            rank_even = t.rank[(o, o, 0)]
            assert chk.end_nil_ranks[o][0] == rank_even - 1
            ident = t.identity(o)
            assert t.compose(ident, ident) == ident


def test_trivial_category_ideal_checks():
    chk = ideal_checks(cat("pt").table)
    assert chk.nilpotent and chk.semidirect
    assert chk.end_nil_ranks["1"] == (0, 0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_doubled_identity_is_not_semidirect(name):
    # 2·id together with the nil part spans an index-2 sublattice of each
    # even End group, so no End group splits as Z·id + nil
    t = copy.copy(cat(name).table)
    t.id_coords = {o: tuple(2 * x for x in v) for o, v in t.id_coords.items()}
    chk = ideal_checks(t)
    assert chk.nilpotent and not chk.semidirect


# ---------------------------------------------------------------------------
# Designated words
# ---------------------------------------------------------------------------

def test_designated_boundary_over_s_space():
    sc = cat("S")
    # boundary of the pair ({2} open in {1,2}) is r_{234}^2 ∘ d_1^{234}
    combo = sc.designator.bnd(frozenset("2"), frozenset("1"))
    assert combo == {("d:1>234", "r:234>2"): 1}


def test_designated_inclusion_through_restriction():
    sc = cat("C2")
    # {3} open in {13} has no generator route; it factors as r∘i
    combo = sc.designator.inc(frozenset("3"), frozenset("13"))
    el = eval_combo(sc.table, "3", combo)
    assert el.parity == 0 and not el.is_zero()
    assert el.dst == "13"


def test_designated_res_on_z3():
    sc = cat("Z3")
    combo = sc.designator.res(frozenset("14"), frozenset("1"))
    el = eval_combo(sc.table, "14", combo)
    assert el.dst == "1" and not el.is_zero()


@pytest.mark.parametrize("X", [builtin_space(n) for n in BUILTIN_NAMES]
                         + connected_t0_spaces(4), ids=lambda X: X.name)
def test_boundary_block_recursion_reaches_bnd_of_its_two_components(X):
    """For every open pair U ⊊ Y of nonempty locally closed sets, connected
    or not, the push-out/pull-back recursion gives D.bnd(C, E) for every
    component C of U and E of Y∖U, and reaches its leaf, with total space
    C ∪ E, exactly when C ∪ E is connected; only such a word is memoised."""
    D = Designator(X, derive_arrows(X))
    for lc in finspace.lc_subsets(X):
        Y = lc.value
        for U in X.relative_opens(Y):
            if not U or U == Y:
                continue
            for C in X.components(U):
                for E in X.components(Y - U):
                    leaves = []
                    assert bnd_block_reference(D, C, E, U, Y, leaves) == D.bnd(C, E)
                    connected = X.is_connected(C | E)
                    assert leaves == ([C | E] if connected else [])
                    assert (("bnd", C, C | E) in D.memo) == connected


@pytest.mark.parametrize("name", ["Z2", "Z3", "S", "C2", "Z4"])
def test_a_memoised_designator_query_makes_no_topology_call(name, monkeypatch):
    """Once a designated word is memoised, and once a boundary pair is known
    to be disconnected (zero), asking again tests no open, closed or
    connected set; the disconnected pairs stay out of the memo that the
    consistency relations read."""
    sc = cat(name)
    X = FiniteSpace(sc.space.points, sc.space.opens)
    D = Designator(X, list(sc.presentation.arrows.values()))
    queries = []
    for Y in (lc.value for lc in finspace.lc_subsets(X)):
        for U in X.relative_opens(Y):
            if U and U != Y:
                Cs, Es = X.components(U), X.components(Y - U)
                if X.is_connected(Y):
                    queries += [("inc", C, Y) for C in Cs] + [("res", Y, E) for E in Es]
                queries += [("bnd", C, E) for C in Cs for E in Es]
    first = [getattr(D, kind)(A, B) for kind, A, B in queries]
    assert D.split and not D.split & D.memo.keys()

    def refuse(*args):
        raise AssertionError("a memoised query made a topology test")
    for method in ("is_open_in", "is_closed_in", "is_connected", "components",
                   "relative_opens"):
        monkeypatch.setattr(X, method, refuse)
    assert [getattr(D, kind)(A, B) for kind, A, B in queries] == first


# The Hermite bases of the nil_basis lattices and the ideal_checks record of
# each table, as tools/resolution_digests.py prints them ("<space> nil").
NIL_DIGESTS = {
    "Z1": "21206c825c56a9acbebaa7b52a4c3e2de109ec5ac95300d7e61550ad5b40cdb9",
    "Z2": "48618502a7aa94c2d4619cde6fb228787718e046d921aef0583828a0a5eb2773",
    "Z3": "e0148ea7087055ac571e792f62d9b0dd0bf7b4629331de36e4477b7369173004",
    "Z4": "1db9abb2477570f742d41c25871e583f678bf0c3c1e19489b05213f5384ac6d0",
    "S": "5c6f2f751e8dce6bf4a9d358eec9ec61227e5d1abcad45fd715762725a98da50",
    "C2": "bd3b2ed3292d8a2e110d9add40fb1b3d94b235b2dcf658c1055d5403e0d45b74",
    "pt": "76a550a1c384ed19ec3291460918e299c8ff96ea0d51c51565ec6fb3dacbb12b",
    "1<2,1<3,1<4": "e17172ce6275616a1e44a8ad0138de4ce85018076b669239971c4affd25dfb0b",
    "1<2,1<3,1<4,2<3": "e190a125dd256b645df42785c52fed14d32922c21247fb9559214db33c5a9ab1",
    "1<2,1<3,1<4,2<3,2<4": "cef7a123db8e18ffb71153647eedd8b1b4ddb536de45af02066dcb1148777fc6",
    "1<2,1<3,1<4,2<3,2<4,3<4": "35cb80bedd51379b6bf07038c194f7a08c8ff59a4703b329f518584da3ff0d8b",
    "1<2,1<3,1<4,2<4,3<4": "5c6f2f751e8dce6bf4a9d358eec9ec61227e5d1abcad45fd715762725a98da50",
    "1<2,1<4,2<4,3<4": "78fd370d17e531b97e3f6d7bc6ff1eb7d71fafdac6df996d41640ea04966e27e",
    "1<2,1<4,3<4": "192295f87affe297c05d5a3695b19901b2165d331b88ab662e776363a7f114b9",
    "1<3,1<4,2<3,2<4": "bd3b2ed3292d8a2e110d9add40fb1b3d94b235b2dcf658c1055d5403e0d45b74",
    "1<3,1<4,2<3,2<4,3<4": "d0ff0013cbf2cb20064ddb29a60c8ad9e5c0f8892f7913f127e41a6f780954d7",
    "1<4,2<4,3<4": "e0148ea7087055ac571e792f62d9b0dd0bf7b4629331de36e4477b7369173004",
}


@pytest.mark.parametrize("X", [builtin_space(n) for n in BUILTIN_NAMES]
                         + connected_t0_spaces(4), ids=lambda X: X.name)
def test_nil_lattices_and_ideal_checks_are_pinned(X):
    assert nil_digest(space_category(X).table) == NIL_DIGESTS[X.name]


@pytest.mark.parametrize("name", ["S", "C2"])
def test_repeated_designation_is_read_from_the_memo(name, monkeypatch):
    sc = cat(name)
    X = sc.space
    D = Designator(X, list(sc.presentation.arrows.values()))
    queries = []
    for lc in finspace.lc_subsets(X):
        Y = lc.value
        if not Y or not X.is_connected(Y):
            continue
        for U in X.relative_opens(Y):
            if not U or U == Y:
                continue
            for C in X.components(U):
                queries.append((D.inc, (C, Y)))
                for E in X.components(Y - U):
                    queries.append((D.bnd, (C, E)))
            for E in X.components(Y - U):
                queries.append((D.res, (Y, E)))
    first = [query(*args) for query, args in queries]
    calls = []
    real = ntcat.label
    monkeypatch.setattr(ntcat, "label", lambda s: calls.append(s) or real(s))
    again = [query(*args) for query, args in queries]
    assert again == first
    assert all(a is b for a, b in zip(again, first) if a)
    assert calls == []


# ---------------------------------------------------------------------------
# Closure diagnostics
# ---------------------------------------------------------------------------

def test_non_stabilization_error():
    pres = builtin_presentation("Z2")
    with pytest.raises((NonStabilizedError, CategoryError)):
        hom_closure(pres, max_len=2)


@pytest.mark.parametrize("max_len", [2.5, "3", True, 0, -1])
def test_hom_closure_needs_an_integer_bound_of_at_least_1(max_len):
    with pytest.raises(CategoryError, match="max_len must be an integer at least 1"):
        hom_closure(builtin_presentation("Z1"), max_len)


def test_inconsistent_relation_error():
    space = builtin_space("Z1")
    arrows = [Arrow("i:2>12", "2", "12", 0, "i"),
              Arrow("r:12>1", "12", "1", 0, "r"),
              Arrow("d:1>2", "1", "2", 1, "d")]
    rels, _ = generate_relations(space, arrows)
    rels = rels + [{("i:2>12",): 2}]  # forces 2·i = 0
    pres = CatPresentation(space, arrows, rels)
    # the relations of Hom(2, 12) span a full-rank lattice of diagonal
    # [1, 2]: it is not Z^n, so it reaches the Smith form that finds the torsion
    with pytest.raises(InconsistentRelationError, match=r"Hom\(2, 12\)"):
        hom_closure(pres)



@pytest.mark.parametrize("relations", [[], [{("c",): 1, ("a", "b"): -2}]])
def test_short_words_that_span_too_little_are_not_stabilized(relations):
    # Hom(1, 12) is free on the classes of c and ab, or on that of ab when
    # c = 2·ab; the only word there of length at most max_len - 2 = 1, c,
    # spans a lattice of lower rank, or of index 2
    arrows = [Arrow("a", "1", "2", 0, "i"), Arrow("b", "2", "12", 0, "i"),
              Arrow("c", "1", "12", 0, "i")]
    pres = CatPresentation(builtin_space("Z1"), arrows, relations)
    with pytest.raises(NonStabilizedError, match=r"Hom\(\('1', '12', 0\)\) not spanned"):
        hom_closure(pres, max_len=3)
    assert hom_closure(pres, max_len=4).rank[("1", "12", 0)] == 2 - len(relations)


def test_a_relation_extends_only_while_its_longest_word_is_short():
    """c = 2·ab, whose words differ in length, extends by e to ce = 2·abe
    only when ab is shorter than the bound: at max_len=2 the extension
    would hold abe, a word the bound leaves out, so none is made and the
    build is not stabilized; at 5, Hom(A, D) is Z on abe, not Z^2."""
    A, B, C, D = [lc.label for lc in builtin_space("Z3").lc_star()][:4]
    arrows = [Arrow("a", A, B, 0, "i"), Arrow("b", B, C, 0, "i"),
              Arrow("c", A, C, 0, "i"), Arrow("e", C, D, 0, "i")]
    pres = CatPresentation(builtin_space("Z3"), arrows, [{("c",): 1, ("a", "b"): -2}])
    with pytest.raises(NonStabilizedError):
        hom_closure(pres, max_len=2)
    t = hom_closure(pres, max_len=5)
    assert (t.rank[(A, C, 0)], t.rank[(A, D, 0)]) == (1, 1)
    [rep] = t.reps[(A, D, 0)]
    assert {w: abs(c) for w, c in rep.items()} == {("a", "b", "e"): 1}


@pytest.mark.parametrize("relations, marked", [
    # a left multiple a·r' of a relation r' = be
    ([W("b", "e"), W("a", "b", "e")], {1}),
    # abe = (ab)·e: its only certificate extends a later relation on the right
    ([W("a", "b", "e"), W("a", "b")], {0}),
    # the same extension of an earlier relation is no certificate
    ([W("a", "b"), W("a", "b", "e")], set()),
    # a relation equal to a later one is marked, the later one is not
    ([{("c",): 1, ("a", "b"): -1}] * 2, {0}),
    # twice a left multiple
    ([W("b", "e"), {("a", "b", "e"): 2}], {1}),
    # ce is outside the span of abe
    ([W("a", "b", "e"), W("c", "e")], set()),
    # ce = (ce - abe) + abe, but both later relations hold a word of
    # length 3 and ce only words of length 2
    ([W("c", "e"), {("c", "e"): 1, ("a", "b", "e"): -1}, W("a", "b", "e")], set()),
], ids=["left-multiple", "right-extension", "earlier-right-extension", "equal-later",
        "twice-left-multiple", "outside-the-span", "certificate-too-long"])
def test_the_redundancy_rule_marks_a_relation_its_certificates_give(
        relations, marked, monkeypatch):
    """A relation is marked when it lies in the span of the x·r'·y whose
    words are no longer than its own, with x nonempty or r' later; the
    build that places its instances gives the same table as the one that
    skips them."""
    A, B, C, D = [lc.label for lc in builtin_space("Z3").lc_star()][:4]
    arrows = [Arrow("a", A, B, 0, "i"), Arrow("b", B, C, 0, "i"),
              Arrow("c", A, C, 0, "i"), Arrow("e", C, D, 0, "i")]
    pres = CatPresentation(builtin_space("Z3"), arrows, relations)
    assert ntcat._redundant_relations(pres) == marked
    sc = SpaceCategory(pres.space, pres, hom_closure(pres), None)
    monkeypatch.setattr(ntcat, "_redundant_relations", lambda pres: frozenset())
    unruled = SpaceCategory(pres.space, pres, hom_closure(pres), None)
    assert table_to_json(unruled) == table_to_json(sc)


def test_a_representative_word_as_long_as_the_bound_is_not_stabilized(monkeypatch):
    """Composition matrices extend each representative word by one arrow,
    so a representative holding a word of length max_len, whose extension
    was never enumerated, raises NonStabilizedError and not KeyError."""
    def shifted(P, B):
        # P X = I; adding e_last - X P e_last to column 0 keeps P X = I and
        # puts the bucket's last word, its longest, into representative 0
        X = solve_columns(P, B)
        last = P.cols - 1
        v = [-x for x in X.apply(P.column(last))]
        v[last] += 1
        cols = X.columns()
        cols[0] = [x + y for x, y in zip(cols[0], v)]
        return matrix_of_columns(cols, X.rows)

    monkeypatch.setattr(ntcat, "solve_columns", shifted)
    with pytest.raises(NonStabilizedError,
                       match=r"Hom\(.*\) has a representative word of length max_len=9"):
        hom_closure(builtin_presentation("Z2"))


def test_a_fresh_z3_build_factors_each_nonzero_group_twice_and_no_zero_group(
        monkeypatch):
    """A bucket whose relations span Z^n is read off the echelon as the
    zero group; each nonzero group takes one Smith form of its relations
    (through ntcat) and one of P to solve P X = I (through zexact).  Each
    call records the rank of its cokernel."""
    factored, solved = [], []

    def counted(calls):
        def wrapped(A):
            sf = smith(A)
            calls.append(A.rows - sf.rank())
            return sf
        return wrapped

    monkeypatch.setattr(ntcat, "smith", counted(factored))
    monkeypatch.setattr(zexact, "smith", counted(solved))
    fresh = hom_closure(builtin_presentation("Z3"))
    ranks = sorted(r for r in fresh.rank.values() if r)
    assert (len(fresh.rank), len(ranks)) == (239, 64)
    assert len(factored) + len(solved) == 2 * 64
    # the relation matrices factored are those of the nonzero groups only
    assert sorted(factored) == ranks
    assert solved == [0] * 64


@pytest.mark.parametrize("X", [builtin_space(n) for n in BUILTIN_NAMES]
                         + connected_t0_spaces(4), ids=lambda X: X.name)
def test_the_word_tables_extend_each_short_word_by_each_arrow(X):
    """Each bucket lists its words once, in nondecreasing length, and
    walking from the empty word of its source along a word reaches that
    word's index; ext[a][i] is the index of words[i]·a in the bucket of a's
    target, for exactly the words shorter than the bound, a prefix; and
    the breadth-first order from each source visits every word once, by
    length."""
    pres = ntcat._presentation(X)[0]
    max_len = ntcat.DEFAULT_MAX_LEN.get(builtin_name(X), 10)
    buckets, words_from = ntcat._enumerate_words(pres, max_len)
    for key, b in buckets.items():
        assert (b.src, b.dst, b.parity) == key
        lengths = [len(w) for w in b.words]
        assert lengths == sorted(lengths) and lengths[-1] <= max_len, key
        start = buckets[(b.src, b.src, 0)]
        assert start.words[0] == ()
        assert [ntcat._walk(buckets, start, 0, w) for w in b.words] == \
            list(range(len(b.words))), key
        assert b.short == sum(n < max_len for n in lengths), key
        assert list(b.ext) == [a.name for a in pres.by_src.get(b.dst, ())], key
        for a in pres.by_src.get(b.dst, ()):
            key2, table = b.ext[a.name]
            assert key2 == (b.src, a.dst, b.parity ^ a.parity)
            assert len(table) == b.short, (key, a.name)
            assert all(buckets[key2].words[j] == w + (a.name,)
                       for w, j in zip(b.words, table)), (key, a.name)
    for src, order in words_from.items():
        assert [n for _, _, n in order] == sorted(n for _, _, n in order)
        assert all(len(b.words[i]) == n and b.src == src for b, i, n in order)
        assert sorted((b.dst, b.parity, i) for b, i, _ in order) == sorted(
            (b.dst, b.parity, i) for b in buckets.values() if b.src == src
            for i in range(len(b.words)))


def test_a_fresh_z3_build_inserts_the_pinned_vector_sequence(monkeypatch):
    """Every relation instance hom_closure places and every extension it
    makes goes through Echelon._insert, in one fixed order: the count, the
    growing calls and digests of all inserted vectors and of the growing
    ones pin it.  The redundancy rule is read first (it is memoised on the
    presentation), so none of its own inserts is counted.  The growing
    digest is that of the closure that placed every instance."""
    pres = builtin_presentation("Z3")
    ntcat._redundant_relations(pres)
    seen, grown, growing = hashlib.sha256(), hashlib.sha256(), []
    real_insert = zexact.Echelon._insert

    def counted(ech, cur):
        vec = repr((ech.n, sorted(cur.items()))).encode()
        seen.update(vec)
        grew = real_insert(ech, cur)
        if grew:
            grown.update(vec)
        growing.append(grew)
        return grew

    monkeypatch.setattr(zexact.Echelon, "_insert", counted)
    hom_closure(pres)
    assert (len(growing), sum(growing)) == (12558, 7763)
    assert grown.hexdigest() == \
        "6f432576cc52e5dd2e44edfd396075b58ac8e013bb39ea02127c7a5da4d0cbae"
    assert seen.hexdigest() == \
        "ba30c44c7cab597dcfd4c2bdbeff283ecdf83d28c9963ff4a0d3902951b363f3"


@lru_cache(maxsize=None)
def _cached_presentation(X):
    return ntcat._presentation(X)


def _saturate(pres, designator, bound):
    """hom_closure's Echelon._insert calls as (echelon, vector, grew), the
    echelons numbered in the order they are first filled, and the table it
    builds as sorted JSON, or the error it raises."""
    numbers, calls = {}, []
    real_insert = zexact.Echelon._insert

    def recorded(ech, cur):
        vec = tuple(sorted(cur.items()))
        grew = real_insert(ech, cur)
        calls.append((numbers.setdefault(id(ech), (len(numbers), ech))[0], vec, grew))
        return grew

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zexact.Echelon, "_insert", recorded)
        try:
            table = hom_closure(pres, bound)
        except (CategoryError, zexact.ZExactError) as e:
            return calls, f"{type(e).__name__}: {e}"
    sc = SpaceCategory(pres.space, pres, table, designator)
    return calls, json.dumps(table_to_json(sc), sort_keys=True)


@pytest.fixture(scope="module", params=[
    (builtin_space(n), bound) for n in BUILTIN_NAMES
    for bound in range(1, ntcat.DEFAULT_MAX_LEN[n] + 2)] + [
    (X, ntcat.DEFAULT_MAX_LEN.get(builtin_name(X), 10)) for X in connected_t0_spaces(4)],
    ids=lambda p: f"{p[0].name}-{p[1]}")
def closures_with_and_without_the_rule(request):
    """The presentation and bound, then the saturations of hom_closure as it
    is and with _redundant_relations marking nothing."""
    X, bound = request.param
    pres, designator = _cached_presentation(X)
    ntcat._redundant_relations(pres)  # memoised, so its inserts are not recorded
    ruled = _saturate(pres, designator, bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ntcat, "_redundant_relations", lambda pres: frozenset())
        unruled = _saturate(pres, designator, bound)
    return pres, bound, ruled, unruled


def test_the_closure_that_places_every_instance_builds_the_same_table(
        closures_with_and_without_the_rule):
    """Oracle: the closure with no relation marked redundant grows its
    lattices by the same vectors in the same order, and builds the same
    table or raises the same error."""
    _, _, (ruled, table), (unruled, oracle) = closures_with_and_without_the_rule
    assert [c for c in ruled if c[2]] == [c for c in unruled if c[2]]
    assert table == oracle


def test_each_skipped_instance_already_lies_in_its_lattice(
        closures_with_and_without_the_rule):
    """Replay: the closure that places every instance makes the same
    Echelon._insert calls plus one per instance of a marked relation within
    the bound, and each of those reduces to zero, so its vector lay in its
    lattice when it popped, a lattice that only zero reductions have made
    differ from the one the skipping closure holds at that point."""
    pres, bound, (ruled, _), (unruled, _) = closures_with_and_without_the_rule
    extra, j = [], 0
    for call in unruled:
        if j < len(ruled) and call == ruled[j]:
            j += 1
        else:
            extra.append(call)
    assert j == len(ruled)
    assert not any(grew for _, _, grew in extra)
    # the instances w·r of the marked relations r that fit the bound
    marked = Counter()
    for k in ntcat._redundant_relations(pres):
        r = pres.relations[k]
        marked[pres.word_signature(next(iter(r)))[0], max(len(w) for w in r)] += 1
    lengths = Counter()
    for b in ntcat._enumerate_words(pres, bound)[0].values():
        lengths.update((b.dst, len(w)) for w in b.words)
    assert len(extra) == sum(k * count for (s, m), k in marked.items()
                             for (dst, n), count in lengths.items()
                             if dst == s and n + m <= bound)


@lru_cache(maxsize=None)
def _five_point_spaces():
    return {X.name: X for X in connected_t0_spaces(5)}


@pytest.mark.parametrize("name,hom", [("1<2,1<3,1<4,1<5,2<3,2<5,4<5", "('1', '124', 0)"),
                                      ("1<2,1<4,1<5,2<4,3<4,3<5", "('1', '1245', 0)")])
def test_two_five_point_builds_fail_alike_with_and_without_the_redundancy_rule(
        name, hom, monkeypatch):
    """Oracle on five points, where the builtins and the four-point spaces
    are blind: at bound 10 these two builds are not stabilized, and the
    closure that places every relation instance names the same Hom group
    as the one that skips the marked relations.  A rule that admitted
    certificate words one letter longer than the relation marks the same
    relations on every builtin, yet makes these builds name another."""
    pres, _ = _cached_presentation(_five_point_spaces()[name])
    with pytest.raises(NonStabilizedError) as ruled:
        hom_closure(pres, 10)
    monkeypatch.setattr(ntcat, "_redundant_relations", lambda pres: frozenset())
    with pytest.raises(NonStabilizedError) as unruled:
        hom_closure(pres, 10)
    assert str(ruled.value) == str(unruled.value) == \
        f"Hom({hom}) not spanned by short words at max_len=10"


def test_there_are_ten_connected_four_point_spaces():
    spaces = connected_t0_spaces(4)
    assert len(spaces) == 10
    assert len(set(spaces)) == 10
    assert {builtin_name(X) for X in spaces} == {None, "Z3", "S", "C2"}
    assert [X.name for X in spaces if builtin_name(X) == "Z3"] == ["1<4,2<4,3<4"]


@pytest.mark.parametrize("X", connected_t0_spaces(4), ids=lambda X: X.name)
def test_the_tables_of_the_four_point_spaces_compose_consistently(X):
    """Every relation evaluates to zero, every representative to its unit
    vector, identities are neutral under compose, and column k of pre by
    an arrow a is the class of a·rep_k evaluated through post."""
    sc = space_category(X)
    t, pres = sc.table, sc.presentation
    for r in pres.relations:
        assert eval_combo(t, pres.word_signature(next(iter(r)))[0], r).is_zero()
    for (src, dst, parity), reps in t.reps.items():
        for el, rep in zip(t.basis_elements(src, dst, parity), reps):
            assert eval_combo(t, src, rep) == el
            assert t.compose(t.identity(src), el) == el
            assert t.compose(el, t.identity(dst)) == el
            for a in pres.by_dst.get(src, ()):
                prepended = eval_combo(t, a.src, combo_compose(W(a.name), rep))
                assert t.pre[(src, dst, parity, a.name)].apply(el.vec) == prepended.vec


# ---------------------------------------------------------------------------
# Cache round trip
# ---------------------------------------------------------------------------

def test_table_json_round_trip():
    sc = cat("Z1")
    clone = table_from_json(table_to_json(sc))
    assert clone.table.rank == sc.table.rank
    el = eval_combo(clone.table, "1", {("d:1>2", "i:2>12"): 1})
    assert el.is_zero()
    el2 = eval_combo(clone.table, "1", {("d:1>2",): 1})
    assert not el2.is_zero()


def test_every_smith_call_of_a_fresh_z3_build_matches_the_dense_engine(monkeypatch):
    seen = []

    def checked(A):
        sf, ref = smith(A), smith_dense(A)
        assert (sf.U, sf.S, sf.V) == (ref.U, ref.S, ref.V)
        seen.append((A.rows, A.cols))
        return sf

    # hom_closure factors through both names, its own and solve_columns'
    monkeypatch.setattr(ntcat, "smith", checked)
    monkeypatch.setattr(zexact, "smith", checked)
    fresh = hom_closure(builtin_presentation("Z3"))
    assert fresh.rank == cat("Z3").table.rank
    assert len(seen) > 20 and max(map(max, seen)) >= 50


def count_dense_reads(monkeypatch):
    """Counts the first reads of SmithForm's lazy dense U, S and V, the
    only places that build them."""
    reads = Counter()
    for name in ("U", "S", "V"):
        def counted(sf, build=vars(SmithForm)[name].func, name=name):
            reads[name] += 1
            return build(sf)
        prop = cached_property(counted)
        prop.__set_name__(SmithForm, name)
        monkeypatch.setattr(SmithForm, name, prop)
    return reads


def test_a_fresh_build_and_class_vector_build_no_dense_transform(monkeypatch):
    reads = count_dense_reads(monkeypatch)
    hom_closure(builtin_presentation("Z3"))
    group = Presentation(3, IntMatrix([[2, 0], [0, 3], [4, 0]]))
    assert str(group.normal_form()) == "Z^1 + Z/6"
    assert group.class_vector((1, 1, 0)) == group.class_vector((3, 4, 4))
    assert reads == Counter()
    sf = smith(group.relations)
    U = sf.U
    assert sf.U is U and reads == Counter({"U": 1})


def test_a_table_over_a_space_that_is_not_builtin_round_trips():
    sc = space_category(chain())
    data = json.loads(json.dumps(table_to_json(sc)))
    assert data["presentation"]["space"] == space_to_json(chain())
    clone = table_from_json(data)
    assert clone.space == chain() and clone.table.rank == sc.table.rank
    assert table_to_json(clone) == data
    # a builtin space is written by its name, whatever the space's own name
    Z2 = builtin_space("Z2")
    unnamed = build_category(FiniteSpace(Z2.points, Z2.opens))
    assert unnamed.presentation.to_json()["space"] == "Z2"


@pytest.mark.parametrize("space", [
    {"points": ["1"], "opens": 3}, {"points": [1], "opens": [[], [1]]},
    {"points": ["1", "2"], "opens": [[], ["1"]]}, {"builtin": 5}, {}, None, "Q7"])
def test_a_malformed_space_in_a_table_raises_space_error(space):
    data = table_to_json(cat("Z1"))
    data["presentation"]["space"] = space
    with pytest.raises(SpaceError):
        table_from_json(data)


TABLES = os.path.join(os.path.dirname(ntcat.__file__), "data", "tables")


def test_a_table_whose_matrix_shape_reads_true_raises():
    """A cached shape is a count: `true` equals 1 but is refused."""
    with open(os.path.join(TABLES, "Z2.json")) as fh:
        data = json.load(fh)
    entry = next(e for e in data["post"] if e[1] == [1, 1])
    entry[1] = json.loads("[true, 1]")
    with pytest.raises(zexact.ZExactError, match=r"matrix sizes .* not True"):
        table_from_json(data)


@pytest.mark.parametrize("name", ["pt", "Z1", "Z2", "Z3", "S", "C2", "Z4"])
def test_shipped_cache_matches_fresh_build(name):
    """A fresh build on the derived arrows serialises to the shipped cache
    byte for byte."""
    with open(os.path.join(TABLES, f"{name}.json")) as fh:
        shipped = fh.read()
    sc = build_category(builtin_space(name))
    assert json.dumps(table_to_json(sc), sort_keys=True) == shipped


def test_a_fresh_build_makes_no_dense_relation_matrix(monkeypatch):
    """hom_closure hands each relation lattice to smith as a _SparseMatrix,
    whose dense view nothing reads, and builds the shipped table."""
    def refuse(*args):
        raise AssertionError("a dense relation matrix was built")

    monkeypatch.setattr(IntMatrix, "_from_sparse_columns", classmethod(refuse))
    monkeypatch.setattr(zexact._SparseMatrix, "data", property(refuse))
    with open(os.path.join(TABLES, "Z3.json")) as fh:
        shipped = fh.read()
    sc = build_category(builtin_space("Z3"))
    assert json.dumps(table_to_json(sc), sort_keys=True) == shipped


def test_loading_a_shipped_cache_derives_no_arrows(monkeypatch):
    def refuse(space):
        raise AssertionError(f"derive_arrows called for {space}")

    monkeypatch.setattr(ntcat, "_CATEGORY_CACHE", {})
    monkeypatch.setattr(ntcat, "derive_arrows", refuse)
    for name in BUILTIN_NAMES:
        assert builtin_category(name).space == builtin_space(name)


def test_write_cache_file_builds_a_fresh_table(monkeypatch, tmp_path):
    """The written cache comes from hom_closure, not from the table this
    process loaded, and equals the shipped cache byte for byte."""
    with open(ntcat._cache_path("Z1")) as fh:
        shipped = fh.read()
    builtin_category("Z1")
    built = []
    monkeypatch.setattr(ntcat, "hom_closure",
                        lambda pres: built.append(pres) or hom_closure(pres))
    monkeypatch.setattr(ntcat, "_cache_path", lambda name: str(tmp_path / f"{name}.json"))
    with open(ntcat.write_cache_file("Z1")) as fh:
        assert fh.read() == shipped
    assert len(built) == 1


# ---------------------------------------------------------------------------
# Action matrices from the cached word matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["pt", "Z1", "Z2", "Z3", "Z4", "S", "C2"])
def test_action_matrices_match_word_products(name):
    """pre_matrix/post_matrix, summed from the cached word matrices, equal
    the word products multiplied out afresh for every basis element and
    for one random combination per Hom group, at every object and parity."""
    t = cat(name).table
    rng = random.Random(name)
    for (src, dst, p), r in sorted(t.rank.items()):
        if not r:
            continue
        combo = Element(src, dst, p, [rng.randint(-2, 2) for _ in range(r)])
        for el in t.basis_elements(src, dst, p) + [combo]:
            for W in t.objects:
                for parity in (0, 1):
                    assert t.pre_matrix(el, W, parity) == \
                        word_pre_matrix(t, el, W, parity), (el, W, parity)
                    assert t.post_matrix(el, W, parity) == \
                        word_post_matrix(t, el, W, parity), (el, W, parity)


@pytest.mark.parametrize("name", ["Z1", "Z3", "Z4", "S", "C2"])
def test_a_one_word_element_acts_by_its_cached_word_matrix(name):
    """A basis element whose representative is one nonempty word with
    coefficient 1 acts by that word's cached word_matrix, the same object,
    which equals the word product multiplied out afresh, at every object and
    parity; its negative agrees, and is scaled once per table and read
    from the table's memo after that."""
    t = cat(name).table
    one_word = 0
    for key in sorted(t.rank):
        for k, el in enumerate(t.basis_elements(*key)):
            combo = t.rep_combo(*key, k)
            if len(combo) != 1 or list(combo.values()) != [1] or not next(iter(combo)):
                continue
            one_word += 1
            [w] = combo
            neg = t.scale(el, -1)
            for W in t.objects:
                for parity in (0, 1):
                    post, pre = t.post_matrix(el, W, parity), t.pre_matrix(el, W, parity)
                    assert post is t.word_matrix("post", W, parity, w)
                    assert pre is t.word_matrix("pre", W, parity, w)
                    assert post == word_post_matrix(t, el, W, parity), (el, W, parity)
                    assert pre == word_pre_matrix(t, el, W, parity), (el, W, parity)
                    negated = t.post_matrix(neg, W, parity)
                    assert negated == post.scale(-1)
                    assert t.post_matrix(neg, W, parity) is negated
                    assert t.pre_matrix(neg, W, parity) is t.pre_matrix(neg, W, parity)
    assert one_word


@pytest.mark.parametrize("name", ["pt", "Z1", "Z2", "Z3", "Z4", "S", "C2"])
def test_pre_matrices_agree_with_post_matrices(name):
    """Column k of pre_matrix(el, W, p) is x_k∘el for the basis element x_k
    of NT(el.dst, W) at p, as post_matrix(x_k, el.src, el.parity) computes
    it: the table's pre and post matrices compose alike."""
    t = cat(name).table
    for key in sorted(t.rank):
        for el in t.basis_elements(*key):
            for W in t.objects:
                for parity in (0, 1):
                    cols = [t.post_matrix(x, el.src, el.parity).apply(el.vec)
                            for x in t.basis_elements(el.dst, W, parity)]
                    n_out = t.rank.get((el.src, W, parity ^ el.parity), 0)
                    assert t.pre_matrix(el, W, parity) == \
                        matrix_of_columns(cols, n_out), (el, W, parity)


def test_word_matrices_are_built_once_per_table(monkeypatch):
    """A word whose prefix (post) or suffix (pre) is cached costs one
    matrix product, and a repeated word_matrix, post_matrix or pre_matrix
    call costs none."""
    t = table_from_json(table_to_json(cat("Z3"))).table
    products = []
    real_mul = IntMatrix.__mul__
    monkeypatch.setattr(IntMatrix, "__mul__",
                        lambda a, b: products.append(1) or real_mul(a, b))
    key, k, w = max(((key, k, w) for key, reps in t.reps.items()
                     for k, rep in enumerate(reps) for w in rep),
                    key=lambda x: (len(x[2]), x))
    assert len(w) >= 3
    src, dst, _ = t.presentation.word_signature(w)
    for side, W, part in (("post", src, w[:-1]), ("pre", dst, w[1:])):
        t.word_matrix(side, W, 0, part)
        del products[:]
        M = t.word_matrix(side, W, 0, w)
        assert len(products) == 1 and any(any(row) for row in M.data)
        assert t.word_matrix(side, W, 0, w) is M and len(products) == 1
    el = t.basis_elements(*key)[k]
    for act in (t.post_matrix, t.pre_matrix):
        for W in t.objects:
            for parity in (0, 1):
                first = act(el, W, parity)
                del products[:]
                assert act(el, W, parity) == first and not products, (act, W, parity)


def test_nil_basis_is_computed_once_per_table():
    t = cat("Z3").table
    assert nil_basis(t) is nil_basis(t)
    fresh = table_from_json(table_to_json(cat("Z3"))).table
    assert nil_basis(fresh) == nil_basis(t) and nil_basis(fresh) is not nil_basis(t)


def pairwise_nil_powers(table):
    """Reference for the nil powers of ideal_checks: J^(i+1) spanned by all
    products n∘x of a nil basis element n with a basis element x of J^i,
    composed pairwise.  Returns the lattice bases [J^1, J^2, ...] (nonzero
    keys only) through the first zero power."""
    nil = nil_basis(table)
    nil_from = {}
    for (b, c, p2), gens2 in nil.items():
        if gens2:
            nil_from.setdefault(b, []).append((c, p2, gens2))
    current = {k: [list(v) for v in vs] for k, vs in nil.items() if vs}
    powers = [current]
    while current and len(powers) <= ntcat.MAX_NILPOTENCY_INDEX:
        nxt = {}
        for (a, b, p1), vecs in current.items():
            for c, p2, gens2 in nil_from.get(b, ()):
                for v in vecs:
                    for g in gens2:
                        res = table.compose(Element(a, b, p1, tuple(v)),
                                            Element(b, c, p2, g))
                        if not res.is_zero():
                            nxt.setdefault((a, c, p1 ^ p2),
                                           Echelon(len(res.vec))).add(list(res.vec))
        current = {k: lat.basis() for k, lat in nxt.items() if lat.basis()}
        powers.append(current)
    return powers


@pytest.mark.parametrize("name", ["pt", "Z1", "Z2", "Z3", "Z4", "S", "C2"])
def test_nil_powers_from_generator_images_match_pairwise_products(name):
    t = cat(name).table
    expected = pairwise_nil_powers(t)
    # the powers are lists of {index: nonzero} vectors
    power = {k: [{i: x for i, x in enumerate(v) if x} for v in vs]
             for k, vs in nil_basis(t).items() if vs}
    for i, ref in enumerate(expected, 1):
        assert sorted(power) == sorted(ref), (name, i)
        for key, basis in ref.items():
            assert hnf_columns(IntMatrix._from_sparse_columns(power[key], t.rank[key])) == \
                hnf_columns(matrix_of_columns(basis, t.rank[key])), (name, i, key)
        power = ntcat._nil_power_step(t, power)
    assert ideal_checks(t).nilpotency_index == len(expected)


def test_compose_keeps_its_endpoint_check():
    t = cat("Z3").table
    a, b, p = next(k for k, r in sorted(t.rank.items()) if r and k[0] != k[1])
    x = t.basis_elements(a, b, p)[0]
    with pytest.raises(CategoryError, match="endpoints do not match"):
        t.compose(x, x)


def test_eval_combo_and_word_matrix_refuse_words_that_do_not_fit():
    t = cat("Z3").table
    w = ("i:124>1234", "r:1234>1", "d:1>4", "i:4>34")
    assert not eval_combo(t, "124", {w: 1}).is_zero()
    for src, combo in [("124", {w: 1, w[:-1]: 1}), ("1", {w: 1}),
                       ("124", {(w[0], w[2]): 1})]:
        with pytest.raises(CategoryError):
            eval_combo(t, src, combo)
    with pytest.raises(CategoryError, match="side"):
        t.word_matrix("left", "124", 0, w)


def test_nilpotency_indices():
    # the smallest k with NT_nil^k = 0, per built-in space
    expected = {"pt": 1, "Z1": 2, "Z2": 3, "Z3": 5, "Z4": 7, "S": 5, "C2": 6}
    for name, index in expected.items():
        chk = ideal_checks(cat(name).table)
        assert (chk.nilpotent, chk.semidirect, chk.nilpotency_index) == \
            (True, True, index), name
