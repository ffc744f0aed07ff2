import random

import pytest

from conftest import word_post_matrix, word_pre_matrix

from fktor.finspace import builtin_space
import fktor.ntcat as ntcat
from fktor.ntcat import (
    Arrow, CatPresentation, CategoryError, Designator, Element,
    InconsistentRelationError,
    NonStabilizedError, builtin_category, builtin_presentation, combo_add,
    combo_compose, generate_relations, hom_closure, ideal_checks, nil_basis,
    table_from_json, table_to_json,
)
from fktor.zexact import Echelon, IntMatrix, hnf_columns


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
    assert t.graded_rank("1234", "1234") == (1, 1)


def test_pseudocircle_odd_loop_word_and_square_zero():
    # the odd endomorphism generated by 1234 -r-> 1 -d-> 3 -i-> 1234
    t = cat("C2").table
    w = ("r:1234>123", "r:123>1", "d:1>3", "i:3>134", "i:134>1234")
    el = t.eval_combo("1234", {w: 1})
    assert el.parity == 1 and not el.is_zero()
    sq = t.compose(el, el)
    assert sq.is_zero()


def test_one_object_category_trivial_end():
    t = cat("pt").table
    assert t.graded_rank("1", "1") == (1, 0)
    ident = t.identity("1")
    assert t.compose(ident, ident) == ident


def test_z3_end_groups_free_rank_one():
    t = cat("Z3").table
    for obj in t.objects:
        assert t.graded_rank(obj, obj) == (1, 0)


def test_z4_reference_relations_hold():
    t = cat("Z4").table
    # hypercube commutes
    a = combo_compose(W("i:5>15"), W("i:15>125"))
    b = combo_compose(W("i:5>25"), W("i:25>125"))
    assert t.eval_combo("5", a) == t.eval_combo("5", b)
    # 1235 -i-> 12345 -r-> 4 vanishes (and the three like it)
    for j in "1234":
        src = "".join(sorted(set("12345") - {j}))
        v = t.eval_combo(src, combo_compose(W(f"i:{src}>12345"), W(f"r:12345>{j}")))
        assert v.is_zero()
    # j -d-> 5 -i-> j5 vanishes
    for j in "1234":
        v = t.eval_combo(j, combo_compose(W(f"d:{j}>5"), W(f"i:5>{j}5")))
        assert v.is_zero()
    # the sum of the four maps 12345 -> 5 vanishes, but no single one does
    total = {}
    for j in "1234":
        total = combo_add(total, combo_compose(W(f"r:12345>{j}"), W(f"d:{j}>5")))
    assert t.eval_combo("12345", total).is_zero()
    single = combo_compose(W("r:12345>1"), W("d:1>5"))
    assert not t.eval_combo("12345", single).is_zero()


def test_z3_delta_word_from_resolution_is_nonzero():
    # delta_{1234}^{14} = i_4^14 ∘ d_3^4 ∘ r_{1234}^3 is a nonzero odd element
    t = cat("Z3").table
    w = combo_compose(combo_compose(W("r:1234>3"), W("d:3>4")), W("i:4>14"))
    el = t.eval_combo("1234", w)
    assert el.parity == 1 and not el.is_zero()
    # but included into 134 it dies blockwise
    dead = combo_compose(combo_compose(W("r:1234>3"), W("d:3>4")),
                         W("i:4>14", "i:14>134"))
    assert t.eval_combo("1234", dead).is_zero()


def test_every_relation_evaluates_to_zero():
    for name in ("Z1", "Z2", "Z3", "Z4", "C2", "S"):
        sc = cat(name)
        for rel in sc.presentation.relations:
            first = next(iter(rel))
            src, _, _ = sc.presentation.word_signature(first)
            assert sc.table.eval_combo(src, rel).is_zero(), (name, rel)


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


# ---------------------------------------------------------------------------
# Designated words
# ---------------------------------------------------------------------------

def test_designated_boundary_over_s_space():
    sc = cat("S")
    # boundary of the pair ({2} open in {1,2}) is r_{234}^2 ∘ d_1^{234}
    combo = sc.designator.bnd_block(frozenset("2"), frozenset("1"),
                                      frozenset("2"), frozenset("12"))
    assert combo == {("d:1>234", "r:234>2"): 1}


def test_designated_inclusion_through_restriction():
    sc = cat("C2")
    # {3} open in {13} has no generator route; it factors as r∘i
    combo = sc.designator.inc(frozenset("3"), frozenset("13"))
    el = sc.table.eval_combo("3", combo)
    assert el.parity == 0 and not el.is_zero()
    assert el.dst == "13"


def test_designated_res_on_z3():
    sc = cat("Z3")
    combo = sc.designator.res(frozenset("14"), frozenset("1"))
    el = sc.table.eval_combo("14", combo)
    assert el.dst == "1" and not el.is_zero()


@pytest.mark.parametrize("name", ["S", "C2"])
def test_repeated_designation_is_read_from_the_memo(name, monkeypatch):
    sc = cat(name)
    X = sc.space
    D = Designator(X, list(sc.presentation.arrows.values()))
    queries = []
    for U, Y in ntcat._proper_open_pairs(X):
        for C in X.components(U):
            queries.append((D.inc, (C, Y)))
            for E in X.components(Y - U):
                queries.append((D.bnd_block, (C, E, U, Y)))
        for E in X.components(Y - U):
            queries.append((D.res, (Y, E)))
    first = [query(*args) for query, args in queries]
    calls = []
    real = ntcat._skey
    monkeypatch.setattr(ntcat, "_skey", lambda s: calls.append(s) or real(s))
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


def test_inconsistent_relation_error():
    space = builtin_space("Z1")
    arrows = [Arrow("i:2>12", "2", "12", 0, "i"),
              Arrow("r:12>1", "12", "1", 0, "r"),
              Arrow("d:1>2", "1", "2", 1, "d")]
    rels, _ = generate_relations(space, arrows)
    rels = rels + [{("i:2>12",): 2}]  # forces 2·i = 0
    pres = CatPresentation(space, arrows, rels)
    with pytest.raises(InconsistentRelationError):
        hom_closure(pres)


# ---------------------------------------------------------------------------
# Cache round trip
# ---------------------------------------------------------------------------

def test_table_json_round_trip():
    sc = cat("Z1")
    clone = table_from_json(table_to_json(sc))
    assert clone.table.rank == sc.table.rank
    el = clone.table.eval_combo("1", {("d:1>2", "i:2>12"): 1})
    assert el.is_zero()
    el2 = clone.table.eval_combo("1", {("d:1>2",): 1})
    assert not el2.is_zero()


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z3", "S", "C2", "Z4"])
def test_shipped_cache_matches_fresh_build(name):
    shipped = builtin_category(name)
    from fktor.ntcat import (CatPresentation, _BUILTIN_ARROWS, _RECONSTRUCTED,
                             generate_relations, hom_closure)
    from fktor.finspace import builtin_space
    space = builtin_space(name)
    arrows = _BUILTIN_ARROWS[name]()
    rels, _ = generate_relations(space, arrows)
    pres = CatPresentation(space, arrows, rels,
                           reconstructed=_RECONSTRUCTED[name])
    table = hom_closure(pres)
    assert table.rank == shipped.table.rank
    assert table.id_coords == shipped.table.id_coords
    assert table.post == shipped.table.post
    assert table.pre == shipped.table.pre
    assert len(pres.relations) == len(shipped.presentation.relations)


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
# Action matrices from the structure constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["pt", "Z1", "Z2", "Z3", "Z4", "S", "C2"])
def test_action_matrices_match_word_products(name):
    """pre_matrix/post_matrix, read off the cached structure constants,
    equal the word-product matrices for every basis element and for one
    random combination per Hom group, at every object and parity."""
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
    power = {k: vs for k, vs in nil_basis(t).items() if vs}
    for i, ref in enumerate(expected, 1):
        assert sorted(power) == sorted(ref), (name, i)
        for key, basis in ref.items():
            assert hnf_columns(IntMatrix.from_columns(power[key])) == \
                hnf_columns(IntMatrix.from_columns(basis)), (name, i, key)
        power = ntcat._nil_power_step(t, power)
    assert ideal_checks(t).nilpotency_index == len(expected)


def test_compose_keeps_its_endpoint_check():
    t = cat("Z3").table
    a, b, p = next(k for k, r in sorted(t.rank.items()) if r and k[0] != k[1])
    x = t.basis_elements(a, b, p)[0]
    with pytest.raises(CategoryError, match="endpoints do not match"):
        t.compose(x, x)


def test_nilpotency_indices():
    # the smallest k with NT_nil^k = 0, per built-in space
    expected = {"pt": 1, "Z1": 2, "Z2": 3, "Z3": 5, "Z4": 7, "S": 5, "C2": 6}
    for name, index in expected.items():
        chk = ideal_checks(cat(name).table)
        assert (chk.nilpotent, chk.semidirect, chk.nilpotency_index) == \
            (True, True, index), name
