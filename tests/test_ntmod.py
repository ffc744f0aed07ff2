import gc
import hashlib
import json
import os
import random
import weakref
from collections import Counter

import pytest

import catalogue
from conftest import (connected_t0_spaces, eval_combo, graph_corpus, layout_corpus,
                      level0_kernels_reference, m_ss_reference, matrix_of_columns,
                      random_block_graph, random_valid_module, reference_check_exact,
                      reference_tor, word_action, word_pre_matrix,
                      z1_right_module_with_i_acting_by_one)

from fktor.finspace import (BUILTIN_NAMES, FiniteSpace, SpaceError, builtin_name,
                            builtin_space, label, space_to_json)
from fktor.graphk import BlockGraph, fk_module, tor_ck
import fktor.ntcat as ntcat
import fktor.ntmod as ntmod
from fktor.ntcat import (Element, build_category, builtin_category, end_splits,
                         ideal_checks, nil_basis, space_category, table_from_json,
                         table_to_json)
from fktor.ntmod import (
    CatalogueError, FreeResolution, GradedModule, ModuleError, builtin_resolution,
    check_exact, coker_module, free_module, left_complex_underlying, m_ss,
    extend_resolution, projective_dimension, rational_tor, resolution_for, resolve_simple, tor,
    tor_single, validate, validate_resolution,
)
import fktor.zexact as zexact
from fktor.zexact import (AbGroupNF, GradedGroup, GradedHom, IntMatrix,
                          Presentation, block_diag, graded_direct_sum,
                          hnf_columns, shift)


DATA = os.path.join(os.path.dirname(__file__), "..", "src", "fktor", "data")


def cat(name):
    return builtin_category(name)


def z4_module():
    """The exact module of projective dimension 2 over the five-point space,
    as the cokernel of its defining two-step presentation."""
    sc = cat("Z4")
    D = sc.designator
    f = frozenset

    def inc_el(a, b, sign=1):
        el = eval_combo(sc.table, a, D.inc(f(a), f(b)))
        return sc.table.scale(el, sign) if sign != 1 else el

    co = ["2345", "1345", "1245", "1235"]
    pairs = ["345", "245", "145", "235", "135", "125"]
    signs = [[1, -1, 0, 1, 0, 0], [-1, 0, 1, 0, -1, 0],
             [0, 1, -1, 0, 0, 1], [0, 0, 0, -1, 1, -1]]
    mat = [[(inc_el(pairs[i], co[j], signs[j][i]) if signs[j][i] else None)
            for j in range(4)] for i in range(6)]
    return sc, coker_module(sc, [(p, 0) for p in pairs], [(c, 0) for c in co], mat)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["Z3", "S", "C2"])
def test_free_modules_validate_and_are_exact(name):
    sc = cat(name)
    for Y in sc.objects:
        for side in ("left", "right"):
            M = free_module(sc, Y, side)
            assert validate(M).ok
            assert check_exact(M).ok


@pytest.mark.parametrize("side", ["lft", "Left", "", None])
def test_free_module_refuses_an_unknown_side(side):
    with pytest.raises(ModuleError, match="side must be 'left' or 'right'"):
        free_module(cat("Z3"), "14", side)


@pytest.mark.parametrize("make,needle", [
    (lambda sc, t: free_module(sc, "99", "left"), "not \\(object, integer shift\\)"),
    (lambda sc, t: free_module(sc, "14", "right", 1.0), "integer shift"),
    (lambda sc, t: free_module(sc, "14", "left", True), "integer shift"),
    (lambda sc, t: coker_module(sc, [("99", 0)], [], [[]]), "integer shift"),
    (lambda sc, t: coker_module(sc, [("14", 0)], [("4", "1")], [[None]]), "integer shift"),
    (lambda sc, t: coker_module(sc, [("14", 0)], [("14", 0)], [[t.identity("14"), None]]),
     "not 1x1"),
    (lambda sc, t: coker_module(sc, [("14", 0)], [("14", 0), ("4", 0)],
                                [[t.identity("14")]]), "not 1x2"),
    (lambda sc, t: coker_module(sc, [("14", 0)], [("14", 0)], []), "not 1x1"),
    (lambda sc, t: coker_module(sc, [("14", 0)], [("14", 0)], [[None], [None]]),
     "not 1x1"),
    (lambda sc, t: coker_module(sc, [("14", 0)], [("4", 0)], [[t.identity("14")]]),
     "not in NT\\(14, 4\\) at parity 0"),
    (lambda sc, t: coker_module(sc, [("14", 0)], [("14", 1)], [[t.identity("14")]]),
     "not in NT\\(14, 14\\) at parity 1"),
], ids=["unknown-object", "float-shift", "bool-shift", "unknown-target",
        "string-shift", "wide-matrix", "narrow-matrix", "no-rows", "extra-row",
        "entry-elsewhere", "entry-of-wrong-parity"])
def test_free_module_builders_refuse_bad_summands_and_matrices(make, needle):
    """An unknown object or a shift that is not an int is refused, not laid
    out as a zero summand; an entry matrix that is not len(targets) x
    len(sources) is refused, not truncated or indexed past its end."""
    sc = cat("Z3")
    with pytest.raises(ModuleError, match=needle):
        make(sc, sc.table)


def test_validate_reports_broken_action():
    from fktor.zexact import GroupHom
    sc = cat("Z3")
    M = free_module(sc, "1234", "left")
    # deliberately rescale one delta action; the sum relation must now fail
    h = M.actions["d:1>4"]
    M.actions["d:1>4"] = GradedHom(
        h.degree,
        GroupHom(h.from_even.source, h.from_even.target,
                 h.from_even.matrix.scale(3)),
        GroupHom(h.from_odd.source, h.from_odd.target,
                 h.from_odd.matrix.scale(3)))
    rep = validate(M)
    assert not rep.ok
    assert any("relation" in p for p in rep.problems)


def test_fk_module_validates():
    rng = random.Random(11)
    G = random_block_graph("Z3", rng)
    assert validate(fk_module(G)).ok


def _concentrated_at_open_point(even, odd):
    """The left Z1-module with M(2) = (even, odd), everything else 0, and
    zero actions."""
    sc = cat("Z1")
    entries = {o: GradedGroup(Presentation.zero(), Presentation.zero())
               for o in sc.objects}
    entries["2"] = GradedGroup(even, odd)
    actions = {}
    for name, a in sc.presentation.arrows.items():
        actions[name] = GradedHom.zero(a.parity, entries[a.src], entries[a.dst])
    return GradedModule(sc, "left", entries, actions)


def test_check_exact_flags_constructed_failure():
    # module with M(U) = Z and everything else 0 cannot be exact
    M = _concentrated_at_open_point(Presentation.free(1), Presentation.zero())
    assert validate(M).ok
    rep = check_exact(M)
    assert not rep.ok
    assert rep.failures == ["pair (2 ⊆ 12) fails at M(2) even: Z^1"]


def test_check_exact_names_torsion_in_failures():
    M = _concentrated_at_open_point(Presentation(2, IntMatrix([[2, 0], [0, 0]])),
                                    Presentation(1, IntMatrix([[6]])))
    assert validate(M).ok
    assert check_exact(M).failures == [
        "pair (2 ⊆ 12) fails at M(2) odd: Z/6",
        "pair (2 ⊆ 12) fails at M(2) even: Z^1 + Z/2",
    ]


ORACLE_SPACES = ["Z1", "Z2", "Z3", "Z4", "S", "C2"]


def oracle_corpus():
    """Modules on which check_exact and tor must agree with their uncached
    references: per space a random valid module and a graph module drawn
    with rng 7, each also tensored with Z/2 and Z/3 (these include modules
    that are not exact); the free left and right modules on the first and
    the last object with both shifts; and the right Z1 module."""
    out = []
    for name in ORACLE_SPACES:
        rng = random.Random(7)
        for M in (random_valid_module(name, rng),
                  fk_module(random_block_graph(name, rng))):
            out += [M, M.tensor_mod_k(2), M.tensor_mod_k(3)]
        sc = cat(name)
        out += [free_module(sc, Y, side, s) for Y in (sc.objects[0], sc.objects[-1])
                for side in ("left", "right") for s in (0, 1)]
    return out + [z1_right_module_with_i_acting_by_one()]


def test_check_exact_and_tor_agree_with_their_uncached_loops():
    corpus = oracle_corpus()
    non_exact = 0
    for M in corpus:
        failures = reference_check_exact(M)
        assert check_exact(M).failures == failures
        non_exact += bool(failures)
        if M.variance == "left":
            assert tor(M, 2).to_json() == reference_tor(M, 2).to_json()
        else:
            with pytest.raises(ModuleError, match="needs a left module"):
                tor(M, 2)
    assert non_exact > 0


# ---------------------------------------------------------------------------
# m_ss
# ---------------------------------------------------------------------------

def test_m_ss_of_free_left_module_concentrated_at_Y():
    sc = cat("Z3")
    for Y in ("4", "14", "1234"):
        P = free_module(sc, Y, "left")
        ss = m_ss(P)
        for obj, g in ss.items():
            ev, od = g.even.normal_form(), g.odd.normal_form()
            if obj == Y:
                assert ev == AbGroupNF(1, ()) and od.is_trivial()
            else:
                assert ev.is_trivial() and od.is_trivial()


def test_m_ss_of_free_right_module():
    sc = cat("C2")
    Q = free_module(sc, "134", "right")
    ss = m_ss(Q)
    assert ss["134"].even.normal_form() == AbGroupNF(1, ())
    assert all(g.even.normal_form().is_trivial() for o, g in ss.items() if o != "134")


def simple_right_module(sc, Y):
    entries = {o: GradedGroup(Presentation.free(1 if o == Y else 0),
                              Presentation.zero()) for o in sc.objects}
    actions = {}
    for name, a in sc.presentation.arrows.items():
        actions[name] = GradedHom.zero(a.parity, entries[a.dst], entries[a.src])
    return GradedModule(sc, "right", entries, actions)


def test_simple_module_validates_and_m_ss_is_Z_at_Y():
    sc = cat("Z3")
    S = simple_right_module(sc, "14")
    assert validate(S).ok
    ss = m_ss(S)
    for obj, g in ss.items():
        want = AbGroupNF(1, ()) if obj == "14" else AbGroupNF(0, ())
        assert g.even.normal_form() == want
        assert g.odd.normal_form().is_trivial()


# ---------------------------------------------------------------------------
# Resolutions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["Z3", "S", "C2", "Z4"])
def test_builtin_resolutions_validate(name):
    """Every shipped resolution validates, through the wrap-around
    differential when it carries a periodic marker."""
    for Y in [Y for space, Y in catalogue.ENTRIES if space == name]:
        res = builtin_resolution(name, Y)
        if res.periodic is not None:
            # the marker is only kept when the wrap differential validates
            probs = validate_resolution(res, len(res.levels))
            assert not probs, (Y, probs[:2])
        else:
            probs = validate_resolution(res, len(res.levels) - 1)
            assert not probs, (Y, probs[:2])


def test_z3_periodic_markers_survive_validation():
    for Y in cat("Z3").objects:
        assert builtin_resolution("Z3", Y).periodic is not None


def test_z3_resolution_shapes():
    res = builtin_resolution("Z3", "14")
    assert res.levels[0] == [("14", 0)]
    assert res.levels[1] == [("4", 0)]
    assert res.levels[2] == [("1", 1)]
    res = builtin_resolution("Z3", "1234")
    assert res.levels[1] == [("124", 0), ("134", 0), ("234", 0)]
    assert res.levels[2] == [("14", 0), ("24", 0), ("34", 0)]
    assert res.levels[3] == [("4", 0), ("1234", 1)]
    assert res.periodic == (1, 3)


def test_z4_resolution_shape():
    res = builtin_resolution("Z4", "12345")
    assert res.levels[3] == [("15", 0), ("25", 0), ("35", 0), ("45", 0),
                             ("12345", 1)]
    assert sorted(res.levels[4]) == sorted(
        [("5", 0), ("2345", 1), ("1345", 1), ("1245", 1), ("1235", 1)])
    assert sorted(res.levels[5]) == sorted(
        [(p, 1) for p in ("345", "245", "145", "235", "135", "125")])


def _nil_part_per_element(sc, level, kernels):
    """Reference for ntmod._nil_part: pre-compose every kernel vector with
    every nil basis element, each acting through its word products."""
    t = sc.table
    nil = nil_basis(t)
    out = {key: [] for key in kernels}
    for (V, pv), K in kernels.items():
        if K.cols == 0:
            continue
        for W in sc.objects:
            for pt in (0, 1):
                for vec in nil[(W, V, pt)]:
                    el = Element(W, V, pt, vec)
                    act = block_diag([word_pre_matrix(t, el, A, (pv + eA) % 2)
                                      for A, eA in level])
                    for j in range(K.cols):
                        img = act.apply(K.column(j))
                        if any(img):
                            out[(W, (pv + pt) % 2)].append(img)
    return out


@pytest.mark.parametrize("name", ["pt", "Z1", "Z2", "Z3", "S", "C2", "Z4"])
def test_nil_part_from_generator_images(name):
    """The nil part of each kernel module, spanned by the generator images
    K(a.dst)·a, is the lattice spanned element by element by the nil basis,
    at every level through 5 of every resolution resolution_for builds."""
    sc = cat(name)
    for engine in ("generic", "builtin"):
        for Y in sc.objects:
            try:
                res = resolution_for(sc, Y, 5, engine)
            except CatalogueError:
                continue
            for n in range(6):
                kernels = ntmod._level_kernels(res, n)
                fast = ntmod._nil_part(res, n, kernels)
                # a whole slot, None, is spanned by its unit vectors
                kernels = {key: IntMatrix.identity(sum(res.dims(n, *key))) if K is None else K
                           for key, K in kernels.items()}
                ref = _nil_part_per_element(sc, res.level(n), kernels)
                for key, K in kernels.items():
                    assert hnf_columns(matrix_of_columns(fast.get(key, []), K.rows)) == \
                        hnf_columns(matrix_of_columns(ref[key], K.rows)), \
                        (Y, engine, n, key)


@pytest.mark.parametrize("X", [builtin_space(n) for n in BUILTIN_NAMES]
                         + connected_t0_spaces(4), ids=lambda X: X.name)
def test_level_zero_kernel_is_the_nil_lattice_formula(X):
    """Level 0 reads the kernel of Q_Y ->> S_Y as J·Q_Y at every slot; that
    is the Hermite basis of End(Y)'s even nil lattice at (Y, 0) and all of
    Q_Y elsewhere, slot by slot, for every object."""
    sc = space_category(X)
    for Y in sc.objects:
        got = ntmod._level_kernels(FreeResolution(sc, Y, [[(Y, 0)]], []), 0)
        ref = level0_kernels_reference(sc, Y)
        # a slot where Q_Y is 0 has no entry, and every whole slot is None
        assert got.keys() == {key for key, K in ref.items() if K.rows}
        for key, K in got.items():
            assert (K is None) == (key != (Y, 0)), (Y, key)
            assert (IntMatrix.identity(ref[key].rows) if K is None else K) == ref[key], (Y, key)


# per space: the total size of level 2 over every S_Y, and the sha256 of
# its sorted sizes per (Y, object, parity) as JSON
LEVEL_TWO = {
    "Z1": (3, "4568597e18010fd4f50a3d9f873bfd99c346745b75ca3f1aa362dd8bed341696"),
    "Z2": (6, "a4ef9ba0d8a421af6669a5b5a86e25eb92f67dafcdcc6fe7aa884ca388eae348"),
    "Z3": (13, "58419e275209d65c51b16dd5f361a8a2a399566d40cec6a660689fe834246458"),
    "Z4": (33, "c2e52c65c8ac1fc8545761480f22c170ea76e0f8246c0d5616da4602781c5f01"),
    "S": (13, "794f7cf14baaec8a643def31f7cf01ed20b51e6c3766d4b2efef7eaadf280c95"),
    "C2": (20, "560a2ae9d56c0538584061f621047262e9e95894c9f6dce895b1ac284d071f3e"),
    "pt": (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "1<2,1<3,1<4": (13, "c416e0a84d379e19b68f81fe852cefb6dee2ebcddcc093003b4c5662f9645afc"),
    "1<2,1<3,1<4,2<3": (10, "2f6b24a0eff072d85c1b3d1cbc80c97aa208c2cbdd53d48cc2c1e1808d692d5b"),
    "1<2,1<3,1<4,2<3,2<4": (13, "4e54fbe8f0264254e81c0c8e9010416fc9446e6e80f9ab8ef5e5d8ccbdccf0dc"),
    "1<2,1<3,1<4,2<3,2<4,3<4":
        (10, "1438d6d69beb6980c4d9303daefc0230fcd018dd7b51610342a8796a2b33e5ac"),
    "1<2,1<3,1<4,2<4,3<4": (13, "794f7cf14baaec8a643def31f7cf01ed20b51e6c3766d4b2efef7eaadf280c95"),
    "1<2,1<4,2<4,3<4": (10, "2c8b1d37f4a4dc91ede73fb1ad318462c7f264a4c7deb74fe87e80dc70ecab44"),
    "1<2,1<4,3<4": (10, "224eec646fc01af64b0d7ba7f957401b1e8c205558a2c4b3551d697a80aa3420"),
    "1<3,1<4,2<3,2<4": (20, "560a2ae9d56c0538584061f621047262e9e95894c9f6dce895b1ac284d071f3e"),
    "1<3,1<4,2<3,2<4,3<4": (13, "e34844f9ccb8236fe6daf0dc6792cccca27142fd9f391603b3a16978d8a45f1e"),
    "1<4,2<4,3<4": (13, "58419e275209d65c51b16dd5f361a8a2a399566d40cec6a660689fe834246458"),
}


@pytest.mark.parametrize("X", [builtin_space(n) for n in BUILTIN_NAMES]
                         + connected_t0_spaces(4), ids=lambda X: X.name)
def test_levels_one_and_two_count_the_arrows_and_the_pinned_relations(X):
    """Level 1 of every S_Y is one summand (a.src, a.parity) per generating
    arrow a into Y, so derive_arrows lists no redundant arrow; level 2,
    which counts a minimal set of relations, has the pinned sizes per
    (Y, object, parity).  These compare derive_arrows and
    generate_relations with the resolution engine, which share only the
    table."""
    sc = space_category(X)
    sizes = Counter()
    for Y in sc.objects:
        res = resolve_simple(sc, Y, 3)
        assert sorted(res.level(1)) == sorted(
            (a.src, a.parity) for a in sc.presentation.by_dst.get(Y, ())), Y
        for A, eps in res.level(2):
            sizes[Y, A, eps] += 1
    text = json.dumps(sorted(sizes.items()))
    assert (sum(sizes.values()), hashlib.sha256(text.encode()).hexdigest()) == \
        LEVEL_TWO[X.name]


def simple_left_module(sc, Z):
    """S_Z: Z at (Z, even), 0 at every other entry, every action zero."""
    entries = {W: GradedGroup(Presentation(int(W == Z)), Presentation(0)) for W in sc.objects}
    actions = {a.name: GradedHom.zero(a.parity, entries[a.src], entries[a.dst])
               for a in sc.presentation.arrows.values()}
    return GradedModule(sc, "left", entries, actions)


@pytest.mark.parametrize("X", [builtin_space(n) for n in BUILTIN_NAMES]
                         + [X for X in connected_t0_spaces(4) if builtin_name(X) is None],
                         ids=lambda X: X.name)
def test_tor_of_a_simple_left_module_counts_the_summands_of_a_level(X):
    """Tor_n(S_Y, S_Z) is the homology of S_Y's resolution tensored with
    S_Z.  A summand (Z, ε) of level n gives Z in parity ε and every other
    summand 0, and the resolutions are minimal, so the tensored
    differentials vanish: Tor_n is Z^a even and Z^b odd, a and b the
    numbers of (Z, even) and (Z, odd) summands of level n.  This checks
    tor's tensor layout, sum_map's shifts and parities and the homology
    against a closed form, on one module per object, n <= 4.  The space is
    an unnamed copy: the process keeps one category per set of opens, with
    the first space's name."""
    sc = space_category(FiniteSpace(X.points, X.opens))
    for Z in sc.objects:
        rep = tor(simple_left_module(sc, Z), 4)
        for Y in sc.objects:
            res = resolution_for(sc, Y, 5)
            for n in range(5):
                count = Counter(res.level(n))
                assert rep.groups[Y][n] == (AbGroupNF(count[Z, 0], ()),
                                            AbGroupNF(count[Z, 1], ())), (Y, Z, n)


LAYOUT_CORPUS = list(layout_corpus())


def m_ss_corpus(space):
    for _, name, M in (entry for entry in LAYOUT_CORPUS if entry[0] == space):
        yield name, M
    for i, G in enumerate(graph_corpus(space)[:4]):
        M = fk_module(G)
        yield f"fk {i}", M
        yield f"fk {i} mod 2", M.tensor_mod_k(2)


@pytest.mark.parametrize("space", BUILTIN_NAMES)
def test_m_ss_is_each_entry_modulo_the_generator_images(space):
    """m_ss against the per-object loop, on the layout corpus (free left
    and right modules, random cokernels) and on fk modules and their
    reductions mod 2: equal normal forms per entry and parity."""
    for name, M in m_ss_corpus(space):
        got, ref = m_ss(M), m_ss_reference(M)
        for obj in M.category.objects:
            assert got[obj].normal_form() == ref[obj].normal_form(), (name, obj)


@pytest.mark.parametrize("name,Y", catalogue.ENTRIES)
def test_seam_check_agrees_with_full_validation(name, Y):
    """The catalogue entry validates through its last level, and the
    generator keeps the periodic marker exactly when the resolution with the
    marker validates through the wrap-around; the shipped resolution carries
    the generator's verdict."""
    res, marker = catalogue.catalogue_entry(name, Y)
    assert not validate_resolution(res, len(res.levels) - 1)
    res.periodic = marker
    seam = catalogue.accepts(lambda: validate_resolution(res, len(res.levels)))
    assert (catalogue.generate(name, Y).periodic is not None) == seam
    assert (builtin_resolution(name, Y).periodic is not None) == seam


def test_tampered_wrap_around_drops_the_periodic_marker(monkeypatch):
    """The test-side generator drops a marker whose wrap-around fails."""
    z3_catalogue = catalogue._z3_catalogue

    def tampered(sc, Y):
        entry = z3_catalogue(sc, Y)
        d1, d2 = entry["diffs"][:2]
        # negate the first summand of level 1: d_1 and d_2 still form an
        # exact complex, but the stored d_4 fits the unnegated d_2, which
        # the periodic marker reuses as d_5, so d_4∘d_5 is no longer zero
        d1[0][0] = sc.table.scale(d1[0][0], -1)
        d2[0] = [None if e is None else sc.table.scale(e, -1) for e in d2[0]]
        return entry

    monkeypatch.setattr(catalogue, "_z3_catalogue", tampered)
    res, marker = catalogue.catalogue_entry("Z3", "1234")
    assert not validate_resolution(res, len(res.levels) - 1)
    res.periodic = marker
    assert not catalogue.accepts(lambda: validate_resolution(res, len(res.levels)))
    built = catalogue.generate("Z3", "1234")
    assert built.periodic is None
    assert not validate_resolution(built, len(built.levels) - 1)


def test_missing_catalogue_entry():
    with pytest.raises(CatalogueError):
        builtin_resolution("Z4", "12")


def test_catalogue_evaluates_only_the_requested_entry(monkeypatch):
    evaluated = []
    real = catalogue._el
    monkeypatch.setattr(catalogue, "_el", lambda *a: evaluated.append(a) or real(*a))
    for Y in cat("Z3").objects:
        evaluated.clear()
        res, _ = catalogue.catalogue_entry("Z3", Y)
        assert len(evaluated) == sum(e is not None for d in res.diffs
                                     for row in d for e in row)
    # the S shapes are transported from the Z3 table without the Z3 category
    monkeypatch.setattr(catalogue, "builtin_category", None)
    assert sorted(catalogue._s_shapes()) == sorted(cat("S").objects)


def test_shipped_resolutions_are_the_generated_catalogue():
    """data/resolutions.json is byte for byte what the catalogue generates."""
    with open(ntmod._RESOLUTIONS_PATH) as fh:
        assert fh.read() == catalogue.shipped_text()


@pytest.mark.parametrize("name", ["pt", "Z1", "Z3", "S"])
def test_auto_engine_is_the_generic_engine(name):
    sc = cat(name)
    for Y in sc.objects:
        assert resolution_for(sc, Y, 3, "auto") is resolution_for(sc, Y, 3, "generic")


def test_unknown_engine_name_is_refused():
    sc = cat("Z1")
    M = free_module(sc, sc.objects[0], "left")
    G = random_block_graph("Z1", random.Random(1))
    for call in (lambda: resolution_for(sc, sc.objects[0], 2, "bultin"),
                 lambda: tor(M, 1, engine="bultin"),
                 lambda: rational_tor(M, 1, engine="bultin"),
                 lambda: projective_dimension(M, 1, engine="bultin"),
                 lambda: tor_ck(G, 1, engine="bultin")):
        with pytest.raises(ModuleError, match="unknown resolution engine"):
            call()


def test_generic_engine_one_point_space():
    sc = cat("pt")
    res = resolve_simple(sc, "1", 3)
    # Q_1 is already the whole story: all higher levels empty
    assert res.levels[1] == []
    assert res.levels[2] == []


@pytest.mark.parametrize("Y", cat("Z3").objects)
def test_generic_engine_resolutions_are_valid_z3(Y):
    sc = cat("Z3")
    res = resolve_simple(sc, Y, 4)
    assert not validate_resolution(res, 4)


def test_generic_engine_valid_on_s_c2_and_z4():
    for name in ("S", "C2", "Z4"):
        sc = cat(name)
        for Y in sc.objects:
            res = resolve_simple(sc, Y, 4)
            assert not validate_resolution(res, 4), (name, Y)


def test_generic_engine_on_accordion_spaces():
    for name in ("pt", "Z1", "Z2"):
        sc = cat(name)
        for Y in sc.objects:
            res = resolve_simple(sc, Y, 4)
            assert not validate_resolution(res, 4), (name, Y)


# sha256 of the canonical JSON of the engine's levels and differentials
ENGINE_DIGEST_DEPTH_5 = "c0b16877ec5445de8e974076d79f55ad0069b71ec7e67cd6624947a41108f729"
# sha256 of the sorted canonical JSON of every module of layout_corpus
MODULE_LAYOUT_DIGEST = "803f563de463b460bdcaf9d205ec0afc953aae1ec7ba87ce94cdeec8244c03cb"


def test_module_layout_is_pinned():
    """Every free module over the seven builtins (every object, both sides,
    shifts 0 and 1) and every seeded random valid module of layout_corpus
    has the JSON it had when the digest was recorded: the free-module
    layout fixes each entry's generators and relations and each action
    matrix.  tools/resolution_digests.py prints one digest per module."""
    texts = sorted(json.dumps(M.to_json(), sort_keys=True) for _, _, M in layout_corpus())
    assert len(texts) == 4 * 65 + 16 * len(BUILTIN_NAMES)
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == MODULE_LAYOUT_DIGEST


def test_cokernel_reads_only_nonempty_blocks(monkeypatch):
    """Laying out the Z4 cokernel module reads no pre-composition block
    whose source or target group is 0; at 12345, where every P_B and P_A
    is Z, its relations are the signs of the defining map."""
    sc = cat("Z4")
    t = sc.table
    pres = []
    real_combo = type(t)._combo_matrix

    def counted_combo(table, side, el, W, parity):
        assert side == "pre"
        pres.append((t.rank.get((el.dst, W, parity), 0),
                     t.rank.get((el.src, W, parity ^ el.parity), 0)))
        return real_combo(table, side, el, W, parity)

    monkeypatch.setattr(type(t), "_combo_matrix", counted_combo)
    _, M = z4_module()
    assert pres and all(src and dst for src, dst in pres)
    assert M.to_json()["entries"]["12345"]["even"] == {"gens": 6, "rels": [
        [1, -1, 0, 0], [-1, 0, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1], [0, -1, 0, 1],
        [0, 0, 1, -1]]}


def test_engine_resolutions_are_pinned():
    """The syzygy engine's levels and differentials for all 65 objects of
    the seven builtin spaces at depth 5 stay what they were when the digest
    was recorded: every resolution, and so every Tor report, depends on the
    generators the engine chooses and their order."""
    runs = {}
    for name in BUILTIN_NAMES:
        sc = cat(name)
        for Y in sc.objects:
            res = resolve_simple(sc, Y, 5)
            runs[f"{name}/{Y}"] = {
                "levels": res.levels,
                "diffs": [[[None if e is None else [e.src, e.dst, e.parity, e.vec]
                            for e in row] for row in d] for d in res.diffs]}
    assert len(runs) == 65
    text = json.dumps(runs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ENGINE_DIGEST_DEPTH_5


def test_level_and_diff_refuse_indices_below_the_resolution():
    """level(n) for n < 0 and diff(n) for n < 1 name no level: they raise
    instead of reading from the end of the lists, so underlying_diff(0, ...)
    cannot lay the top differential out against level 0.  A level not yet
    built is still a CatalogueError."""
    sc = cat("Z3")
    res = resolve_simple(sc, "14", 2)
    for call in (lambda: res.level(-1), lambda: res.diff(0), lambda: res.diff(-1),
                 lambda: res.underlying_diff(0, "14", 0)):
        with pytest.raises(ModuleError, match="a resolution has no") as info:
            call()
        assert not isinstance(info.value, CatalogueError)
    with pytest.raises(CatalogueError, match="not built to level 3"):
        res.level(3)
    with pytest.raises(CatalogueError, match="has no d_3"):
        res.diff(3)


def test_kernels_of_maps_out_of_and_into_zero():
    """The two kernels the resolution engine takes without computing them:
    a map into 0 has all of Z^c (Hermite basis: the identity), a map out
    of 0 the 0x0 basis."""
    for n in range(5):
        assert ntmod.kernel(IntMatrix.zero(0, n)) == IntMatrix.identity(n)
        assert ntmod.kernel(IntMatrix.zero(n, 0)) == IntMatrix.zero(0, 0)


def test_resolution_work_only_on_nonzero_slots(monkeypatch):
    """Building the Z4 resolutions to depth 5 takes one kernel per
    (level, W, parity) slot of levels 1-4 where the level and its target
    are both nonzero, none at level 0 (read off the nil lattice), and reads
    no post-composition block whose source or target group is 0."""
    sc = cat("Z4")
    t = sc.table
    shapes, posts = [], []
    real_kernel, real_combo = ntmod.kernel, type(t)._combo_matrix

    def counted_kernel(A):
        shapes.append((A.rows, A.cols))
        return real_kernel(A)

    def counted_combo(table, side, el, W, parity):
        assert side == "post"
        posts.append((t.rank.get((W, el.src, parity), 0),
                      t.rank.get((W, el.dst, parity ^ el.parity), 0)))
        return real_combo(table, side, el, W, parity)

    monkeypatch.setattr(ntmod, "kernel", counted_kernel)
    monkeypatch.setattr(type(t), "_combo_matrix", counted_combo)

    def size(level, W, parity):
        return sum(t.rank.get((W, A, (parity + e) % 2), 0) for A, e in level)

    expected = 0
    for Y in sc.objects:
        res = resolve_simple(sc, Y, 5)
        for n in range(1, 5):
            for W in sc.objects:
                for parity in (0, 1):
                    target = size(res.levels[n - 1], W, parity)
                    expected += bool(size(res.levels[n], W, parity) and target)
    assert expected and posts
    assert len(shapes) == expected
    assert all(rows and cols for rows, cols in shapes)
    assert all(src and dst for src, dst in posts)


@pytest.mark.parametrize("name", ["Z3", "S", "Z4"])
def test_level_zero_takes_one_hermite_basis_only_at_y_even(name, monkeypatch):
    """Q_Y(W)_p is all nil except at (Y, 0), so building every resolution
    to depth 5 takes one Hermite basis per object, of End(Y)_even's nil
    lattice, and hands no kernel that is a whole slot to generator_images
    as a matrix: its images are the action matrix's own columns."""
    sc = cat(name)
    t = sc.table
    bases, whole = [], []
    real_hnf, real_images = ntmod.hnf_columns, ntmod.generator_images

    def counted_hnf(A):
        bases.append(A.rows)
        return real_hnf(A)

    def counted_images(arrows, side, act, vecs=None):
        whole.extend(V for V in (vecs or {}).values() if V is not None and V.rows == V.cols)
        return real_images(arrows, side, act, vecs)

    monkeypatch.setattr(ntmod, "hnf_columns", counted_hnf)
    monkeypatch.setattr(ntmod, "generator_images", counted_images)
    for Y in sc.objects:
        before = len(bases)
        res = resolve_simple(sc, Y, 5)
        assert bases[before:] == [t.rank[(Y, Y, 0)]], Y
        assert len(res.levels) == 6
    assert whole == []


@pytest.mark.parametrize("X", [builtin_space("Z4")] + connected_t0_spaces(4),
                         ids=lambda X: X.name)
def test_a_resumed_resolution_equals_a_direct_build(X):
    """Built to depth 2 and then extended to 5, a resolution has the levels
    and differentials of one built to depth 5 at once: the resumed step
    reads afresh the block sizes the uninterrupted one carries."""
    sc = space_category(X)
    for Y in sc.objects:
        resumed = resolve_simple(sc, Y, 2)
        assert len(resumed.levels) == 3
        extend_resolution(resumed, 5)
        direct = resolve_simple(sc, Y, 5)
        assert resumed.levels == direct.levels, Y
        assert resumed.diffs == direct.diffs, Y


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_hand_built_resolution_extends_to_a_direct_build(name):
    """A resolution made by hand from another's first levels and
    differentials, as builtin_resolution makes them, has no slot table
    yet; extended to depth 5 it reads its own and has the levels and
    differentials of a direct build."""
    sc = cat(name)
    for Y in sc.objects:
        direct = resolve_simple(sc, Y, 5)
        for cut in (1, 2):
            hand = FreeResolution(sc, Y, [list(lv) for lv in direct.levels[:cut + 1]],
                                  list(direct.diffs[:cut]))
            assert hand._slot_tables == {}
            extend_resolution(hand, 5)
            assert hand.levels == direct.levels, (Y, cut)
            assert hand.diffs == direct.diffs, (Y, cut)


def test_the_engine_calls_no_checked_public_entry(monkeypatch):
    """The syzygy engine, the free-module layout and Tor's tensored complex
    call the unchecked bodies with values they built.  With every checked
    entry they share patched to raise, resolving every S_Y of every builtin
    to depth 5, on fresh copies of the tables so that no word matrix is
    cached, gives the levels and differentials of an unpatched build, and
    a free module's Tor is unchanged."""
    fresh = {name: table_from_json(table_to_json(cat(name))) for name in BUILTIN_NAMES}

    def refuse(*args, **kwargs):
        raise AssertionError("the engine called a checked public entry")

    for name in ("free_ranks", "free_map", "free_action"):
        monkeypatch.setattr(ntmod, name, refuse)
    for name in ("level", "diff", "dims"):
        monkeypatch.setattr(FreeResolution, name, refuse)
    for name in ("word_matrix", "post_matrix", "pre_matrix"):
        monkeypatch.setattr(ntcat.HomTable, name, refuse)
    built = {(name, Y): resolve_simple(sc, Y, 5)
             for name, sc in fresh.items() for Y in sc.objects}
    report = tor(free_module(fresh["Z3"], "14", "left"), 3).to_json()
    monkeypatch.undo()
    assert len(built) == 65
    for (name, Y), res in built.items():
        direct = resolve_simple(cat(name), Y, 5)
        assert (res.levels, res.diffs) == (direct.levels, direct.diffs), (name, Y)
    assert report == tor(free_module(cat("Z3"), "14", "left"), 3).to_json()


def _category_with_a_nil_cycle():
    """A hand-made table over Z2's presentation whose nil ideal J is not
    nilpotent, though every End group splits as Z·id + nil.  Every object
    has End = Z·id, except 3: in P_3 = NT(3, -) the cycle 3 -> 13 -> 123 ->
    1 -> 3 of the arrows i, i, r and d acts by 1 in both parities, into
    End(3)_even = Z·id + Z·x, so that every power of J holds the cycle."""
    sc = cat("Z2")
    t = ntcat.HomTable(sc.presentation)
    for W in sc.objects:
        t.rank[(W, W, 0)] = 1
        t.id_coords[W] = (1,)
    t.rank[("3", "3", 0)], t.id_coords["3"], t.rank[("3", "3", 1)] = 2, (1, 0), 1
    one = IntMatrix([[1]])
    for p in (0, 1):
        for W in ("13", "123", "1"):
            t.rank[("3", W, p)] = 1
        t.post[("3", "13", p, "i:13>123")] = t.post[("3", "123", p, "r:123>1")] = one
    t.post[("3", "3", 0, "i:3>13")], t.post[("3", "3", 1, "i:3>13")] = IntMatrix([[0, 1]]), one
    t.post[("3", "1", 0, "d:1>3")], t.post[("3", "1", 1, "d:1>3")] = one, IntMatrix([[0], [1]])
    return ntcat.SpaceCategory(sc.space, sc.presentation, t, sc.designator)


def test_a_nil_ideal_that_is_not_nilpotent_is_refused_before_a_level_is_built():
    """The engine covers a kernel by generators chosen modulo J·K, which
    spans it only when J is nilpotent (graded Nakayama).  Over a table
    whose J is not, every resolution is refused before a level is built or
    cached, whatever the object, and the pd gate refuses it too."""
    sc = _category_with_a_nil_cycle()
    chk = ideal_checks(sc.table)
    assert chk.semidirect and not chk.nilpotent and chk.nilpotency_index is None
    message = "nil ideal of the Hom table is not nilpotent"
    for Y in sc.objects:
        for call in (lambda: resolve_simple(sc, Y, 1), lambda: resolution_for(sc, Y, 3)):
            with pytest.raises(ntmod.HypothesisNotVerifiedError, match=message):
                call()
    assert sc.resolutions == {}
    res = FreeResolution(sc, "3", [[("3", 0)]], [])
    with pytest.raises(ntmod.HypothesisNotVerifiedError, match=message):
        extend_resolution(res, 2)
    assert (res.levels, res.diffs) == ([[("3", 0)]], [])
    with pytest.raises(ntmod.HypothesisNotVerifiedError):
        ntmod.check_hypotheses(sc)


def test_the_nilpotency_verdict_is_computed_once_per_table(monkeypatch):
    """check_hypotheses, ideal_checks and the engine's nilpotency gate share
    one computation of the powers of J, kept on the table."""
    sc = table_from_json(table_to_json(cat("Z4")))
    steps = []
    real_step = ntcat._nil_power_step
    monkeypatch.setattr(ntcat, "_nil_power_step",
                        lambda t, power: steps.append(power) or real_step(t, power))
    ntmod.check_hypotheses(sc)
    resolve_simple(sc, "12345", 2)
    resolution_for(sc, "2345", 2)
    chk = ideal_checks(sc.table)
    assert chk.nilpotent and len(steps) == chk.nilpotency_index - 1


@pytest.mark.parametrize("depth", ["3", -1, 2.5, True, None])
def test_extending_or_validating_refuses_a_depth_that_is_no_count(depth):
    res = resolve_simple(cat("Z3"), "14", 2)
    levels = list(res.levels)
    for call in (extend_resolution, validate_resolution):
        with pytest.raises(ModuleError, match="nonnegative integer depth"):
            call(res, depth)
    assert res.levels == levels


@pytest.mark.parametrize("side", ["up", "Left", "", None])
def test_the_free_module_layout_refuses_an_unknown_side(side):
    sc = cat("Z3")
    t = sc.table
    a = next(iter(sc.presentation.arrows.values()))
    summands = [("14", 0)]
    dims = {(W, p): [1] for W in sc.objects for p in (0, 1)}
    for call in (lambda: ntmod.free_ranks(t, side, summands, "14", 0),
                 lambda: ntmod.free_map(t, side, summands, summands,
                                        [[t.identity("14")]], "14", 0),
                 lambda: ntmod.free_action(t, side, summands, a, 0, dims)):
        with pytest.raises(ModuleError, match="side must be 'left' or 'right'"):
            call()


def test_building_a_resolution_takes_no_smith_form(monkeypatch):
    """Level 0 is read off the nil lattice and every later kernel off an
    echelon: resolving every simple module of every builtin to depth 5
    calls zexact.smith nowhere."""
    categories = [cat(name) for name in BUILTIN_NAMES]
    calls = []
    real_smith = zexact.smith

    def counted_smith(A):
        calls.append((A.rows, A.cols))
        return real_smith(A)

    monkeypatch.setattr(zexact, "smith", counted_smith)
    for sc in categories:
        for Y in sc.objects:
            resolve_simple(sc, Y, 5)
    assert calls == []


def test_an_end_group_that_does_not_split_is_refused_before_anything_is_cached():
    """A copy of the Z3 table with id_coords[Y] doubled: 2·id and the nil
    part span an index-2 sublattice of End(Y)_even, so the split fails at Y
    alone, ideal_checks says not semidirect, and the engine refuses Y
    before it builds or caches a resolution."""
    sc = table_from_json(table_to_json(cat("Z3")))
    Y = "14"
    sc.table.id_coords[Y] = tuple(2 * x for x in sc.table.id_coords[Y])
    assert not ideal_checks(sc.table).semidirect
    assert [W for W in sc.objects if not end_splits(sc.table, W)] == [Y]
    message = r"End\(14\) does not split as Z·id \+ nil"
    with pytest.raises(ModuleError, match=message):
        resolve_simple(sc, Y, 3)
    for engine in ("auto", "generic"):
        with pytest.raises(ModuleError, match=message):
            resolution_for(sc, Y, 3, engine)
    assert sc.resolutions == {}
    with pytest.raises(ModuleError, match=message):
        validate_resolution(FreeResolution(sc, Y, [[(Y, 0)]], []), 0)


def _planted_level0_errors(res):
    """Copies of res with one error each in d_1: its first nonzero entry
    doubled, and its last level-1 generator dropped (with the row of d_2
    that reads it)."""
    d1 = res.diffs[0]
    i, j = next((i, j) for i, row in enumerate(d1)
                for j, el in enumerate(row) if el is not None)
    doubled = [list(row) for row in d1]
    el = d1[i][j]
    doubled[i][j] = Element(el.src, el.dst, el.parity, [2 * x for x in el.vec])
    dropped_levels = [res.levels[0], res.levels[1][:-1], *res.levels[2:]]
    dropped_diffs = [[row[:-1] for row in d1], res.diffs[1][:-1], *res.diffs[2:]]
    return [FreeResolution(res.sc, res.Y, res.levels, [doubled, *res.diffs[1:]]),
            FreeResolution(res.sc, res.Y, dropped_levels, dropped_diffs)]


@pytest.mark.parametrize("name,Y", [("Z3", "1234"), ("Z4", "12345")])
def test_validation_catches_planted_errors_at_level_0(name, Y):
    res = resolve_simple(cat(name), Y, 3)
    assert not validate_resolution(res, 3)
    for planted in _planted_level0_errors(res):
        problems = validate_resolution(planted, 1)
        assert problems
        assert all(p.startswith("not exact under the augmentation at")
                   for p in problems), problems


@pytest.mark.parametrize("name,Y", [("Z3", "1234"), ("Z4", "12345")])
def test_validation_reports_a_nonzero_composite_instead_of_raising(name, Y):
    """With one d_1 entry doubled or one level-1 generator dropped, d_1∘d_2
    is nonzero: validating through level 2 reports it, in the Hom table and
    on the underlying groups, and tests no slot where it is nonzero for
    exactness."""
    res = resolution_for(cat(name), Y, 4)
    assert not validate_resolution(res, 3)
    for planted in _planted_level0_errors(res):
        problems = validate_resolution(planted, 3)
        assert any(p.startswith("d_1∘d_2 nonzero at block") for p in problems), problems
        slots = [p.split(" at ")[1] for p in problems
                 if p.startswith("d_1∘d_2 nonzero on the underlying groups")]
        assert slots, problems
        assert not any(f"not exact at level 1, {slot}" in problems for slot in slots)


# ---------------------------------------------------------------------------
# Tor
# ---------------------------------------------------------------------------

def test_tor_of_free_module_vanishes_positive_degrees():
    sc = cat("Z3")
    P = free_module(sc, "124", "left")
    rep = tor(P, 2)
    for n in (1, 2):
        assert rep.is_zero(n), rep.aggregate(n)


@pytest.mark.parametrize("module", ["Q_14 over Z3", "Z1 with i by 1"])
@pytest.mark.parametrize("compute", [lambda M: tor(M, 1),
                                     lambda M: rational_tor(M, 1),
                                     lambda M: projective_dimension(M, 2)],
                         ids=["tor", "rational_tor", "projective_dimension"])
def test_tor_refuses_right_modules_before_resolving(monkeypatch, module, compute):
    M = (free_module(cat("Z3"), "14", "right") if module.startswith("Q")
         else z1_right_module_with_i_acting_by_one())
    assert validate(M).ok

    def no_resolution(*args, **kwargs):
        raise AssertionError("a resolution was built for a right module")

    monkeypatch.setattr(ntmod, "resolution_for", no_resolution)
    with pytest.raises(ModuleError, match="needs a left module"):
        compute(M)


def test_tor_refuses_a_module_missing_an_action_before_resolving(monkeypatch):
    M = free_module(cat("Z1"), "12", "left")
    del M.actions["r:12>1"]

    def no_resolution(*args, **kwargs):
        raise AssertionError("a resolution was built for an incomplete module")

    monkeypatch.setattr(ntmod, "resolution_for", no_resolution)
    with pytest.raises(ModuleError, match=r"missing: \['r:12>1'\]"):
        tor(M, 1)


@pytest.mark.parametrize("compute", [check_exact, m_ss, lambda M: tor(M, 1)],
                         ids=["check_exact", "m_ss", "tor"])
def test_a_module_missing_an_action_is_refused(compute):
    with open(os.path.join(DATA, "ck_z3.json")) as fh:
        M = fk_module(BlockGraph.from_json(json.load(fh)))
    del M.actions["i:14>124"]
    with pytest.raises(ModuleError, match=r"needs an action for every arrow; "
                                          r"missing: \['i:14>124'\]"):
        compute(M)


@pytest.mark.parametrize("name,count", [("Z3", 50), ("S", 15), ("C2", 15)])
def test_tor0_equals_m_ss_on_random_modules(name, count):
    rng = random.Random(23)
    for _ in range(count):
        M = random_valid_module(name, rng)
        rep = tor(M, 0)
        ss = m_ss(M)
        agg = graded_direct_sum([g for g in ss.values()])
        assert rep.aggregate(0)[0] == agg.even.normal_form()
        assert rep.aggregate(0)[1] == agg.odd.normal_form()


def test_tor1_z3_equals_three_term_complex_on_graph_modules():
    # aggregate Tor_1 equals the homology of the classical three-term complex
    rng = random.Random(5)
    sc = cat("Z3")
    for _ in range(6):
        G = random_block_graph("Z3", rng)
        M = fk_module(G)
        rep = tor(M, 1)
        from fktor.graphk import z3_fast_tor1
        fast = z3_fast_tor1(G)
        assert rep.aggregate(1) == (fast.group_even, fast.group_odd)


def test_engine_agreement_z3_random_modules():
    rng = random.Random(42)
    sc = cat("Z3")
    for _ in range(10):
        M = random_valid_module("Z3", rng)
        rb = tor(M, 2, engine="builtin")
        rg = tor(M, 2, engine="generic")
        for Y in sc.objects:
            for n in range(3):
                assert rb.groups[Y][n] == rg.groups[Y][n], (Y, n)


def test_engine_agreement_c2_random_modules():
    rng = random.Random(43)
    sc = cat("C2")
    for _ in range(4):
        M = random_valid_module("C2", rng)
        rb = tor(M, 2, engine="builtin")
        rg = tor(M, 2, engine="generic")
        for Y in sc.objects:
            for n in range(3):
                assert rb.groups[Y][n] == rg.groups[Y][n], (Y, n)


def test_engine_agreement_z4_catalogued_object():
    sc, M = z4_module()
    res_b = builtin_resolution("Z4", "12345")
    res_g = resolve_simple(sc, "12345", 4)
    for n in range(4):
        assert tor_single(res_b, M, n) == tor_single(res_g, M, n), n


def test_tor_builds_each_tensored_differential_once(monkeypatch):
    import fktor.ntmod as nm
    rng = random.Random(4)
    M = fk_module(random_block_graph("Z3", rng))
    sc = M.category
    expected = {Y: {n: tor_single(nm.resolution_for(sc, Y, 3), M, n)
                    for n in range(3)} for Y in sc.objects}
    built = []
    real = nm._tensor_diff
    monkeypatch.setattr(nm, "_tensor_diff",
                        lambda res, M, k: built.append((res.Y, k))
                        or real(res, M, k))
    rep = tor(M, 2)
    assert sorted(built) == sorted((Y, k) for Y in sc.objects for k in (1, 2, 3))
    assert rep.groups == expected


def test_a_module_builds_its_sums_and_designated_actions_once(monkeypatch):
    """A second check_exact and tor on the same module build no direct sum
    of several summands and no designated action: both are kept on the
    module, and check_exact and tor share its sums."""
    M = fk_module(random_block_graph("Z3", random.Random(2)))
    sums, combos = [], []
    real_sum, real_combo = ntmod.graded_direct_sum, GradedModule.action_combo
    monkeypatch.setattr(ntmod, "graded_direct_sum",
                        lambda groups: sums.append(len(groups)) or real_sum(groups))
    monkeypatch.setattr(GradedModule, "action_combo",
                        lambda self, *args: combos.append(args) or real_combo(self, *args))
    check_exact(M)
    exact_sums = len(sums)
    tor(M, 2)
    assert exact_sums and len(sums) > exact_sums and combos
    assert all(n > 1 for n in sums)
    sums.clear()
    combos.clear()
    check_exact(M)
    tor(M, 2)
    assert sums == [] and combos == []


def test_designated_refuses_an_unknown_kind():
    M = free_module(cat("Z1"), "12", "left")
    with pytest.raises(ModuleError, match="unknown designated word 'incl'"):
        M.designated("incl", frozenset("2"), frozenset("12"))


# ---------------------------------------------------------------------------
# Short paths of the action layer
# ---------------------------------------------------------------------------

def has_generators(M, obj):
    g = M.entries[obj]
    return bool(g.even.generators or g.odd.generators)


def combo_reference(M, combo, src, dst):
    """The even and odd matrices of a combination of words, each word's
    action composed afresh (word_action), scaled and added."""
    mats = None
    for w, c in combo.items():
        h = word_action(M, w, src, dst)
        parts = [h.component(p).matrix.scale(c) for p in (0, 1)]
        mats = parts if mats is None else [a + b for a, b in zip(mats, parts)]
    return mats


def short_path_corpus():
    """Left modules with entries of no generators and entries with
    generators in one parity only: free modules, and tensor_mod_k(2) of fk
    modules, whose pruned presentations have both."""
    rng = random.Random(28)
    out = []
    for name in ("Z1", "Z3", "S", "C2"):
        sc = cat(name)
        out += [(f"{name}/P_{sc.objects[0]}", free_module(sc, sc.objects[0], "left")),
                (f"{name}/P_{sc.objects[-1]}[1]", free_module(sc, sc.objects[-1], "left", 1))]
    for name in ("Z3", "S"):
        out.append((f"{name}/fk/Z2",
                    fk_module(random_block_graph(name, rng, max_vertices=2)).tensor_mod_k(2)))
    return out


SHORT_PATH_CORPUS = short_path_corpus()


def test_the_short_path_corpus_has_bare_and_one_parity_entries():
    for name, M in SHORT_PATH_CORPUS:
        R = M.reduced()
        assert any(not has_generators(R, obj) for obj in R.entries), name
        assert any(bool(g.even.generators) != bool(g.odd.generators)
                   for g in R.entries.values()), name


def test_designated_is_none_where_an_end_has_no_generators(monkeypatch):
    """A designated word between entries one of which has no generators is
    None and builds no word; every other one is the sum of its words'
    actions, composed afresh."""
    words = []
    real = GradedModule.action_word
    monkeypatch.setattr(GradedModule, "action_word",
                        lambda self, w, s, d: words.append(w) or real(self, w, s, d))
    bare = laid_out = 0
    for name, M in SHORT_PATH_CORPUS:
        M = M.reduced()
        D = M.category.designator
        for U, Y, compsU, compsE in M.category.space.six_term_pairs():
            keys = ([("inc", C, Y) for C in compsU] + [("res", Y, E) for E in compsE]
                    + [("bnd", C, E) for C in compsU for E in compsE])
            for kind, A, B in keys:
                src, dst, parity = (B, A, 1) if kind == "bnd" else (A, B, 0)
                src, dst = label(src), label(dst)
                combo = getattr(D, kind)(A, B)
                words.clear()
                hom = M.designated(kind, A, B)
                if not combo:
                    assert hom is None
                elif not (has_generators(M, src) and has_generators(M, dst)):
                    assert hom is None and words == [], (name, kind, src, dst)
                    bare += 1
                else:
                    assert hom.degree == parity
                    assert [hom.component(p).matrix for p in (0, 1)] == \
                        combo_reference(M, combo, src, dst), (name, kind, src, dst)
                    laid_out += 1
    assert bare and laid_out


@pytest.mark.parametrize("bare_end", ["src", "dst"])
def test_an_empty_end_makes_action_combo_the_zero_hom_without_words(monkeypatch, bare_end):
    sc = cat("Z3")
    M = free_module(sc, "124", "left")
    arrows = [a for a in sc.presentation.arrows.values()
              if not has_generators(M, getattr(a, bare_end))
              and has_generators(M, a.dst if bare_end == "src" else a.src)]
    assert arrows
    monkeypatch.setattr(GradedModule, "action_word", None)
    for a in arrows:
        h = M.action_combo({(a.name,): 1}, a.src, a.dst, a.parity)
        assert h.degree == a.parity and h.is_zero_hom()
        assert h.from_even.source is M.entries[a.src].even
        assert h.component(a.parity).target is M.entries[a.dst].even


def test_a_single_word_with_coefficient_one_is_its_word_action():
    M = fk_module(random_block_graph("Z3", random.Random(5)))
    for a in M.category.presentation.arrows.values():
        h = M.action_combo({(a.name,): 1}, a.src, a.dst, a.parity)
        assert h is M.action_word((a.name,), a.src, a.dst)
        twice = M.action_combo({(a.name,): 2}, a.src, a.dst, a.parity)
        assert twice is not h
        assert [twice.component(p).matrix for p in (0, 1)] == \
            combo_reference(M, {(a.name,): 2}, a.src, a.dst)


def test_several_words_are_summed_per_parity():
    M = fk_module(random_block_graph("Z3", random.Random(5)))
    pres = M.category.presentation
    for rel in pres.relations:
        if len(rel) < 2:
            continue
        src, dst, parity = pres.word_signature(next(iter(rel)))
        combo = {w: c + 1 for w, c in rel.items()}
        h = M.action_combo(combo, src, dst, parity)
        assert h.degree == parity
        assert [h.component(p).matrix for p in (0, 1)] == combo_reference(M, combo, src, dst)
        assert M.action_combo(rel, src, dst, parity).is_zero_hom()


def test_a_right_module_refuses_a_word_that_does_not_compose():
    """A right module builds a word from its first generator, which must
    start at src_obj; the rest of the word is checked in turn."""
    M = z1_right_module_with_i_acting_by_one()
    word = ("i:2>12", "r:12>1")
    assert M.action_word(word, "2", "1") == word_action(M, word, "2", "1")
    for bad, src, dst in ((word[::-1], "12", "12"), (word[:1], "1", "12"),
                          ((), "1", "2"), (("x:1>2",), "1", "2")):
        with pytest.raises(ModuleError, match="does not act from|runs from an object to itself"):
            M.action_word(bad, src, dst)


@pytest.mark.parametrize("word,src,dst", [
    (("i:14>124", "i:124>1234"), "4", "1234"),   # composes, but starts at 14
    (("i:14>124", "i:124>1234"), "14", "124"),   # composes, but ends at 1234
    (("i:14>124", "i:134>1234"), "14", "1234"),  # breaks in the middle
    (("i:14>124", "bogus"), "14", "1234"),       # a name that is no generator
    (("i:14>124",), "4", "124"),                 # one letter, the wrong start
    (("i:14>124",), "14", "1234"),               # one letter, the wrong end
], ids=["wrong-start", "wrong-end", "broken", "unknown-name", "letter-wrong-start",
        "letter-wrong-end"])
def test_a_refused_word_is_named_with_the_callers_ends(word, src, dst):
    """The whole word is checked before any of it is built, so the refusal
    names the word and ends the caller gave, not a part of the word."""
    with open(os.path.join(DATA, "ck_z3.json")) as fh:
        M = fk_module(BlockGraph.from_json(json.load(fh)))
    with pytest.raises(ModuleError) as refused:
        M.action_word(word, src, dst)
    assert str(refused.value) == f"{word} does not act from {src!r} to {dst!r}"
    assert M._word_cache == {}


def test_a_word_acting_in_the_wrong_degree_is_refused():
    M = fk_module(random_block_graph("Z3", random.Random(5)))
    a = next(a for a in M.category.presentation.arrows.values() if a.parity == 0)
    with pytest.raises(ModuleError, match="does not act in degree 1"):
        M.action_combo({(a.name,): 1}, a.src, a.dst, 1)


def test_a_one_summand_sum_map_is_its_block():
    sc = cat("Z1")
    A, B, C = sc.objects
    G = GradedGroup(Presentation(1), Presentation(1))
    H = GradedGroup(Presentation(1), Presentation(2))
    M = GradedModule(sc, "left", {A: G, B: G, C: H}, {})
    b = GradedHom.identity(G)
    assert M.sum_map(0, [(A, 0)], [(B, 0)], [[b]]) is b
    zero = M.sum_map(1, [(A, 0)], [(C, 0)], [[None]])
    assert zero.degree == 1 and zero.is_zero_hom()
    assert zero.from_even.target is H.odd and zero.from_odd.target is H.even
    # a block of the wrong degree, a shifted summand and several summands
    # are laid out
    for degree, sources, targets, blocks in [
            (1, [(A, 0)], [(B, 0)], [[b]]),
            (0, [(A, 1)], [(B, 1)], [[b]]),
            (0, [(A, 0), (B, 0)], [(A, 0)], [[b, None]])]:
        h = M.sum_map(degree, sources, targets, blocks)
        assert h is not b and h.degree == degree
        assert h.from_even.matrix == IntMatrix.block([[b.from_even.matrix, None][:len(sources)]],
                                                     [1], [1] * len(sources))
    with pytest.raises(zexact.ZExactError):
        M.sum_map(1, [(C, 0)], [(C, 0)], [[GradedHom.identity(H)]])


@pytest.mark.parametrize("name,M", SHORT_PATH_CORPUS, ids=[n for n, _ in SHORT_PATH_CORPUS])
def test_check_exact_and_tor_agree_with_their_uncached_loops_on_bare_entries(name, M):
    assert check_exact(M).failures == reference_check_exact(M)
    assert tor(M, 3).to_json() == reference_tor(M, 3).to_json()


def test_a_category_frees_its_resolutions_with_it():
    sc = build_category(builtin_space("Z1"))
    M = free_module(sc, "12", "left")
    tor(M, 2)
    assert sorted(sc.resolutions) == sorted(sc.objects)
    assert resolution_for(sc, "1", 3, "auto") is sc.resolutions["1"]
    ref = weakref.ref(sc)
    del sc, M
    gc.collect()
    assert ref() is None


def test_tor_builds_through_the_tensored_complex(monkeypatch):
    M = fk_module(random_block_graph("Z3", random.Random(4)))
    sc = M.category
    complexes = []
    real = ntmod.tensor_complex_maps
    monkeypatch.setattr(ntmod, "tensor_complex_maps",
                        lambda res, M, n: complexes.append((res.Y, n))
                        or real(res, M, n))
    rep = tor(M, 2)
    assert complexes == [(Y, 2) for Y in sc.objects]
    # the whole complex [None, d_1⊗M, d_2⊗M, d_3⊗M]; d_k⊗M leaves level k
    res = resolution_for(sc, "1234", 3)
    d = real(res, M, 2)
    assert len(d) == 4 and d[0] is None
    for k in (1, 2, 3):
        assert d[k].from_even.source.generators == sum(
            M.entries[A].part(e % 2).generators for A, e in res.level(k))
    assert tor_single(res, M, 1) == rep.groups["1234"][1]


def test_sign_robustness_delta_negation():
    # negating every odd-parity generator action gives an isomorphic module
    rng = random.Random(9)
    G = random_block_graph("Z3", rng)
    M = fk_module(G)
    flipped_actions = {}
    for name, h in M.actions.items():
        a = M.category.presentation.arrows[name]
        flipped_actions[name] = -h if a.parity == 1 else h
    M2 = GradedModule(M.category, "left", M.entries, flipped_actions)
    assert validate(M2).ok
    r1, r2 = tor(M, 2), tor(M2, 2)
    for Y in M.category.objects:
        for n in range(3):
            assert r1.groups[Y][n] == r2.groups[Y][n]


# ---------------------------------------------------------------------------
# The five-point module of projective dimension 2, and its mod-k twists
# ---------------------------------------------------------------------------

def test_z4_module_entries_and_exactness():
    sc, M = z4_module()
    assert validate(M).ok
    agg1 = graded_direct_sum([M.entries[l + "5"] for l in "1234"]
                             + [shift(M.entries["12345"])])
    assert agg1.even.normal_form().is_trivial()
    assert agg1.odd.normal_form() == AbGroupNF(3, ())
    agg2 = graded_direct_sum([M.entries[p] for p in
                              ("345", "245", "145", "235", "135", "125")])
    assert agg2.even.normal_form() == AbGroupNF(6, ())
    assert agg2.odd.normal_form().is_trivial()
    agg3 = graded_direct_sum([M.entries["5"]] +
                             [shift(M.entries[c]) for c in
                              ("2345", "1345", "1245", "1235")])
    assert agg3.odd.normal_form() == AbGroupNF(9, ())
    assert agg3.even.normal_form().is_trivial()
    assert check_exact(M).ok


def test_z4_tor2_and_projective_dimensions():
    sc, M = z4_module()
    res = builtin_resolution("Z4", "12345")
    ev, od = tor_single(res, M, 2)
    assert ev == AbGroupNF(1, ()) and od.is_trivial()
    assert projective_dimension(M, 4) == 2
    M3 = M.tensor_mod_k(3)
    ev, od = tor_single(res, M3, 2)
    assert ev == AbGroupNF(0, (3,)) and od.is_trivial()
    assert projective_dimension(M3, 4) == 3


def test_z4_mod_k_length3_resolution_is_valid():
    # 0 -> P5 -> P5 + P4 -> P4 + P3 -> P3 ->> M_k, with k = 2
    sc, M = z4_module()
    k = 2
    t = sc.table
    D = sc.designator
    f = frozenset

    def inc_el(a, b, sign=1):
        el = eval_combo(t, a, D.inc(f(a), f(b)))
        return t.scale(el, sign) if sign != 1 else el

    co = ["2345", "1345", "1245", "1235"]
    pairs = ["345", "245", "145", "235", "135", "125"]
    signs = [[1, -1, 0, 1, 0, 0], [-1, 0, 1, 0, -1, 0],
             [0, 1, -1, 0, 0, 1], [0, 0, 0, -1, 1, -1]]
    P5 = [("12345", 0)]
    P4 = [(c, 0) for c in co]
    P3 = [(p, 0) for p in pairs]
    alpha = [[inc_el(c, "12345")] for c in co]           # P5 -> P4
    beta = [[(inc_el(pairs[i], co[j], signs[j][i]) if signs[j][i] else None)
             for j in range(4)] for i in range(6)]       # P4 -> P3
    ident = lambda obj: t.identity(obj)
    kmul = lambda obj: t.scale(t.identity(obj), k)

    levels = [P3, [(c, 0) for c in co] + P3, P5 + P4, P5]
    d1 = [[(beta[i][j] if j < 4 else (kmul(pairs[i]) if pairs[i] == levels[0][i][0] and j - 4 == i else None))
           for j in range(4 + 6)] for i in range(6)]
    # d1 = (beta  k): block columns P4 then P3
    d1 = [[beta[i][j] for j in range(4)] +
          [kmul(pairs[i]) if jj == i else None for jj in range(6)]
          for i in range(6)]
    # d2 = (alpha  -k ; 0  beta): rows P4 then P3, cols P5 then P4
    d2_top = [[alpha[i][0]] + [t.scale(ident(co[i]), -k) if jj == i else None
                               for jj in range(4)] for i in range(4)]
    d2_bot = [[None] + [beta[i][j] for j in range(4)] for i in range(6)]
    d2 = d2_top + d2_bot
    # d3 = (k ; alpha): rows P5 then P4, cols P5
    d3 = [[kmul("12345")]] + [[alpha[i][0]] for i in range(4)]
    diffs = [d1, d2, d3]
    Mk = M.tensor_mod_k(k)
    # d∘d = 0 and exactness on underlying groups at every object and parity,
    # including injectivity at the left end and coker = M_k at the right
    for W in sc.objects:
        for parity in (0, 1):
            mats = left_complex_underlying(sc, levels, diffs, W, parity)
            from fktor.zexact import kernel, GroupHom, subquotient_homology
            for a, b in zip(mats, mats[1:]):
                assert (a * b).is_zero()
            # left end injective
            assert kernel(mats[-1]).cols == 0
            # exact at interior nodes
            for i in range(len(mats) - 1):
                A = Presentation.free(mats[i + 1].cols)
                B = Presentation.free(mats[i + 1].rows)
                C = Presentation.free(mats[i].rows)
                h = subquotient_homology(GroupHom(A, B, mats[i + 1]),
                                         GroupHom(B, C, mats[i]))
                assert h.group.is_trivial(), (W, parity, i)
            # cokernel of d1 is M_k(W)
            cok = Presentation(mats[0].rows, mats[0])
            assert cok.normal_form() == Mk.entries[W].part(parity).normal_form()


# ---------------------------------------------------------------------------
# Rational Tor and the hypothesis gate
# ---------------------------------------------------------------------------

def test_rational_tor_of_torsion_group_is_zero():
    rng = random.Random(3)
    G = random_block_graph("Z3", rng)
    M = fk_module(G)
    ev, od = rational_tor(M, 1)
    rep = tor(M, 1)
    agg = rep.aggregate(1)
    assert (ev, od) == (agg[0].rank, agg[1].rank)


def test_projective_dimension_of_free_module_is_zero():
    sc = cat("Z3")
    P = free_module(sc, "34", "left")
    assert projective_dimension(P, 2) == 0


def test_tor_report_refuses_an_unreached_degree():
    # a report through degree 2 decides pd <= 1 only: Tor_3 is missing, and
    # a missing degree would read as 0
    sc, M = z4_module()
    rep = tor(M, 2)
    assert rep.projective_dimension(1) is None
    with pytest.raises(ModuleError, match="needs Tor_3"):
        rep.projective_dimension(2)
    assert tor(M, 3).projective_dimension(2) == 2


def test_a_tor_report_refuses_a_degree_it_does_not_hold():
    """aggregate, is_zero and is_free read every object at degree n, so a
    report through degree 1 has no Tor_7: read as 0 it would be free and
    zero.  They refuse it through the check that projective_dimension makes."""
    with open(os.path.join(DATA, "ck_z3.json")) as fh:
        rep = tor_ck(BlockGraph.from_json(json.load(fh)), 1)
    assert rep.aggregate(1) == (AbGroupNF(0, ()), AbGroupNF(0, (2,)))
    assert not rep.is_zero(1) and not rep.is_free(1)
    for read in (rep.aggregate, rep.is_zero, rep.is_free):
        with pytest.raises(ModuleError, match="needs Tor_7; the report stops at degree 1"):
            read(7)


def test_check_hypotheses_runs_ideal_checks(monkeypatch):
    class Flags:
        nilpotent, semidirect = True, False

    ntmod.check_hypotheses(cat("Z4"))
    monkeypatch.setattr(ntmod, "ideal_checks", lambda table: Flags())
    with pytest.raises(ntmod.HypothesisNotVerifiedError, match="Z4"):
        ntmod.check_hypotheses(cat("Z4"))
    with pytest.raises(ntmod.HypothesisNotVerifiedError):
        projective_dimension(z4_module()[1], 2)


def test_tensor_mod_k_requires_k_at_least_2():
    sc, M = z4_module()
    with pytest.raises(Exception):
        M.tensor_mod_k(1)


@pytest.mark.parametrize("k", [3.0, 2.5, True])
def test_tensor_mod_k_refuses_a_k_that_is_not_an_int(k):
    sc, M = z4_module()
    with pytest.raises(ModuleError, match="needs an integer k >= 2"):
        M.tensor_mod_k(k)


@pytest.mark.parametrize("degree", [-1, True, 1.0, "1"])
def test_tor_refuses_a_degree_that_is_not_a_nonnegative_int(monkeypatch, degree):
    M = free_module(cat("Z1"), "12", "left")
    G = random_block_graph("Z1", random.Random(1))

    def no_resolution(*args, **kwargs):
        raise AssertionError("a resolution was built for a bad degree")

    monkeypatch.setattr(ntmod, "resolution_for", no_resolution)
    for call in (lambda: tor(M, degree), lambda: rational_tor(M, degree),
                 lambda: tor_ck(G, degree)):
        with pytest.raises(ModuleError, match="nonnegative integer degree"):
            call()


@pytest.mark.parametrize("max_n", [-2, 0.5])
def test_projective_dimension_asks_tor_for_a_bad_degree(max_n):
    # max_n + 1 is the degree projective_dimension asks tor for
    with pytest.raises(ModuleError, match="nonnegative integer degree"):
        projective_dimension(free_module(cat("Z1"), "12", "left"), max_n)


@pytest.mark.parametrize("max_n", [True, False, 0.5, 1.0, "1", None])
def test_projective_dimension_refuses_a_bound_that_is_no_integer(max_n):
    M = free_module(cat("Z1"), "12", "left")
    with pytest.raises(ModuleError, match="max_n must be an integer"):
        projective_dimension(M, max_n)
    with pytest.raises(ModuleError, match="max_n must be an integer"):
        tor(M, 3).projective_dimension(max_n)
    assert projective_dimension(M, 1) == 0


def test_a_non_object_is_refused_before_anything_is_cached():
    sc = build_category(builtin_space("Z3"))
    for engine in ("auto", "generic", "builtin"):
        with pytest.raises(ModuleError, match="'9' is not an object of Z3"):
            resolution_for(sc, "9", 3, engine)
    with pytest.raises(ModuleError, match="'9' is not an object of Z3"):
        resolve_simple(sc, "9", 3)
    assert sc.resolutions == {}


@pytest.mark.parametrize("depth", [-1, True, False, 2.0, "2", None])
def test_a_resolution_depth_must_be_a_nonnegative_integer(depth):
    sc = build_category(builtin_space("Z3"))
    with pytest.raises(ModuleError, match="nonnegative integer depth"):
        resolve_simple(sc, "4", depth)
    with pytest.raises(ModuleError, match="nonnegative integer depth"):
        resolution_for(sc, "4", depth)
    assert sc.resolutions == {}
    assert len(resolve_simple(sc, "4", 0).levels) == 1


# ---------------------------------------------------------------------------
# Module JSON round trip
# ---------------------------------------------------------------------------

def test_a_module_refuses_actions_and_entries_outside_its_category():
    sc = cat("Z1")
    M = free_module(sc, "12", "left")
    h = M.actions["r:12>1"]
    with pytest.raises(ModuleError, match=r"actions for arrows not in the category: \['bogus'\]"):
        GradedModule(sc, "left", M.entries, {**M.actions, "bogus": h})
    with pytest.raises(ModuleError, match=r"entries for objects not in the category: \['9'\]"):
        GradedModule(sc, "left", {**M.entries, "9": M.entries["12"]}, M.actions)


def test_module_json_round_trip():
    rng = random.Random(77)
    G = random_block_graph("Z3", rng)
    M = fk_module(G)
    clone = GradedModule.from_json(M.to_json())
    assert validate(clone).ok
    r1, r2 = tor(M, 1), tor(clone, 1)
    assert r1.aggregate(1) == r2.aggregate(1)


def test_a_module_over_a_space_that_is_not_builtin_round_trips():
    X = FiniteSpace("1234", ["", "4", "34", "234", "1234"])  # chain 1 < 2 < 3 < 4
    sc = space_category(X)
    M = free_module(sc, sc.objects[0])
    data = json.loads(json.dumps(M.to_json()))
    assert data["space"] == space_to_json(X)
    clone = GradedModule.from_json(data)
    assert clone.category is sc and clone.to_json() == data
    assert free_module(cat("Z2"), "1").to_json()["space"] == "Z2"
    for space in (None, {"builtin": 5}, {"points": ["1"]}):
        with pytest.raises(SpaceError):
            GradedModule.from_json({**data, "space": space})


def test_the_space_in_json_does_not_depend_on_the_copy_cached_first(monkeypatch):
    """A named copy of the chain 1 < 2 < 3 < 4 reaches the category cache
    first; the unnamed one still round-trips, and module and table JSON
    write the space without the first copy's name."""
    monkeypatch.setattr(ntcat, "_CATEGORY_CACHE", {})
    opens = ["", "4", "34", "234", "1234"]
    named = space_category(FiniteSpace("1234", opens, name="1<2,1<3,1<4,2<3,2<4,3<4"))
    X = FiniteSpace("1234", opens)
    sc = space_category(X)
    assert sc is named
    M = free_module(sc, sc.objects[0])
    data = json.loads(json.dumps(M.to_json()))
    assert data["space"] == space_to_json(X)
    clone = GradedModule.from_json(data)
    assert clone.category is sc and clone.to_json() == data
    assert table_to_json(sc)["presentation"]["space"] == space_to_json(X)


def test_coker_module_trivial_cases():
    sc = cat("Z3")
    t = sc.table
    # cokernel of the identity is the zero module
    M = coker_module(sc, [("14", 0)], [("14", 0)], [[t.identity("14")]])
    assert all(g.even.normal_form().is_trivial() and g.odd.normal_form().is_trivial()
               for g in M.entries.values())
    # cokernel of a zero map is the free target
    M2 = coker_module(sc, [("14", 0)], [("4", 0)], [[None]])
    P = free_module(sc, "14", "left")
    for obj in sc.objects:
        assert M2.entries[obj].even.normal_form() == P.entries[obj].even.normal_form()
        assert M2.entries[obj].odd.normal_form() == P.entries[obj].odd.normal_form()
