"""The hand catalogue of free resolutions of the simple right-modules S_Y,
kept as the oracle for the syzygy engine and as the source of the shipped
file src/fktor/data/resolutions.json.

Z3 has explicit differentials for all eleven objects.  S and C2 have level
shapes only: the syzygy engine builds the resolution and the shapes are
checked against its levels.  Z4 has the first two differentials of
S_12345, which the engine continues and which are checked against the
shapes of the later levels.  An entry must validate through its last level;
its periodic marker is kept only when the resolution also validates
through the wrap-around differential the marker implies.

Regenerate the shipped file from the repository root with

    PYTHONPATH=src python3 tests/catalogue.py
"""

import json

from conftest import eval_combo
from fktor.ntcat import CategoryError, builtin_category, combo_compose
from fktor.ntmod import (CatalogueError, FreeResolution, _RESOLUTIONS_PATH,
                         extend_resolution, resolve_simple, validate_resolution)
from fktor.zexact import ZExactError


def _el(sc, src, combo, sign=1):
    el = eval_combo(sc.table, src, combo)
    return sc.table.scale(el, sign) if sign != 1 else el


# Level shapes and periodic markers of the Z3 catalogue, one entry per
# object; the S catalogue is transported from these shapes
_Z3_SHAPES = {
    # S_{j4}: Q_j[1] -> Q_4 -> Q_{j4}, periodic
    "14": ([[("14", 0)], [("4", 0)], [("1", 1)], [("14", 1)]], (0, 3)),
    "24": ([[("24", 0)], [("4", 0)], [("2", 1)], [("24", 1)]], (0, 3)),
    "34": ([[("34", 0)], [("4", 0)], [("3", 1)], [("34", 1)]], (0, 3)),
    # S_4: Q_1234[1] -> ⊕Q_j[1] -> Q_4, periodic
    "4": ([[("4", 0)], [("1", 1), ("2", 1), ("3", 1)], [("1234", 1)], [("4", 1)]],
          (0, 3)),
    # S_j: Q_{1234∖j} -> Q_1234 -> Q_j, periodic
    "1": ([[("1", 0)], [("1234", 0)], [("234", 0)], [("1", 1)]], (0, 3)),
    "2": ([[("2", 0)], [("1234", 0)], [("134", 0)], [("2", 1)]], (0, 3)),
    "3": ([[("3", 0)], [("1234", 0)], [("124", 0)], [("3", 1)]], (0, 3)),
    # S_{jk4}: Q_4 -> Q_{j4}⊕Q_{k4} -> Q_{jk4}, periodic (Mayer-Vietoris)
    "124": ([[("124", 0)], [("14", 0), ("24", 0)], [("4", 0)], [("124", 1)]], (0, 3)),
    "134": ([[("134", 0)], [("14", 0), ("34", 0)], [("4", 0)], [("134", 1)]], (0, 3)),
    "234": ([[("234", 0)], [("24", 0), ("34", 0)], [("4", 0)], [("234", 1)]], (0, 3)),
    # S_1234: the four-term resolution with explicit ±i and delta entries
    "1234": ([[("1234", 0)],
              [("124", 0), ("134", 0), ("234", 0)],
              [("14", 0), ("24", 0), ("34", 0)],
              [("4", 0), ("1234", 1)],
              [("124", 1), ("134", 1), ("234", 1)]], (1, 3)),
}


def _z3_catalogue(sc, Y):
    """The Z3 catalogue entry of S_Y: its levels, explicit differentials and
    periodic marker.  Only Y's differentials are evaluated."""
    shape, periodic = _Z3_SHAPES[Y]
    D = sc.designator
    f = frozenset

    def inc(a, b):
        return D.inc(f(a), f(b))

    def res(a, b):
        return D.res(f(a), f(b))

    def E(src, combo, sign=1):
        return _el(sc, src, combo, sign)

    if Y == "4":  # S_4
        diffs = [
            [[E("1", {("d:1>4",): 1}), E("2", {("d:2>4",): 1}), E("3", {("d:3>4",): 1})]],
            [[E("1234", res("1234", "1"))], [E("1234", res("1234", "2"))],
             [E("1234", res("1234", "3"))]],
            [[E("4", inc("4", "1234"))]],
        ]
    elif len(Y) == 1:  # S_j
        j, comp = Y, "".join(sorted(set("1234") - {Y}))
        diffs = [
            [[E("1234", {("r:1234>%s" % j,): 1})]],
            [[E(comp, inc(comp, "1234"))]],
            [[E(j, combo_compose({("d:%s>4" % j,): 1}, inc("4", comp)))]],
        ]
    elif len(Y) == 2:  # S_{j4}
        j = Y[0]
        diffs = [
            [[E("4", inc("4", Y))]],
            [[E(j, {("d:%s>4" % j,): 1})]],
            [[E(Y, res(Y, j))]],
        ]
    elif len(Y) == 3:  # S_{jk4}
        j, k = Y[0], Y[1]
        j4, k4 = j + "4", k + "4"
        diffs = [
            [[E(j4, inc(j4, Y)), E(k4, inc(k4, Y))]],
            [[E("4", inc("4", j4))], [E("4", inc("4", k4), -1)]],
            [[E(Y, combo_compose(res(Y, j), {("d:%s>4" % j,): 1}))]],
        ]
    else:  # S_1234
        d_1234_14 = combo_compose(combo_compose({("r:1234>3",): 1}, {("d:3>4",): 1}),
                                  inc("4", "14"))
        d_234_4 = combo_compose(res("234", "2"), {("d:2>4",): 1})
        diffs = [
            [[E("124", inc("124", "1234")), E("134", inc("134", "1234")),
              E("234", inc("234", "1234"))]],
            # rows 124,134,234; cols 14,24,34; sign pattern (i -i 0; -i 0 i; 0 i -i)
            [[E("14", inc("14", "124")), E("24", inc("24", "124"), -1), None],
             [E("14", inc("14", "134"), -1), None, E("34", inc("34", "134"))],
             [None, E("24", inc("24", "234")), E("34", inc("34", "234"), -1)]],
            # rows 14,24,34; cols 4, 1234[1]
            [[E("4", inc("4", "14")), E("1234", d_1234_14)],
             [E("4", inc("4", "24")), None],
             [E("4", inc("4", "34")), None]],
            # rows 4, 1234[1]; cols 124[1], 134[1], 234[1]; classically
            # (0 0 -d_234^4; i i i) up to sign freedom; our designated words
            # force the + sign for d∘d = 0
            [[None, None, E("234", d_234_4)],
             [E("124", inc("124", "1234")), E("134", inc("134", "1234")),
              E("234", inc("234", "1234"))]],
        ]
    # a copy of the levels: a resolution that loses its marker grows them
    return dict(levels=[list(lvl) for lvl in shape], diffs=diffs,
                periodic=periodic)


def _c2_shapes():
    shapes = {}
    shapes["3"] = ([[("3", 0)], [("1", 1), ("2", 1)], [("123", 1)], [("3", 1)]], (0, 3))
    shapes["4"] = ([[("4", 0)], [("1", 1), ("2", 1)], [("124", 1)], [("4", 1)]], (0, 3))
    shapes["134"] = ([[("134", 0)], [("3", 0), ("4", 0)], [("1", 1)], [("134", 1)]], (0, 3))
    shapes["234"] = ([[("234", 0)], [("3", 0), ("4", 0)], [("2", 1)], [("234", 1)]], (0, 3))
    shapes["13"] = ([[("13", 0)], [("134", 0)], [("4", 0)], [("13", 1)]], (0, 3))
    shapes["14"] = ([[("14", 0)], [("134", 0)], [("3", 0)], [("14", 1)]], (0, 3))
    shapes["23"] = ([[("23", 0)], [("234", 0)], [("4", 0)], [("23", 1)]], (0, 3))
    shapes["24"] = ([[("24", 0)], [("234", 0)], [("3", 0)], [("24", 1)]], (0, 3))
    shapes["1234"] = ([[("1234", 0)], [("134", 0), ("234", 0)],
                       [("3", 0), ("4", 0)], [("1234", 1)]], (0, 3))
    shapes["123"] = ([[("123", 0)], [("1234", 0), ("13", 0), ("23", 0)],
                      [("134", 0), ("234", 0)], [("4", 0), ("123", 1)],
                      [("1234", 1), ("13", 1), ("23", 1)]], (1, 3))
    shapes["124"] = ([[("124", 0)], [("1234", 0), ("14", 0), ("24", 0)],
                      [("134", 0), ("234", 0)], [("3", 0), ("124", 1)],
                      [("1234", 1), ("14", 1), ("24", 1)]], (1, 3))
    shapes["1"] = ([[("1", 0)], [("123", 0), ("124", 0)],
                    [("1234", 0), ("23", 0), ("24", 0)], [("234", 0), ("1", 1)],
                    [("123", 1), ("124", 1)]], (1, 3))
    shapes["2"] = ([[("2", 0)], [("123", 0), ("124", 0)],
                    [("1234", 0), ("13", 0), ("14", 0)], [("134", 0), ("2", 1)],
                    [("123", 1), ("124", 1)]], (1, 3))
    return shapes


# object correspondence and parity shifts carrying the Z3 category to the S
# category (verified against the computed Hom ranks of both tables)
_S_PHI = {"1": "2", "2": "3", "3": "1234", "4": "123", "14": "13", "24": "12",
          "34": "4", "124": "1", "134": "24", "234": "34", "1234": "234"}
_S_SIGMA = {"1": 1, "2": 1, "3": 1, "4": 0, "14": 0, "24": 0, "34": 1,
            "124": 0, "134": 1, "234": 1, "1234": 1}


def _s_shapes():
    """Shapes for the S catalogue, transported from the Z3 shapes through the
    structural correspondence of the two categories (objects, with parity
    shifts)."""
    shapes = {}
    for Yz, (z3_levels, marker) in _Z3_SHAPES.items():
        Ys = _S_PHI[Yz]
        sY = _S_SIGMA[Yz]
        levels = [[(_S_PHI[A], (e + _S_SIGMA[A] + sY) % 2) for A, e in lvl]
                  for lvl in z3_levels]
        shapes[Ys] = (levels, marker)
    return shapes


def _z4_12345_entry(sc):
    f = frozenset
    D = sc.designator

    def inc(a, b):
        return D.inc(f(a), f(b))

    def E(src, combo, sign=1):
        return _el(sc, src, combo, sign)

    co = ["2345", "1345", "1245", "1235"]  # 12345∖c for c = 1,2,3,4
    pairs = ["345", "245", "145", "235", "135", "125"]  # pair objects jk5
    # the classical 4x6 sign pattern, rows = co, cols = pairs
    signs = [
        [1, -1, 0, 1, 0, 0],
        [-1, 0, 1, 0, -1, 0],
        [0, 1, -1, 0, 0, 1],
        [0, 0, 0, -1, 1, -1],
    ]
    d1 = [[E(c, inc(c, "12345")) for c in co]]
    d2 = []
    for i, c in enumerate(co):
        row = []
        for j, pr in enumerate(pairs):
            s = signs[i][j]
            row.append(E(pr, inc(pr, c), s) if s else None)
        d2.append(row)
    levels = [
        [("12345", 0)],
        [(c, 0) for c in co],
        [(p, 0) for p in pairs],
        [("15", 0), ("25", 0), ("35", 0), ("45", 0), ("12345", 1)],
        [("5", 0), ("2345", 1), ("1345", 1), ("1245", 1), ("1235", 1)],
        [(p, 1) for p in pairs],
    ]
    return dict(levels=levels, diffs=[d1, d2], periodic=(2, 3))


ENTRIES = ([("Z3", Y) for Y in _Z3_SHAPES] + [("S", Y) for Y in _s_shapes()]
           + [("C2", Y) for Y in _c2_shapes()] + [("Z4", "12345")])


def _check_shapes(res, levels):
    """Each level the engine built has the catalogued summand multiset."""
    for n, want in enumerate(levels):
        if sorted(res.levels[n]) != sorted(want):
            raise CatalogueError(f"resolution of S_{res.Y} level {n}: expected "
                                 f"{sorted(want)}, got {sorted(res.levels[n])}")


def catalogue_entry(space_name, Y):
    """The catalogued resolution of S_Y, not yet validated, and its periodic
    marker (not yet set on the resolution)."""
    sc = builtin_category(space_name)
    if space_name == "Z3" and Y in _Z3_SHAPES:
        e = _z3_catalogue(sc, Y)
        return FreeResolution(sc, Y, e["levels"], e["diffs"]), e["periodic"]
    if space_name in ("C2", "S"):
        shapes = _c2_shapes() if space_name == "C2" else _s_shapes()
        if Y in shapes:
            levels, marker = shapes[Y]
            res = resolve_simple(sc, Y, len(levels) - 1)
            _check_shapes(res, levels)
            return res, marker
    if space_name == "Z4" and Y == "12345":
        e = _z4_12345_entry(sc)
        levels = e["levels"]
        res = FreeResolution(sc, Y, levels[:3], e["diffs"])
        extend_resolution(res, len(levels) - 1)
        _check_shapes(res, levels)
        return res, e["periodic"]
    raise CatalogueError(f"no catalogued resolution for ({space_name}, {Y})")


def accepts(check):
    """True when a validation check returns no problems; a check that
    cannot even form the composites rejects."""
    try:
        return not check()
    except (CategoryError, ZExactError):
        return False


def generate(space_name, Y):
    """The validated catalogue resolution of S_Y, as the shipped file holds
    it: the periodic marker is kept only when the resolution validates
    through the wrap-around differential the marker implies."""
    res, marker = catalogue_entry(space_name, Y)
    problems = validate_resolution(res, len(res.levels) - 1)
    if problems:
        raise CatalogueError(f"catalogued resolution for ({space_name}, {Y}) "
                             f"failed validation: {problems[:3]}")
    res.periodic = marker
    if not accepts(lambda: validate_resolution(res, len(res.levels))):
        res.periodic = None
    return res


def resolution_json(res):
    """Levels, differentials as [src, dst, parity, vec] in table
    coordinates (null for a zero entry) and the periodic marker."""
    return {
        "levels": [[[obj, eps] for obj, eps in lvl] for lvl in res.levels],
        "diffs": [[[None if e is None else [e.src, e.dst, e.parity, list(e.vec)]
                    for e in row] for row in d] for d in res.diffs],
        "periodic": list(res.periodic) if res.periodic else None,
    }


def shipped_text():
    """The content of data/resolutions.json, generated afresh."""
    data = {}
    for name, Y in ENTRIES:
        data.setdefault(name, {})[Y] = resolution_json(generate(name, Y))
    return json.dumps(data, sort_keys=True)


if __name__ == "__main__":
    with open(_RESOLUTIONS_PATH, "w") as fh:
        fh.write(shipped_text())
