import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import z1_right_module_with_i_acting_by_one
from fktor.cli import (EXIT_COMPUTE, EXIT_HYPOTHESIS, EXIT_OK, EXIT_PARSE, run)

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "fktor", "data")


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Reference example invocations
# ---------------------------------------------------------------------------

def test_space_info_c2():
    code, out = run_cli("space-info", "--builtin", "C2")
    assert code == EXIT_OK
    assert "LC* = 13 subsets; accordion: no" in out


def test_graph_tor_z3_prints_z2():
    code, out = run_cli("graph-tor", "--space", "Z3", "--file", "ck_z3.json")
    assert code == EXIT_OK
    assert "Tor_1 odd: Z/2" in out
    assert "Tor_1 even: 0" in out


def test_module_pd_z4_example():
    code, out = run_cli("module-pd", "--space", "Z4", "--file",
                        "m_example.json", "--max", "4")
    assert code == EXIT_OK
    assert "pd = 2" in out


def test_module_tor_json_reference_format():
    code, out = run_cli("module-tor", "--space", "Z4", "--file",
                        "m_example.json", "--degree", "2", "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["tor"]["12345"]["2"] == {"even": "Z^1", "odd": "0"}


# graph-tor --format json at --degree 1, pinned byte for byte with the
# signed witness vectors of the Z3 lattice identification
GRAPH_TOR_JSON = {
    ("Z3", "ck_z3.json"):
        '{"aggregate": {"0": {"even": "Z^4", "odd": "Z^4 + Z/2 + Z/2 + Z/2"}, '
        '"1": {"even": "0", "odd": "Z/2"}}, "degree": 1, "space": "Z3", '
        '"tor": {"1234": {"1": {"even": "0", "odd": "Z/2"}}, '
        '"124": {"0": {"even": "0", "odd": "Z/2"}}, '
        '"134": {"0": {"even": "0", "odd": "Z/2"}}, '
        '"14": {"0": {"even": "Z^1", "odd": "Z^1"}}, '
        '"234": {"0": {"even": "0", "odd": "Z/2"}}, '
        '"24": {"0": {"even": "Z^1", "odd": "Z^1"}}, '
        '"34": {"0": {"even": "Z^1", "odd": "Z^1"}}, '
        '"4": {"0": {"even": "Z^1", "odd": "Z^1"}}}, '
        '"witnesses": {"image": [2, 2, 0, 0, 2, 2, 0, 0, 2, 2, 0, 0], '
        '"numerator": [1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0]}}\n',
    ("S", "ck_s.json"):
        '{"aggregate": {"0": {"even": "Z^1 + Z/2 + Z/2 + Z/2", '
        '"odd": "Z^1 + Z/2"}, "1": {"even": "Z/2", "odd": "0"}}, '
        '"degree": 1, "space": "S", '
        '"tor": {"1": {"0": {"even": "0", "odd": "Z/2"}}, '
        '"1234": {"0": {"even": "Z^1", "odd": "Z^1"}}, '
        '"234": {"1": {"even": "Z/2", "odd": "0"}}, '
        '"24": {"0": {"even": "Z/2", "odd": "0"}}, '
        '"34": {"0": {"even": "Z/2", "odd": "0"}}, '
        '"4": {"0": {"even": "Z/2", "odd": "0"}}}}\n',
}


@pytest.mark.parametrize("engine", ["auto", "generic", "builtin"])
@pytest.mark.parametrize("space,name", sorted(GRAPH_TOR_JSON))
def test_graph_tor_json_pinned(space, name, engine):
    code, out = run_cli("graph-tor", "--space", space, "--file", name,
                        "--engine", engine, "--format", "json")
    assert code == EXIT_OK
    assert out == GRAPH_TOR_JSON[space, name]


@pytest.mark.parametrize("space,name", sorted(GRAPH_TOR_JSON))
def test_graph_tor_degree_zero_reports_tor0_only(space, name):
    # the fast paths compute Tor_1, so a Tor_0 report skips them
    code, out = run_cli("graph-tor", "--space", space, "--file", name,
                        "--degree", "0", "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    pinned = json.loads(GRAPH_TOR_JSON[space, name])
    assert rep["degree"] == 0 and list(rep["aggregate"]) == ["0"]
    assert rep["aggregate"]["0"] == pinned["aggregate"]["0"]
    assert "witnesses" not in rep


def test_graph_tor_fast_path_disagreement_exits_4(monkeypatch):
    import fktor.cli as cli
    from fktor.graphk import FastTorResult
    from fktor.zexact import AbGroupNF

    monkeypatch.setattr(cli, "z3_fast_tor1", lambda G: FastTorResult(
        AbGroupNF(0, ()), AbGroupNF(0, (3,))))
    code, out = run_cli("graph-tor", "--space", "Z3", "--file", "ck_z3.json",
                        "--degree", "1")
    assert code == EXIT_COMPUTE and out == ""


@pytest.mark.parametrize("verb,flag,name", [
    ("module-tor", "--degree", "m_example.json"),
    ("module-pd", "--max", "m_example.json"),
    ("graph-tor", "--degree", "ck_z3.json"),
])
def test_negative_count_flags_are_parse_errors(capsys, verb, flag, name):
    space = "Z3" if verb.startswith("graph") else "Z4"
    code, out = run_cli(verb, "--space", space, "--file", name, flag, "-1")
    assert code == EXIT_PARSE and out == ""
    assert "nonnegative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Formats and determinism
# ---------------------------------------------------------------------------

def test_output_deterministic():
    a = run_cli("graph-tor", "--space", "S", "--file", "ck_s.json")
    b = run_cli("graph-tor", "--space", "S", "--file", "ck_s.json")
    assert a == b


def test_json_round_trip():
    code, out = run_cli("graph-tor", "--space", "Z3", "--file", "ck_z3.json",
                        "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert json.dumps(rep, sort_keys=True) + "\n" == out


def test_text_and_json_agree_on_groups():
    _, text = run_cli("graph-tor", "--space", "Z3", "--file", "ck_z3.json")
    _, js = run_cli("graph-tor", "--space", "Z3", "--file", "ck_z3.json",
                    "--format", "json")
    rep = json.loads(js)
    assert f"Tor_1 odd: {rep['aggregate']['1']['odd']}" in text


def test_graph_k_single_subset():
    code, out = run_cli("graph-k", "--space", "Z3", "--file", "ck_z3.json",
                        "--subset", "4")
    assert code == EXIT_OK
    assert "4: K0 = Z^1 + Z/2, K1 = Z^1" in out


@pytest.mark.parametrize("subset, key, groups", [
    ("41", "14", "K0 = Z^2, K1 = Z^2"), ("44", "4", "K0 = Z^1 + Z/2, K1 = Z^1")])
def test_graph_k_reports_a_subset_under_its_object_label(subset, key, groups):
    code, out = run_cli("graph-k", "--space", "Z3", "--file", "ck_z3.json",
                        "--subset", subset)
    assert (code, out) == (EXIT_OK, f"{key}: {groups}\n")
    code, out = run_cli("graph-k", "--space", "Z3", "--file", "ck_z3.json",
                        "--subset", subset, "--format", "json")
    assert code == EXIT_OK
    assert list(json.loads(out)["k_groups"]) == [key]


@pytest.mark.parametrize("subset", ["99", "4x", ""])
def test_graph_k_subset_that_names_no_points_is_a_parse_error(subset, capsys):
    code, out = run_cli("graph-k", "--space", "Z3", "--file", "ck_z3.json",
                        "--subset", subset)
    assert code == EXIT_PARSE and out == ""
    assert f"--subset {subset!r}" in capsys.readouterr().err


@pytest.mark.parametrize("subset", ["14", "41", "124"])
def test_graph_k_subset_that_is_not_locally_closed_is_a_parse_error(subset, capsys):
    code, out = run_cli("graph-k", "--space", "S", "--file", "ck_s.json",
                        "--subset", subset)
    assert code == EXIT_PARSE and out == ""
    assert f"--subset {subset!r} is not locally closed in S" in capsys.readouterr().err


def test_graph_check_text():
    code, out = run_cli("graph-check", "--space", "Z3", "--file", "ck_z3.json")
    assert code == EXIT_OK
    assert "condition (K): yes" in out


def test_graph_fk_dumps_module():
    code, out = run_cli("graph-fk", "--space", "S", "--file", "ck_s.json",
                        "--format", "json")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["valid"] is True
    from fktor.ntmod import GradedModule, validate
    M = GradedModule.from_json(rep["module"])
    assert validate(M).ok


def test_cat_table_warns_on_reconstructed():
    code, out = run_cli("cat-table", "--space", "C2")
    assert code == EXIT_OK
    assert "reconstructed" in out
    code, out = run_cli("cat-table", "--space", "Z3")
    assert code == EXIT_OK
    assert "reconstructed" not in out


def test_module_validate_and_exact():
    code, out = run_cli("module-validate", "--space", "Z4", "--file",
                        "m_example.json")
    assert code == EXIT_OK and "valid: yes" in out
    code, out = run_cli("module-exact", "--space", "Z4", "--file",
                        "m_example.json")
    assert code == EXIT_OK and "exact: yes" in out


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_parse_error_unknown_space():
    code, _ = run_cli("space-info", "--builtin", "Q9")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("verb", ["space-info", "cat-table"])
def test_space_and_builtin_naming_different_spaces_is_a_parse_error(verb, capsys):
    code, out = run_cli(verb, "--space", "Z3", "--builtin", "S")
    assert code == EXIT_PARSE and out == ""
    err = capsys.readouterr().err
    assert "--space Z3" in err and "--builtin S" in err


@pytest.mark.parametrize("verb", ["space-info", "cat-table"])
def test_space_and_builtin_naming_the_same_space(verb):
    code, out = run_cli(verb, "--space", "Z3", "--builtin", "Z3", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["space"] == "Z3"
    assert (code, out) == run_cli(verb, "--space", "Z3", "--format", "json")


def test_parse_error_missing_file():
    code, _ = run_cli("graph-tor", "--space", "Z3", "--file", "nope.json")
    assert code == EXIT_PARSE


def test_parse_error_space_mismatch():
    code, _ = run_cli("graph-tor", "--space", "S", "--file", "ck_z3.json")
    assert code == EXIT_PARSE


def test_compute_error_triangularity(tmp_path):
    bad = {
        "space": "Z3",
        "blocks": [{"point": "4", "vertices": 1}, {"point": "1", "vertices": 1},
                   {"point": "2", "vertices": 1}, {"point": "3", "vertices": 1}],
        "adjacency": [[2, 1, 0, 0], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, _ = run_cli("graph-k", "--space", "Z3", "--file", str(p),
                      "--subset", "14")
    assert code == EXIT_COMPUTE


def test_hypothesis_exit_code(monkeypatch):
    import fktor.ntmod as nm

    class FakeFlags:
        nilpotent = False
        semidirect = False

    monkeypatch.setattr(nm, "ideal_checks", lambda table: FakeFlags())
    code, _ = run_cli("module-pd", "--space", "Z4", "--file", "m_example.json")
    assert code == EXIT_HYPOTHESIS


def test_module_pd_computes_tor_once(monkeypatch):
    import fktor.cli as cli
    import fktor.ntmod as nm

    calls = []
    real = nm.tor
    monkeypatch.setattr(nm, "tor", lambda M, n, *a, **kw:
                        calls.append(n) or real(M, n, *a, **kw))
    monkeypatch.setattr(cli, "tor", nm.tor)
    code, out = run_cli("module-pd", "--space", "Z4", "--file", "m_example.json",
                        "--max", "3", "--format", "json")
    assert code == EXIT_OK
    assert calls == [4]
    assert json.loads(out)["pd"] == 2


GOOD_Z3_GRAPH = {
    "space": "Z3",
    "blocks": [{"point": "4", "vertices": 1}, {"point": "1", "vertices": 1},
               {"point": "2", "vertices": 1}, {"point": "3", "vertices": 1}],
    "adjacency": [[2, 0, 0, 0], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]],
}


def _write_json(tmp_path, data):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    return str(p)


def _graph_with_entry(value):
    data = json.loads(json.dumps(GOOD_Z3_GRAPH))
    data["adjacency"][1][0] = value
    return data


def test_graph_file_reference_input_is_accepted(tmp_path):
    code, out = run_cli("graph-check", "--space", "Z3", "--file",
                        _write_json(tmp_path, GOOD_Z3_GRAPH))
    assert code == EXIT_OK and "triangular: yes" in out


def _no_adjacency():
    data = dict(GOOD_Z3_GRAPH)
    del data["adjacency"]
    return data


def _fractional_block():
    data = json.loads(json.dumps(GOOD_Z3_GRAPH))
    data["blocks"][0]["vertices"] = 1.5
    return data


@pytest.mark.parametrize("data", [
    _graph_with_entry(1.5), _graph_with_entry(True), _graph_with_entry("x"),
    [GOOD_Z3_GRAPH], _no_adjacency(), _fractional_block(),
], ids=["float-entry", "bool-entry", "string-entry", "list-root",
        "missing-key", "fractional-vertices"])
@pytest.mark.parametrize("verb", ["graph-check", "graph-tor"])
def test_parse_error_malformed_graph_file(tmp_path, capsys, data, verb):
    code, out = run_cli(verb, "--space", "Z3", "--file",
                        _write_json(tmp_path, data))
    assert code == EXIT_PARSE and out == ""
    assert "Traceback" not in capsys.readouterr().err


def _graph_with(mutate):
    data = json.loads(json.dumps(GOOD_Z3_GRAPH))
    mutate(data)
    return data


@pytest.mark.parametrize("data,needle", [
    (_graph_with(lambda d: d["blocks"][0].update(point="9")), "biject"),
    (_graph_with(lambda d: d["blocks"][0].update(vertices=0)), "at least one vertex"),
    (_graph_with_entry(-1), "nonnegative"),
], ids=["point-outside-space", "empty-block", "negative-entry"])
def test_parse_error_graph_that_does_not_fit_its_space(tmp_path, capsys, data,
                                                       needle):
    code, out = run_cli("graph-check", "--space", "Z3", "--file",
                        _write_json(tmp_path, data))
    assert code == EXIT_PARSE and out == ""
    assert needle in capsys.readouterr().err


def test_parse_error_unreadable_file(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (binary, tmp_path):
        code, _ = run_cli("graph-check", "--space", "Z3", "--file", str(path))
        assert code == EXIT_PARSE


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: next(iter(d["entries"].values()))["even"].update(gens=1.5),
     "gens"),
    (lambda d: d["actions"].clear() or d["actions"].update(nope={}),
     "action for an arrow not in the category: 'nope'"),
    (lambda d: d.pop("entries"), "entries"),
    (lambda d: d.update(variance="sideways"), "variance"),
    (lambda d: d["entries"].update({"9": {"even": {"gens": 0},
                                          "odd": {"gens": 0}}}),
     "not in the category: ['9']"),
], ids=["fractional-gens", "unknown-arrow", "missing-key", "unknown-variance",
        "unknown-object"])
def test_parse_error_malformed_module_file(tmp_path, capsys, mutate, needle):
    with open(os.path.join(DATA, "m_example.json")) as fh:
        data = json.load(fh)
    mutate(data)
    code, _ = run_cli("module-validate", "--space", "Z4", "--file",
                      _write_json(tmp_path, data))
    assert code == EXIT_PARSE
    assert needle in capsys.readouterr().err
    code, _ = run_cli("module-validate", "--space", "Z4", "--file",
                      _write_json(tmp_path, [data]))
    assert code == EXIT_PARSE


@pytest.mark.parametrize("key,value", [
    ("actions", []), ("actions", 5), ("actions", "x"), ("entries", []),
    ("entries", ["1"]), ("entries", 5), ("entries", "x"),
], ids=["actions-list", "actions-int", "actions-string", "entries-list",
        "entries-list-of-names", "entries-int", "entries-string"])
def test_non_object_entries_or_actions_are_a_parse_error(tmp_path, capsys, key, value):
    with open(os.path.join(DATA, "m_example.json")) as fh:
        data = json.load(fh)
    data[key] = value
    code, out = run_cli("module-validate", "--space", "Z4", "--file",
                        _write_json(tmp_path, data))
    assert code == EXIT_PARSE and out == ""
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["module-tor", "module-pd"])
def test_module_tor_refuses_a_right_module(tmp_path, capsys, verb):
    data = z1_right_module_with_i_acting_by_one().to_json()
    code, out = run_cli(verb, "--space", "Z1", "--file", _write_json(tmp_path, data))
    assert code == EXIT_COMPUTE and out == ""
    assert "needs a left module" in capsys.readouterr().err


def test_module_tor_refuses_a_module_missing_an_action(tmp_path, capsys):
    data = z1_right_module_with_i_acting_by_one().to_json()
    data["variance"] = "left"
    data["actions"] = {}
    code, out = run_cli("module-tor", "--space", "Z1", "--file", _write_json(tmp_path, data))
    assert code == EXIT_COMPUTE and out == ""
    assert "needs an action for every arrow" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fuzzing the file inputs against the exit-code contract
# ---------------------------------------------------------------------------

def _paths(node, prefix=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


# Integers are small or too large to index (2**64, 2**70): a count in
# between is accepted and allocates accordingly, which would only test how
# much memory the machine has.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.sampled_from([2 ** 64, 2 ** 70, -2 ** 70]) | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def malformed(draw, base):
    """`base` with one to three positions replaced by arbitrary JSON values
    or deleted; position () replaces the whole document."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JSON_VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


FUZZ = settings(derandomize=True, max_examples=60, deadline=None)
DOCUMENTED_EXITS = {EXIT_OK, EXIT_PARSE, EXIT_HYPOTHESIS, EXIT_COMPUTE}


def _run_file(tmp_dir, data, *argv):
    path = tmp_dir / "fuzz.json"
    path.write_text(json.dumps(data))
    return run_cli(*argv, "--file", str(path))[0]


@FUZZ
@given(data=malformed(GOOD_Z3_GRAPH),
       verb=st.sampled_from(["graph-check", "graph-k", "graph-tor"]))
def test_malformed_graph_files_end_in_documented_exit_codes(tmp_path_factory,
                                                           data, verb):
    code = _run_file(tmp_path_factory.mktemp("graph"), data, verb,
                     "--space", "Z3")
    assert code in DOCUMENTED_EXITS


with open(os.path.join(DATA, "m_example.json")) as _fh:
    M_EXAMPLE = json.load(_fh)


@FUZZ
@given(data=malformed(M_EXAMPLE))
def test_malformed_module_files_end_in_documented_exit_codes(tmp_path_factory,
                                                            data):
    code = _run_file(tmp_path_factory.mktemp("module"), data,
                     "module-validate", "--space", "Z4")
    assert code in DOCUMENTED_EXITS


def test_uncountable_generator_count_is_a_parse_error(tmp_path):
    data = json.loads(json.dumps(M_EXAMPLE))
    next(iter(data["entries"].values()))["odd"] = {"gens": 2 ** 70, "rels": []}
    code, _ = run_cli("module-validate", "--space", "Z4", "--file",
                      _write_json(tmp_path, data))
    assert code == EXIT_PARSE


@pytest.mark.parametrize("rels", [[], [[1, -1, 0], [-1, 0, 1], [0, 1, -1]]])
def test_a_generator_count_no_shape_matches_exits_before_allocating(tmp_path,
                                                                   monkeypatch,
                                                                   rels):
    # M(1) even has 3 generators; the actions out of it are 3 columns wide
    # and its relations have 3 rows, so a claim of 10**9 is refused before
    # anything of that size is allocated
    from fktor.zexact import IntMatrix
    real = IntMatrix.zero

    def zero(rows, cols):
        if max(rows, cols) > 10 ** 6:
            raise AssertionError(f"allocated a {rows}x{cols} zero matrix")
        return real(rows, cols)

    monkeypatch.setattr(IntMatrix, "zero", staticmethod(zero))
    data = json.loads(json.dumps(M_EXAMPLE))
    data["entries"]["1"]["even"] = {"gens": 10 ** 9, "rels": rels}
    code, _ = run_cli("module-validate", "--space", "Z4", "--file",
                      _write_json(tmp_path, data))
    assert code == EXIT_PARSE
