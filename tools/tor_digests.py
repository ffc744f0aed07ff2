"""Digests of exactness reports, Tor groups and Tor_1 fast-path results,
one line per module or fast-path run of a fixed seeded corpus.

    python3 tools/tor_digests.py > digests.txt

The corpus: `fk_module` of four seeded random block graphs (the tests'
`random_block_graph`) over each of the seven builtin spaces, `m_example`,
the modules of `ck_z3` and `ck_s`, and the right modules: the free right
modules on the first and the last object of each builtin with shifts 0
and 1, and the tests' `z1_right_module_with_i_acting_by_one` (so the
right-module branch of the six-term maps is covered; `tor` refuses them,
and the line shows its error); then `tensor_mod_k(2)` and
`tensor_mod_k(3)` of each of these, which are not exact in general, so
that failure strings with their groups are printed too.  For each module
the line is `<space> <name> <exact digest> <tor digest>`: the sha256 of the
`check_exact` report (`ok` and the failure strings, in order) and of
`tor(M, 3).to_json()`, both as JSON with sorted keys, or the error that
call raised.  Then one line per run of the Tor_1 fast paths
(`z3_fast_tor1`, `s_fast_tor1`) on `ck_z3`, `ck_s` and seeded random block
graphs over Z3 and S: `<space> <name>/fast <digest>`, the sha256 of the
groups, witnesses and middle groups, and for S also of the even-lane
homology's cycle basis, quotient generators and relations, and the
`class_of` of each basis column.  Two checkouts whose outputs are equal
give the same verdicts, failure strings, Tor groups and fast-path results
on the corpus.  The wall time goes to stderr.  The package and the helpers
of the tests are imported from the checkout that holds this file.
"""

import hashlib
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import random_block_graph, z1_right_module_with_i_acting_by_one  # noqa: E402
from fktor.finspace import BUILTIN_NAMES  # noqa: E402
from fktor.graphk import (BlockGraph, GraphError, fk_module, s_fast_tor1,  # noqa: E402
                          z3_fast_tor1)
from fktor.ntcat import builtin_category  # noqa: E402
from fktor.ntmod import GradedModule, ModuleError, check_exact, free_module, tor  # noqa: E402
from fktor.zexact import ZExactError  # noqa: E402

DATA = os.path.join(ROOT, "src", "fktor", "data")
GRAPHS_PER_SPACE = 4
FAST_GRAPHS_PER_SPACE = 8
DEGREE = 3


def load(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def base_corpus():
    """(space, name, module) of the exact modules of the corpus."""
    rng = random.Random(2021)
    for space in BUILTIN_NAMES:
        for i in range(GRAPHS_PER_SPACE):
            yield space, f"graph{i}", fk_module(random_block_graph(space, rng))
    yield "Z4", "m_example", GradedModule.from_json(load("m_example.json"))
    for name in ("ck_z3", "ck_s"):
        G = BlockGraph.from_json(load(f"{name}.json"))
        yield G.space.name, name, fk_module(G)
    for space in BUILTIN_NAMES:
        sc = builtin_category(space)
        for Y in (sc.objects[0], sc.objects[-1]):
            for shift in (0, 1):
                yield space, f"free {Y} right {shift}", free_module(sc, Y, "right", shift)
    yield "Z1", "z1_right", z1_right_module_with_i_acting_by_one()


def fast_corpus():
    """(space, name, graph) of the fast-path runs."""
    rng = random.Random(2022)
    for space, fixture in (("Z3", "ck_z3"), ("S", "ck_s")):
        yield space, fixture, BlockGraph.from_json(load(f"{fixture}.json"))
        for i in range(FAST_GRAPHS_PER_SPACE):
            yield space, f"graph{i}", random_block_graph(space, rng)


def digest(run) -> str:
    try:
        text = json.dumps(run(), sort_keys=True)
    except (GraphError, ModuleError, ZExactError) as e:  # the message is the result
        return f"{type(e).__name__}: {e}"
    return hashlib.sha256(text.encode()).hexdigest()


def exact_json(M) -> dict:
    rep = check_exact(M)
    return {"ok": rep.ok, "failures": rep.failures}


def fast_json(space, G) -> dict:
    res = (z3_fast_tor1 if space == "Z3" else s_fast_tor1)(G)
    out = {"groups": [str(res.group_even), str(res.group_odd)],
           "witnesses": res.witnesses,
           "middle": [str(g) for g in res.middle_groups]}
    h = res.homology
    if h is not None:
        out["homology"] = {
            "basis": h.lattice_basis.to_lists(),
            "generators": h.quotient.generators,
            "relations": h.quotient.relations.to_lists(),
            "classes": [h.class_of(c) for c in h.lattice_basis.columns()]}
    return out


def main():
    start = time.perf_counter()
    count = 0
    for space, name, M in base_corpus():
        for suffix, module in [("", M), ("/Z2", M.tensor_mod_k(2)),
                               ("/Z3", M.tensor_mod_k(3))]:
            print(space, name + suffix, digest(lambda: exact_json(module)),
                  digest(lambda: tor(module, DEGREE).to_json()), flush=True)
            count += 1
    runs = 0
    for space, name, G in fast_corpus():
        print(space, name + "/fast", digest(lambda: fast_json(space, G)), flush=True)
        runs += 1
    print(f"{count} modules, {runs} fast-path runs: {time.perf_counter() - start:.2f} s",
          file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
