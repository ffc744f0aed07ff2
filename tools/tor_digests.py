"""Digests of exactness reports and Tor groups, one line per module of a
fixed seeded corpus.

    python3 tools/tor_digests.py > digests.txt

The corpus: `fk_module` of four seeded random block graphs (the tests'
`random_block_graph`) over each of the seven builtin spaces, `m_example`,
and the modules of `ck_z3` and `ck_s`; then `tensor_mod_k(2)` and
`tensor_mod_k(3)` of each of these, which are not exact in general, so
that failure strings with their groups are printed too.  For each module
the line is `<space> <name> <exact digest> <tor digest>`: the sha256 of the
`check_exact` report (`ok` and the failure strings, in order) and of
`tor(M, 3).to_json()`, both as JSON with sorted keys, or the error that
call raised.  Two checkouts whose outputs are equal give the same
verdicts, failure strings and Tor groups on the corpus.  The wall time
goes to stderr.  The package and the helpers of the tests are imported
from the checkout that holds this file.
"""

import hashlib
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import random_block_graph  # noqa: E402
from fktor.finspace import BUILTIN_NAMES  # noqa: E402
from fktor.graphk import BlockGraph, fk_module  # noqa: E402
from fktor.ntmod import GradedModule, ModuleError, check_exact, tor  # noqa: E402
from fktor.zexact import ZExactError  # noqa: E402

DATA = os.path.join(ROOT, "src", "fktor", "data")
GRAPHS_PER_SPACE = 4
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


def digest(run) -> str:
    try:
        text = json.dumps(run(), sort_keys=True)
    except (ModuleError, ZExactError) as e:  # the message is the result
        return f"{type(e).__name__}: {e}"
    return hashlib.sha256(text.encode()).hexdigest()


def exact_json(M) -> dict:
    rep = check_exact(M)
    return {"ok": rep.ok, "failures": rep.failures}


def main():
    start = time.perf_counter()
    count = 0
    for space, name, M in base_corpus():
        for suffix, module in [("", M), ("/Z2", M.tensor_mod_k(2)),
                               ("/Z3", M.tensor_mod_k(3))]:
            print(space, name + suffix, digest(lambda: exact_json(module)),
                  digest(lambda: tor(module, DEGREE).to_json()), flush=True)
            count += 1
    print(f"{count} modules: {time.perf_counter() - start:.2f} s",
          file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
