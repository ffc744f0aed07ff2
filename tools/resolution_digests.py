"""Digests of freshly built free resolutions, one line per simple module,
and of the free-module layout, one line per module of a fixed corpus.

    python3 tools/resolution_digests.py > digests.txt

For every object Y of the seven builtin spaces (shipped tables) and of the
ten connected four-point T0 spaces (tables built in process), builds the
syzygy resolution of S_Y to depth 5 with `resolve_simple` and prints
`<space> <Y> <digest>`: the sha256 of its levels and differentials,
serialised as `test_engine_resolutions_are_pinned` does, or the error the
build raised.  Then `<space> nil <digest>`: the sha256 of the Hermite
basis (`hnf_columns`) of every `nil_basis` lattice, in sorted key order,
and of the `ideal_checks` record (the tests' `nil_digest`).  After each
builtin's lines come two more, `<space> post_matrix <digest>` and `<space> pre_matrix <digest>`: the
sha256 of the matrices of `HomTable.post_matrix` (or `pre_matrix`) of every
basis element of every Hom group at every object and parity, in sorted
order.  Then, for every module of `layout_corpus` in the tests'
conftest (each free module over the builtins, both sides and shifts 0 and
1, and the seeded random valid modules), prints `<space> <name> <digest>`:
the sha256 of its `to_json()` with sorted keys, as
`test_module_layout_is_pinned` hashes it.  Two checkouts whose outputs are
equal build the same resolutions, with the same generators in the same
order, read the same nil ideal off every table, compose in the shipped
tables alike, and lay out the same modules.
Each space's wall time goes to stderr.  The package and the helpers of the tests are imported from the
checkout that holds this file.
"""

import hashlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import connected_t0_spaces, layout_corpus, nil_digest  # noqa: E402
from fktor.finspace import BUILTIN_NAMES  # noqa: E402
from fktor.ntcat import build_category, builtin_category  # noqa: E402
from fktor.ntmod import ModuleError, resolve_simple  # noqa: E402
from fktor.zexact import ZExactError  # noqa: E402

DEPTH = 5


def digest(sc, Y) -> str:
    try:
        res = resolve_simple(sc, Y, DEPTH)
    except (ModuleError, ZExactError) as e:  # the message is the result
        return f"{type(e).__name__}: {e}"
    run = {"levels": res.levels,
           "diffs": [[[None if e is None else [e.src, e.dst, e.parity, e.vec]
                       for e in row] for row in d] for d in res.diffs]}
    text = json.dumps(run, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def action_digest(t, side) -> str:
    act = t.post_matrix if side == "post" else t.pre_matrix
    mats = [[M.rows, M.cols, M.to_lists()]
            for key in sorted(t.rank) for el in t.basis_elements(*key)
            for W in t.objects for parity in (0, 1)
            for M in [act(el, W, parity)]]
    return hashlib.sha256(json.dumps(mats).encode()).hexdigest()


def module_text(M) -> str:
    return json.dumps(M.to_json(), sort_keys=True)


def categories():
    for name in BUILTIN_NAMES:
        yield name, lambda name=name: builtin_category(name)
    for X in connected_t0_spaces(4):
        yield X.name, lambda X=X: build_category(X)


def main():
    for name, make in categories():
        start = time.perf_counter()
        sc = make()
        for Y in sc.objects:
            print(name, Y, digest(sc, Y), flush=True)
        print(name, "nil", nil_digest(sc.table), flush=True)
        if name in BUILTIN_NAMES:
            for side in ("post", "pre"):
                print(name, f"{side}_matrix", action_digest(sc.table, side), flush=True)
        print(f"{name}: {time.perf_counter() - start:.2f} s",
              file=sys.stderr, flush=True)
    start = time.perf_counter()
    for space, name, M in layout_corpus():
        print(space, name, hashlib.sha256(module_text(M).encode()).hexdigest())
    print(f"module layout: {time.perf_counter() - start:.2f} s",
          file=sys.stderr, flush=True)


if __name__ == "__main__":
    main()
