"""Work counts of the graph-corpus set-up: every simple-module resolution
of the six graph-corpus spaces, built to depth 4.

    python3 tools/setup_counts.py

Loads the shipped tables of Z1, Z2, Z3, S, C2 and Z4 first and runs each
category's nilpotency gate (`ntcat._nilpotency_index`, kept on the table,
which also computes its nil basis), both uncounted, then builds every S_Y
with `resolve_simple` to depth 4 (the depth the graph-corpus benchmark's
set-up asks for) and prints one `<name> <count>` line per counter:
`IntMatrix` constructions (the checked `__init__` plus the trusted `_of`),
the calls of `free_ranks`, `free_map`, `free_action`, `kernel`,
`hnf_columns` and `generator_images`, however they are reached, each
counted at the function that holds its body (`ntmod._free_ranks`,
`_free_map` and `_free_action` for the first three), and last `guards`,
the calls of `zexact.guard_int` and `guard_name`, those of
`HomTable.check_object` included.  The counts depend only on the code and
the shipped tables, so two runs of one checkout print the same lines, and
the lines of two checkouts compare the work their resolution engines do.
The package is imported from the checkout that holds this file.
"""

import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fktor import finspace, ntcat, ntmod, zexact  # noqa: E402

SPACES = ("Z1", "Z2", "Z3", "S", "C2", "Z4")
DEPTH = 4
# (module, function, printed name)
FUNCTIONS = ((ntmod, "_free_ranks", "free_ranks"), (ntmod, "_free_map", "free_map"),
             (ntmod, "_free_action", "free_action"), (zexact, "kernel", "kernel"),
             (zexact, "hnf_columns", "hnf_columns"),
             (ntcat, "generator_images", "generator_images"),
             (zexact, "guard_int", "guards"), (zexact, "guard_name", "guards"))


def install(counts: Counter) -> None:
    """Count every call of FUNCTIONS through whichever fktor module binds
    it, and every IntMatrix construction."""
    for home, name, shown in FUNCTIONS:
        orig = getattr(home, name)

        def counted(*args, _orig=orig, _shown=shown, **kwargs):
            counts[_shown] += 1
            return _orig(*args, **kwargs)

        for m in (ntmod, zexact, ntcat, finspace):
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, counted)
    M = zexact.IntMatrix
    orig_init, orig_of = M.__init__, M._of.__func__

    def init(self, *args, **kwargs):
        counts["IntMatrix"] += 1
        orig_init(self, *args, **kwargs)

    def of(cls, *args):
        counts["IntMatrix"] += 1
        return orig_of(cls, *args)

    M.__init__ = init
    M._of = classmethod(of)


def main():
    categories = [ntcat.builtin_category(name) for name in SPACES]
    for sc in categories:
        ntcat._nilpotency_index(sc.table)
    counts: Counter = Counter()
    install(counts)
    for sc in categories:
        for Y in sc.objects:
            ntmod.resolve_simple(sc, Y, DEPTH)
    for name in ["IntMatrix", *dict.fromkeys(shown for _, _, shown in FUNCTIONS)]:
        print(name, counts[name])


if __name__ == "__main__":
    main()
