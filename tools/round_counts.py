"""Work counts of the per-graph pipeline: `graph_checks`, `fk_module`,
`check_exact` and `tor(M, 3)` on a small seeded graph corpus.

    python3 tools/round_counts.py

The corpus: for each of Z1, Z2, Z3, S, C2 and Z4, three of the tests'
`random_block_graph` and one `singular_block_graph` (whose K1 groups are
nonzero), drawn in that order from `random.Random("round-counts/<space>")`.
The depth-4 resolutions of every simple module of the six spaces, which
`tor(M, 3)` reads, are built first and not counted.  Then each graph runs
through the four calls, as one graph of the graph-corpus benchmark does,
and the script prints one `<name> <count>` line per counter: the calls of
`GradedHom.compose`, of `map_echelon` and `exact_node` (as `ntmod` calls
them, the echelons and decisions of the node table) and of
`BlockGraph.bprime_block`.  The counts depend only on the code and the
shipped tables, so two runs of one checkout print the same lines, and the
lines of two checkouts compare the work their pipelines do.  The package
and the helpers of the tests are imported from the checkout that holds
this file.
"""

import os
import random
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from conftest import random_block_graph, singular_block_graph  # noqa: E402
from fktor import graphk, ntcat, ntmod, zexact  # noqa: E402

SPACES = ("Z1", "Z2", "Z3", "S", "C2", "Z4")
RANDOM_GRAPHS = 3
DEGREE = 3
# (owner, name): each counter is the name it counts
COUNTED = ((zexact.GradedHom, "compose"), (ntmod, "map_echelon"), (ntmod, "exact_node"),
           (graphk.BlockGraph, "bprime_block"))


def install(counts: Counter) -> None:
    """Count every call of COUNTED through the name its owner binds."""
    for owner, name in COUNTED:
        orig = getattr(owner, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        setattr(owner, name, counted)


def corpus():
    """(category, graphs) of each space, the graphs in drawing order."""
    out = []
    for space in SPACES:
        rng = random.Random(f"round-counts/{space}")
        graphs = [random_block_graph(space, rng) for _ in range(RANDOM_GRAPHS)]
        out.append((ntcat.builtin_category(space), graphs + [singular_block_graph(space, rng)]))
    return out


def main():
    spaces = corpus()
    for sc, _ in spaces:
        for Y in sc.objects:
            ntmod.resolution_for(sc, Y, DEGREE + 1)
    counts: Counter = Counter()
    install(counts)
    for _, graphs in spaces:
        for G in graphs:
            graphk.graph_checks(G)
            M = graphk.fk_module(G)
            ntmod.check_exact(M)
            ntmod.tor(M, DEGREE)
    for _, name in COUNTED:
        print(name, counts[name])


if __name__ == "__main__":
    main()
