"""Seeded input generators of the benchmark.

Everything here is plain data made from a seed with ``random.Random``; no
fktor code runs while an input is drawn.  The generators are kept apart from
the test suite's helpers on purpose: the test corpus may change its seeding,
while the benchmark's inputs must stay the same for a given seed.
"""

import random

# Minimal open set of each point of the builtin spaces (the smallest open set
# containing the point).  A block graph is triangular when every edge v -> w
# ends in the minimal open set of the point of v.
MIN_OPEN = {
    "Z1": {"1": "12", "2": "2"},
    "Z2": {"1": "13", "2": "23", "3": "3"},
    "Z3": {"1": "14", "2": "24", "3": "34", "4": "4"},
    "Z4": {"1": "15", "2": "25", "3": "35", "4": "45", "5": "5"},
    "S": {"1": "1234", "2": "24", "3": "34", "4": "4"},
    "C2": {"1": "134", "2": "234", "3": "3", "4": "4"},
}

# The spaces of the graph corpus, cheapest first.
CORPUS_SPACES = ("Z1", "Z2", "Z3", "S", "C2", "Z4")

# Vertices per block are 1..3: each round of the corpus draws every space
# once with each of these offsets, so every round has the same size mix and
# only the seed-drawn entries and block layout differ between rounds.
VERTEX_OFFSETS = (0, 1, 2)


def block_graph(space, rng, vertex_counts, max_entry):
    """A random triangular block graph over ``space`` as a JSON-ready dict.

    ``vertex_counts`` gives the vertices of each block, in the space's point
    order.  Every vertex gets at least two loops, so the graph has no sinks
    or sources and condition (K) holds; other allowed edges get 0 to
    ``max_entry`` copies.
    """
    min_open = MIN_OPEN[space]
    points = sorted(min_open)
    owner = []
    for p, k in zip(points, vertex_counts):
        owner.extend([p] * k)
    n = len(owner)
    adjacency = [[0] * n for _ in range(n)]
    for v in range(n):
        for w in range(n):
            if owner[w] in min_open[owner[v]]:
                adjacency[v][w] = rng.randint(0, max_entry)
        adjacency[v][v] = rng.randint(2, max(2, max_entry))
    blocks = [{"point": p, "vertices": k} for p, k in zip(points, vertex_counts)]
    return {"space": space, "blocks": blocks, "adjacency": adjacency}


def graph_key(graph):
    return (graph["space"],
            tuple((b["point"], b["vertices"]) for b in graph["blocks"]),
            tuple(tuple(row) for row in graph["adjacency"]))


def corpus_rounds(seed):
    """Endless rounds of the graph corpus; no graph repeats within a stream.

    Round r holds, for each space and each offset o, one graph whose block
    sizes are a seed-shuffled cycle of ``1 + (i + o) % 3`` and whose largest
    entry is ``2 + (o + r) % 3``.
    """
    rng = random.Random(f"graph-corpus/{seed}")
    seen = set()
    r = 0
    while True:
        batch = []
        for space in CORPUS_SPACES:
            npts = len(MIN_OPEN[space])
            for o in VERTEX_OFFSETS:
                counts = [1 + (i + o) % 3 for i in range(npts)]
                while True:
                    rng.shuffle(counts)
                    g = block_graph(space, rng, counts, 2 + (o + r) % 3)
                    if graph_key(g) not in seen:
                        break
                seen.add(graph_key(g))
                batch.append(g)
        yield batch
        r += 1


def cli_graph(seed):
    """The seeded graph of the cli-cold workload: Z3, two vertices a block."""
    rng = random.Random(f"cli-cold/graph/{seed}")
    return block_graph("Z3", rng, [2, 2, 2, 2], 3)


def cli_module_spec(seed):
    """A seeded cokernel presentation over Z3, as plain data.

    Two free targets and two free sources, chosen by index into the
    category's objects; each block of the map is zero or a combination of
    the Hom basis with coefficients in -2..2.  ``module_from_spec`` in the
    worker turns the spec into a module with fktor's ``coker_module``.
    """
    rng = random.Random(f"cli-cold/module/{seed}")

    def summand():
        return [rng.randrange(1 << 16), rng.randint(0, 1)]

    targets = [summand(), summand()]
    sources = [summand(), summand()]
    blocks = [[None if rng.random() < 0.3 else
               [rng.randint(-2, 2) for _ in range(16)]
               for _ in sources] for _ in targets]
    return {"space": "Z3", "targets": targets, "sources": sources,
            "blocks": blocks}


def table_rounds(seed, names):
    """Endless rounds of the table workload, each a seed-shuffled order."""
    rng = random.Random(f"table-build/{seed}")
    while True:
        order = list(names)
        rng.shuffle(order)
        yield order
