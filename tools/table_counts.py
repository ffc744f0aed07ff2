"""Work counts of one table-build round: fresh NT*(X) tables of Z2, Z3, S
and C2, each `builtin_presentation` then `hom_closure` at its default bound.

    python3 tools/table_counts.py

Prints one `<name> <count>` line per counter, summed over the four builds:
`words`, the words the bounded closure enumerates (the sizes of its
buckets); `relation_instances`, the instances w·r of the relations that fit
the bound, read off the enumerated words (each word w times each relation r
out of w's target whose longest word has length at most the bound minus
len(w)); `instances_placed`, those of them that hom_closure places, the
instances of the relations it does not skip as redundant;
`redundant_relations`, the relations `_redundant_relations` marks, whose
instances it skips; `insert` and `insert_growing`, the calls of
`Echelon._insert` and those that changed their lattice, the small echelons
of the redundancy rule included; `smith`, the Smith forms taken, directly
or by `solve_columns`; and `smith_dense_cells`, rows × cols summed over the
inputs of `smith` that are dense `IntMatrix`es (a sparse input adds
nothing).  The counts depend only on the code, so two runs of one checkout
print the same lines, and the lines of two checkouts compare the work
their closures do.  The package is imported from the checkout that holds
this file.
"""

import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from fktor import ntcat, zexact  # noqa: E402

SPACES = ("Z2", "Z3", "S", "C2")


def install(counts: Counter) -> list:
    """Count Echelon._insert calls and their outcomes, smith calls and the
    cells of their dense inputs; returns the list that collects every
    bucket made."""
    buckets: list = []
    B = ntcat._Bucket
    orig_init = B.__init__

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        buckets.append(self)

    B.__init__ = init
    orig_insert = zexact.Echelon._insert

    def insert(self, cur):
        counts["insert"] += 1
        grew = orig_insert(self, cur)
        counts["insert_growing"] += bool(grew)
        return grew

    zexact.Echelon._insert = insert
    orig_smith = zexact.smith

    def smith(A):
        counts["smith"] += 1
        if isinstance(A, zexact.IntMatrix):
            counts["smith_dense_cells"] += A.rows * A.cols
        return orig_smith(A)

    # hom_closure calls smith directly and through solve_columns
    ntcat.smith = zexact.smith = smith
    return buckets


def relation_instances(pres, buckets, max_len, skip=frozenset()) -> int:
    """The instances w·r within the bound max_len: for each enumerated
    word w, the relations out of w's target whose longest word fits,
    those whose index is in `skip` left out."""
    longest = Counter()
    for k, r in enumerate(pres.relations):
        if k in skip:
            continue
        src = pres.word_signature(next(iter(r)))[0]
        longest[src, max(len(w) for w in r)] += 1
    return sum(k for b in buckets for w in b.words
               for (src, m), k in longest.items() if src == b.dst and len(w) + m <= max_len)


def main():
    presentations = [ntcat.builtin_presentation(name) for name in SPACES]
    counts: Counter = Counter()
    buckets = install(counts)
    for name, pres in zip(SPACES, presentations):
        # the rule hom_closure reads first, memoised on pres; its inserts
        # count, and the buckets of its own short words are dropped
        redundant = ntcat._redundant_relations(pres)
        buckets.clear()
        ntcat.hom_closure(pres)
        max_len = ntcat.DEFAULT_MAX_LEN[name]
        counts["words"] += sum(len(b.words) for b in buckets)
        counts["relation_instances"] += relation_instances(pres, buckets, max_len)
        counts["instances_placed"] += relation_instances(pres, buckets, max_len, redundant)
        counts["redundant_relations"] += len(redundant)
    for name in ("words", "relation_instances", "instances_placed", "redundant_relations",
                 "insert", "insert_growing", "smith", "smith_dense_cells"):
        print(name, counts[name])


if __name__ == "__main__":
    main()
