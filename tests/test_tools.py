"""The work-count scripts in tools/ run and print every counter they document.

tools/table_counts.py, tools/setup_counts.py and tools/round_counts.py
count the work of a table build, of the graph-corpus set-up and of the
per-graph pipeline by patching names inside fktor, so a rename there
breaks them.  Each runs here in a subprocess, as it is run by
hand, and must exit 0 and print one `<name> <integer>` line per counter, in
the documented order."""

import os
import re
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")

COUNTERS = {
    "table_counts.py": ("words", "relation_instances", "instances_placed",
                        "redundant_relations", "insert", "insert_growing",
                        "bucket_index_reads", "smith", "smith_dense_cells"),
    "setup_counts.py": ("IntMatrix", "free_ranks", "free_map", "free_action", "kernel",
                        "hnf_columns", "generator_images", "guards"),
    "round_counts.py": ("compose", "map_echelon", "exact_node", "bprime_block"),
}


@pytest.mark.parametrize("script", sorted(COUNTERS))
def test_a_work_count_script_prints_every_counter(script):
    run = subprocess.run([sys.executable, os.path.join(TOOLS, script)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert all(re.fullmatch(r"\w+ \d+", line) for line in lines), lines
    assert tuple(line.split()[0] for line in lines) == COUNTERS[script]
