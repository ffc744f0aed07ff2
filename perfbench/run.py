"""fktor benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload graph-corpus --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; fktor is imported from ./src and
every child process gets PYTHONHASHSEED=0.  Workloads (see README.md):

  graph-corpus  block graph -> graph_checks, fk_module, check_exact, tor(M, 3)
  table-build   fresh NT*(X) tables for Z2, Z3, S and C2
  cli-cold      one fresh ``python -m fktor.cli ... --format json`` per command

--trace 0 runs the workload untraced for --seconds and prints the end-to-end
metrics.  --trace 1 runs one fixed round three times instead (traced, traced
again, untraced), checks that the two traced processes counted exactly the
same work, and prints the per-layer metrics.  Human-readable lines go first;
the last line of standard output is the result object.

    python3 perfbench/run.py --write-reference

records the Tor digests of the default seed's corpus (reference/).
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("graph-corpus", "table-build", "cli-cold")
DEFAULT_SEED = 1
SETUP_MIN, SETUP_MAX = 3, 5  # set-ups per untraced run (more while they
                             # take under 2 s in all); setup_s is their median
BUDGET_S = 170             # every child is killed after this, counted from start

T_START = time.monotonic()

# The end-to-end metrics.  What an operation and a round are depends on the
# workload:
#   graph-corpus  op = one graph;   round = 18 graphs (each space, 3 sizes)
#   table-build   op = one table;   round = the four tables
#   cli-cold      op = one command; round = the eight commands
# Times are medians over operations or rounds, which a short slow spell of
# the machine moves less than a mean.
END_TO_END = (("setup_s", "s"), ("op_p50_ms", "ms"), ("round_s", "s"),
              ("peak_rss_mb", "MB"))

# The workload's own names for the metrics, printed in the readable lines.
ALIASES = {
    "graph-corpus": {"graph_p50_ms": "op_p50_ms", "corpus_round_s": "round_s"},
    "table-build": {"table_build_s": "round_s", "table_p50_ms": "op_p50_ms"},
    "cli-cold": {"cli_total_s": "round_s", "cli_p50_ms": "op_p50_ms"},
}
OP_NAME = {"graph-corpus": "graphs", "table-build": "tables",
           "cli-cold": "commands"}

# Per-layer metrics of the traced run.  Self time is given as a share of
# the traced wall time ("%"), so that a layer a workload never enters reads
# 0 % rather than an absolute time; the absolute seconds are printed above
# the result line and kept in the spans file.
SELF_PCT = (
    "zexact.smith", "zexact.solve", "zexact.kernel",
    "zexact.subquotient_homology", "zexact.hnf_columns",
    "finspace.lc_subsets",
    "ntcat.hom_closure", "ntcat.builtin_presentation", "ntcat.table_from_json",
    "ntcat.builtin_category", "ntcat.ideal_checks",
    "ntmod.resolution_for", "ntmod.resolve_simple", "ntmod.extend_resolution",
    "ntmod.builtin_resolution", "ntmod.validate_resolution",
    "ntmod.tensor_complex_maps", "ntmod.tor_single", "ntmod.check_exact",
    "graphk.fk_module", "graphk.graph_checks", "graphk.fast_tor1",
)
CALLS = ("zexact.smith", "zexact.solve", "zexact.kernel",
         "zexact.subquotient_homology", "zexact.hnf_columns",
         "finspace.lc_subsets", "ntmod.resolution_for",
         "ntmod.tensor_complex_maps", "graphk.k_groups")
COUNTS = (("zexact.smith.max_dim", "count"),
          ("zexact.smith.max_entry_bits", "bits"),
          ("zexact.smith.repeat_ratio", "ratio"),
          ("zexact.IntMatrix.init_calls", "count"),
          ("ntmod.resolution.max_level_summands", "count"))
LAYER_NAMES = ("zexact", "finspace", "ntcat", "ntmod", "graphk", "cli")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def worker(workload, seed, mode, seconds=None, tag=""):
    """Run one worker process to completion; its result object, or exit."""
    cfg = json.dumps({"workload": workload, "seed": seed, "mode": mode,
                      "seconds": seconds, "tag": tag})
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    left = BUDGET_S - (time.monotonic() - T_START)
    if left <= 0:
        fail("time budget spent before the run ended", 1)
    p = subprocess.Popen([sys.executable, WORKER, cfg], cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{workload} {mode} worker ran past the time budget", 1)
    finally:
        try:  # stop anything the worker left behind in its process group
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if p.returncode != 0:
        fail(f"{workload} {mode} worker exited with code {p.returncode}", 1)
    return json.loads(out.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workload, seed, seconds):
    setups = []
    while len(setups) < SETUP_MIN - 1 or (
            len(setups) < SETUP_MAX - 1 and sum(x["setup_s"] for x in setups) < 2):
        setups.append(worker(workload, seed, "setup"))
    r = worker(workload, seed, "measure", seconds)
    setups.append(r)
    lat, norm = r["latencies"], r["norm_latencies"]
    m = {
        "setup_s": metric(statistics.median(x["norm_setup_s"] for x in setups), "s"),
        "op_p50_ms": metric(1000 * statistics.median(norm), "ms"),
        "round_s": metric(statistics.median(r["norm_round_times"]), "s"),
        "peak_rss_mb": metric(r["peak_rss_mb"], "MB"),
    }
    raw = {"setup_s": statistics.median(x["setup_s"] for x in setups),
           "op_p50_ms": 1000 * statistics.median(lat),
           "round_s": statistics.median(r["round_times"])}
    print(f"{workload} seed={seed}: {len(lat)} ops in {len(r['round_times'])} "
          f"rounds, {r['wall_s']:.2f} s measured, {len(setups)} set-ups; "
          f"speed kernel {1000 * r['kernel_s']:.4f} ms "
          f"(reference {1000 * r['kernel_ref_s']:.4f} ms)")
    print(f"  {OP_NAME[workload]}_per_s = {len(lat) / sum(lat):.6g} 1/s raw, "
          f"{len(norm) / sum(norm):.6g} 1/s normalised")
    for alias, name in ALIASES[workload].items():
        print(f"  {alias} = {m[name]['value']:.6g} {m[name]['unit']}")
    # the tail is reported only where at least ten samples lie beyond it
    if len(norm) >= 100:
        p90 = statistics.quantiles(norm, n=10)[-1]
        print(f"  {workload.split('-')[0]}_p90_ms = {1000 * p90:.6g} ms "
              f"(n={len(norm)})")
    else:
        print(f"  p90 not reported: {len(norm)} samples, fewer than 100")
    for name, unit in END_TO_END:
        extra = f"  (raw wall {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"  {name} = {m[name]['value']:.6g} {unit}{extra}")
    print(f"  fail_ratio = {r['failed']}/{r['attempted']} = "
          f"{r['failed'] / r['attempted']:.6g}")
    for p in r["problems"]:
        print(f"  problem: {p}")
    return r["attempted"], r["failed"], m


def count_view(t):
    """Everything in a trace summary that must repeat exactly."""
    return {"calls": {k: v["calls"] for k, v in t["per_function"].items()},
            "counts": t["counts"]}


def traced(workload, seed):
    a = worker(workload, seed, "traced", tag="a")
    b = worker(workload, seed, "traced", tag="b")
    c = worker(workload, seed, "plain")
    ta, tb = a["trace"], b["trace"]
    same = count_view(ta) == count_view(tb)
    per = ta["per_function"]
    total = ta["traced_s"]
    fast = {k: per["graphk.z3_fast_tor1"][k] + per["graphk.s_fast_tor1"][k]
            for k in per["graphk.z3_fast_tor1"]}
    per = dict(per, **{"graphk.fast_tor1": fast})
    m = {}
    for name in SELF_PCT:
        m[f"{name}.self_pct"] = metric(100 * per[name]["self_s"] / total, "%")
    for layer in LAYER_NAMES:
        own = sum(v["self_s"] for k, v in ta["per_function"].items()
                  if k.startswith(layer + "."))
        m[f"{layer}.self_pct"] = metric(100 * own / total, "%")
    for name in CALLS:
        m[f"{name}.calls"] = metric(per[name]["calls"], "count")
    for name, unit in COUNTS:
        m[name] = metric(ta["counts"][name], unit)
    m["cli.import_s"] = metric(ta["import_s"], "s")
    m["trace.wall_s"] = metric(total, "s")
    m["trace.spans"] = metric(ta["spans"], "count")
    traced_round, plain_round = sum(a["norm_latencies"]), sum(c["norm_latencies"])
    m["trace.overhead_x"] = metric(traced_round / plain_round, "x")

    scope = "in the CLI children" if workload == "cli-cold" else "with set-up"
    print(f"{workload} seed={seed}: one round of {a['attempted']} ops, "
          f"{total:.3f} s traced {scope}; speed-normalised round "
          f"{plain_round:.3f} s untraced, {traced_round:.3f} s traced")
    print(f"  counts of two traced processes identical: {same}")
    print(f"  {'function':34s} {'calls':>8s} {'self_s':>10s} {'incl_s':>10s} "
          f"{'self %':>7s}")
    for k, v in sorted(ta["per_function"].items(), key=lambda kv: -kv[1]["self_s"]):
        if v["calls"]:
            print(f"  {k:34s} {v['calls']:8d} {v['self_s']:10.4f} "
                  f"{v['incl_s']:10.4f} {100 * v['self_s'] / total:7.2f}")
    if workload == "cli-cold":
        print(f"  cli.run_s = {per['cli.run']['incl_s']:.4f} s over "
              f"{per['cli.run']['calls']} commands")
    for k, v in m.items():
        if not k.endswith("self_pct"):
            print(f"  {k} = {v['value']:.6g} {v['unit']}")
    for r in (a, b, c):
        for p in r["problems"]:
            print(f"  problem: {p}")
    attempted = a["attempted"] + b["attempted"] + c["attempted"]
    failed = a["failed"] + b["failed"] + c["failed"]
    if not same:
        print("  problem: the two traced processes counted different work")
    return attempted, failed, m, same


def write_reference():
    r = worker("graph-corpus", DEFAULT_SEED, "reference")
    print(f"wrote {r['graphs']} digests to {r['path']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fktor", "__init__.py")):
        fail(f"no fktor sources under {os.path.join(ROOT, 'src')}")
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        fail("--workload is required")
    if args.trace:
        attempted, failed, m, same = traced(args.workload, args.seed)
    else:
        attempted, failed, m = untraced(args.workload, args.seed, args.seconds)
        same = True
    print(json.dumps({"correct": failed == 0 and same, "attempted": attempted,
                      "failed": failed, "metrics": m}))


if __name__ == "__main__":
    main()
