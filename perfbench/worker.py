"""One workload in one process; started by run.py, never by hand.

    python perfbench/worker.py '{"workload": ..., "seed": ..., "mode": ...}'

Modes:
  setup    set the workload up once and report the time it took;
  measure  set up, then run whole rounds of operations until ``seconds``
           have passed, then check every output;
  plain    set up, then run one round: the traced run's untraced reference;
  traced   like plain, with the layer tracer installed for set-up and the
           round;
  reference  write the Tor digests of the default seed's corpus.

The result is one JSON object on the last line of standard output.  Every
fktor function is looked up on its module at call time, so that the tracer's
rebinding is seen; the untraced modes never install the tracer and check at
the end that nothing is left wrapped.
"""

import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import inputs
import speed
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 1
REFERENCE = os.path.join(HERE, "reference", f"graph-corpus-seed{DEFAULT_SEED}.json")
REFERENCE_GRAPHS = 360
# A measured run has at least three rounds, so that round_s is a median
# even when the machine is slow (a table-build round takes 10 to 17 s).
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120

now = speed.now


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def import_fktor():
    """Import the whole package (fktor.cli pulls in every layer)."""
    t0 = now()
    import fktor.cli  # noqa: F401
    import_s = now() - t0
    import fktor
    if not os.path.abspath(fktor.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"fktor imported from {fktor.__file__}, not {SRC}")
    return import_s


def mod(layer):
    return importlib.import_module(f"fktor.{layer}")


def tor_json(rep, degree):
    """The Tor part of a CLI report, rebuilt from a library TorReport."""
    tor = {}
    for obj, degs in sorted(rep.groups.items()):
        entry = {str(k): {"even": str(ev), "odd": str(od)}
                 for k, (ev, od) in sorted(degs.items())
                 if not (ev.is_trivial() and od.is_trivial())}
        if entry:
            tor[obj] = entry
    agg = {}
    for k in range(degree + 1):
        ev, od = rep.aggregate(k)
        agg[str(k)] = {"even": str(ev), "odd": str(od)}
    return {"tor": tor, "aggregate": agg}


# ---------------------------------------------------------------------------
# graph-corpus
# ---------------------------------------------------------------------------

class GraphCorpus:
    """Batch library user: block graph -> fk_module -> Tor over NT*(X)."""

    TOR_DEGREE = 3

    def __init__(self, seed):
        self.seed = seed
        self.reference = None

    def setup(self):
        for name in inputs.CORPUS_SPACES:
            sc = mod("ntcat").builtin_category(name)
            for Y in sc.objects:
                mod("ntmod").resolution_for(sc, Y, self.TOR_DEGREE + 1)
        if self.seed == DEFAULT_SEED and os.path.exists(REFERENCE):
            with open(REFERENCE) as fh:
                self.reference = json.load(fh)["tor_sha256"]

    def rounds(self):
        return inputs.corpus_rounds(self.seed)

    def prepare(self, graph):
        return mod("graphk").BlockGraph.from_json(graph)

    def run(self, G):
        graphk, ntmod = mod("graphk"), mod("ntmod")
        report = graphk.graph_checks(G)
        M = graphk.fk_module(G)
        exact = ntmod.check_exact(M)
        return report, M, exact, ntmod.tor(M, self.TOR_DEGREE)

    def check(self, index, graph, G, out):
        report, M, exact, tor = out
        problems = []
        # Tor_0(S_Y, M) is M(Y) modulo the nil ideal's images, which m_ss
        # computes without any resolution
        ss = mod("ntmod").m_ss(M)
        if any(degs[0] != ss[Y].normal_form() for Y, degs in tor.groups.items()):
            problems.append("Tor_0 differs from M_ss")
        if not (report.triangular and report.no_sinks and report.no_sources):
            problems.append(f"graph_checks rejected a generated graph: {report.problems}")
        if not exact.ok:
            problems.append(f"fk_module is not exact: {exact.failures[:2]}")
        fast = {"Z3": "z3_fast_tor1", "S": "s_fast_tor1"}.get(graph["space"])
        if fast:
            f = getattr(mod("graphk"), fast)(G)
            if tor.aggregate(1) != (f.group_even, f.group_odd):
                problems.append(f"{fast} disagrees with tor(M, 3) in degree 1")
        if self.reference is not None and index < len(self.reference):
            if tor_digest(tor) != self.reference[index]:
                problems.append(f"Tor JSON of graph {index} differs from the reference")
        return problems


def tor_digest(tor):
    return hashlib.sha256(json.dumps(tor.to_json(), sort_keys=True)
                          .encode()).hexdigest()


# ---------------------------------------------------------------------------
# table-build
# ---------------------------------------------------------------------------

class TableBuild:
    """Fresh NT*(X) table builds: builtin_presentation, then hom_closure."""

    # Z4 is left out: one fresh Z4 build alone takes over 20 s.
    SPACES = ("Z2", "Z3", "S", "C2")

    def __init__(self, seed):
        self.seed = seed
        self.shipped = {}

    def setup(self):
        for name in self.SPACES:
            self.shipped[name] = mod("ntcat").builtin_category(name).table

    def rounds(self):
        return inputs.table_rounds(self.seed, self.SPACES)

    def prepare(self, name):
        return name

    def run(self, name):
        ntcat = mod("ntcat")
        return ntcat.hom_closure(ntcat.builtin_presentation(name))

    def check(self, index, name, _, table):
        ref = self.shipped[name]
        return [f"fresh {name} table differs from the shipped cache in {attr}"
                for attr in ("rank", "id_coords", "post", "pre")
                if getattr(table, attr) != getattr(ref, attr)]


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

class CliCold:
    """Command-line user: one fresh ``python -m fktor.cli`` per command."""

    def __init__(self, seed):
        self.seed = seed
        self.traced = False
        self.dir = os.path.join(WORK, f"cli-cold-{seed}-{os.getpid()}")
        self.graph_file = os.path.join(self.dir, "graph.json")
        self.module_file = os.path.join(self.dir, "module.json")
        self.expected = {}
        self.traces = []
        self.peak_rss_mb = 0.0  # of the largest CLI child

    def commands(self):
        g, m = self.graph_file, self.module_file
        return [
            ["graph-tor", "--space", "Z3", "--file", "ck_z3.json"],
            ["graph-tor", "--space", "S", "--file", "ck_s.json"],
            ["graph-tor", "--space", "Z3", "--file", g],
            ["graph-check", "--space", "Z3", "--file", g],
            ["module-tor", "--space", "Z4", "--file", "m_example.json",
             "--degree", "2"],
            ["module-pd", "--space", "Z4", "--file", "m_example.json",
             "--max", "4"],
            ["cat-table", "--space", "Z4"],
            ["module-tor", "--space", "Z3", "--file", m, "--degree", "2"],
        ]

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        with open(self.graph_file, "w") as fh:
            json.dump(inputs.cli_graph(self.seed), fh)
        module = module_from_spec(inputs.cli_module_spec(self.seed))
        with open(self.module_file, "w") as fh:
            json.dump(module.to_json(), fh)
        # a first fresh import, as after installing (writes the bytecode)
        subprocess.run([sys.executable, "-c", "import fktor.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)

    def rounds(self):
        while True:
            yield list(range(len(self.commands())))

    def prepare(self, index):
        return index

    def run(self, index):
        argv = self.commands()[index] + ["--format", "json"]
        out = os.path.join(self.dir, "child.json")
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), out] + argv
        else:  # python -m fktor.cli, with the speed sampler in the process
            cmd = [sys.executable, os.path.join(HERE, "speed.py"), out,
                   "fktor.cli"] + argv
        p = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
        if os.path.exists(out):
            with open(out) as fh:
                data = json.load(fh)
            os.remove(out)
            if self.traced:
                self.traces.append(data)
            else:
                self.meter.absorb(data["reps"], data["kernel_s"])
                self.peak_rss_mb = max(self.peak_rss_mb, data["peak_rss_mb"])
        return p.returncode, p.stdout, p.stderr

    def check(self, _, index, __, out):
        code, stdout, stderr = out
        if code != 0:
            return [f"command {index} exited {code}: {stderr.strip()[-200:]}"]
        try:
            report = json.loads(stdout)
        except ValueError:
            return [f"command {index} printed no JSON report"]
        argv = self.commands()[index]
        if index not in self.expected:
            self.expected[index] = self.library_report(argv)
        if "warnings" in report:  # the CLI's wording; only the count is checked
            report["warnings"] = len(report["warnings"])
        if report != self.expected[index]:
            return [f"{' '.join(argv)}: report differs from the library's"]
        # the paper's facts
        if "ck_z3.json" in argv and report["aggregate"]["1"]["odd"] != "Z/2":
            return ["ck_z3 lost its odd Tor_1 = Z/2"]
        if argv[0] == "module-pd" and report["pd"] != 2:
            return ["m_example no longer has projective dimension 2"]
        return []

    def library_report(self, argv):
        """The report of one command, computed in this process."""
        graphk, ntmod, ntcat = mod("graphk"), mod("ntmod"), mod("ntcat")
        verb, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        space = opts["--space"]
        data = None
        if "--file" in opts:
            path = opts["--file"]
            if not os.path.isabs(path):
                path = os.path.join(SRC, "fktor", "data", path)
            with open(path) as fh:
                data = json.load(fh)
        sc = ntcat.builtin_category(space)
        warnings = int(sc.presentation.reconstructed)
        if verb == "graph-tor":
            G = graphk.BlockGraph.from_json(data)
            rep = graphk.tor_ck(G, 1)
            out = {"space": space, "degree": 1, **tor_json(rep, 1)}
            fast = {"Z3": graphk.z3_fast_tor1, "S": graphk.s_fast_tor1}[space](G)
            if fast.witnesses:
                out["witnesses"] = {k: list(v) for k, v in fast.witnesses.items()}
            return out
        if verb == "graph-check":
            r = graphk.graph_checks(graphk.BlockGraph.from_json(data))
            return {"space": space, "triangular": r.triangular,
                    "no_sinks": r.no_sinks, "no_sources": r.no_sources,
                    "condition_K": r.condition_k,
                    "condition_K_checked": r.condition_k_checked,
                    "problems": r.problems}
        if verb == "module-tor":
            n = int(opts["--degree"])
            M = ntmod.GradedModule.from_json(data, sc)
            return {"space": space, "degree": n, **tor_json(ntmod.tor(M, n), n),
                    "warnings": warnings}
        if verb == "module-pd":
            n = int(opts["--max"])
            M = ntmod.GradedModule.from_json(data, sc)
            pd = ntmod.projective_dimension(M, n)
            rq = ntmod.rational_tor(M, 1)
            return {"space": space, "pd": pd if pd is not None else f"> {n}",
                    "max": n, "rational_tor1_rank": {"even": rq[0], "odd": rq[1]},
                    "warnings": warnings}
        if verb == "cat-table":
            t = sc.table
            chk = ntcat.ideal_checks(t)
            ranks = {}
            for (a, b, p), r in sorted(t.rank.items()):
                if r:
                    ranks.setdefault(f"{a}->{b}", {"even": 0, "odd": 0})[
                        ("even", "odd")[p]] = r
            return {"space": space, "objects": list(t.objects),
                    "hom_ranks": ranks, "nilpotent": chk.nilpotent,
                    "nilpotency_index": chk.nilpotency_index,
                    "semidirect": chk.semidirect, "warnings": warnings}
        raise ValueError(f"no library reference for {verb}")


def module_from_spec(spec):
    """Realise an ``inputs.cli_module_spec`` as a module via coker_module."""
    ntcat, ntmod = mod("ntcat"), mod("ntmod")
    sc = ntcat.builtin_category(spec["space"])
    t = sc.table
    objs = sc.objects

    def summand(s):
        return objs[s[0] % len(objs)], s[1]

    targets = [summand(s) for s in spec["targets"]]
    sources = [summand(s) for s in spec["sources"]]
    mat = []
    for (B, eB), row in zip(targets, spec["blocks"]):
        out = []
        for (A, eA), coeffs in zip(sources, row):
            parity = (eA + eB) % 2
            basis = t.basis_elements(B, A, parity)
            if coeffs is None or not basis:
                out.append(None)
                continue
            acc = t.zero(B, A, parity)
            for k, b in enumerate(basis):
                acc = t.add(acc, t.scale(b, coeffs[k % len(coeffs)]))
            out.append(acc)
        mat.append(out)
    return ntmod.coker_module(sc, targets, sources, mat)


WORKLOADS = {"graph-corpus": GraphCorpus, "table-build": TableBuild,
             "cli-cold": CliCold}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

class Outcome:
    """Failed operations and their problems; an operation fails when it
    raises or when a check of its output finds a problem."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def settle(self, w, index, x, prepared, out, err):
        p = [err] if err else w.check(index, x, prepared, out)
        self.attempted += 1
        if p:
            self.failed += 1
            self.problems.extend(p)


def run_rounds(w, meter, outcome, seconds=None, tr=None):
    """Whole rounds until ``seconds`` have passed and at least MIN_ROUNDS
    are done (one round if ``seconds`` is None).

    Returns the raw and the speed-normalised per-operation latencies and
    per-round times.  Each output is checked right after its operation,
    outside the timed region, and then dropped, so that the worker's peak
    memory does not grow with the number of operations.  With a tracer, each
    operation's spans carry its index as op id, and the outputs are returned
    to be checked once the tracer is removed."""
    t = {"latencies": [], "round_times": [], "norm_latencies": [],
         "norm_round_times": []}
    deferred = []
    rounds = w.rounds()
    t_start = now()
    since = meter.mark()
    meter.sample()
    while True:
        batch = [(x, w.prepare(x)) for x in next(rounds)]
        raw = norm = 0.0
        for x, prepared in batch:
            index = len(t["latencies"])
            if tr is not None:
                tr.current_op = index
            m0 = meter.mark()
            t0 = now()
            try:
                out = w.run(prepared)
                err = None
            except Exception as e:  # counted as a failed operation
                out, err = None, f"{type(e).__name__}: {e}"
            dt = now() - t0 - (meter.kernel_s - m0[1])
            mark = meter.mark()
            meter.sample()
            t["latencies"].append(dt)
            t["norm_latencies"].append(meter.normalise(dt, since))
            since = mark
            raw += dt
            norm += t["norm_latencies"][-1]
            if tr is None:
                outcome.settle(w, index, x, prepared, out, err)
            else:
                deferred.append((index, x, prepared, out, err))
        t["round_times"].append(raw)
        t["norm_round_times"].append(norm)
        if seconds is None or (now() - t_start >= seconds
                               and len(t["round_times"]) >= MIN_ROUNDS):
            t["kernel_s"] = meter.kernel_s / meter.reps
            t["kernel_ref_s"] = speed.CAL_REF_S
            return t, deferred


def write_reference():
    """Record the Tor digests of the default seed's first REFERENCE_GRAPHS
    corpus graphs."""
    import_fktor()
    corpus = GraphCorpus(DEFAULT_SEED)
    corpus.setup()
    digests = []
    rounds = corpus.rounds()
    while len(digests) < REFERENCE_GRAPHS:
        for g in next(rounds):
            _, _, exact, tor = corpus.run(corpus.prepare(g))
            if not exact.ok:
                raise SystemExit("a reference graph's module is not exact")
            digests.append(tor_digest(tor))
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "graphs": len(digests),
                   "what": "sha256 of json.dumps(tor(fk_module(G), 3).to_json(), "
                           "sort_keys=True) for the corpus graphs in order",
                   "tor_sha256": digests}, fh, indent=0)
        fh.write("\n")
    return {"graphs": len(digests), "path": REFERENCE}


def main(cfg):
    if cfg["mode"] == "reference":
        return write_reference()
    mode, seed = cfg["mode"], cfg["seed"]
    os.makedirs(WORK, exist_ok=True)
    w = WORKLOADS[cfg["workload"]](seed)
    # CLI children sample in their own process (a timer here would compete
    # with them for the machine); a traced run keeps the timer out of spans
    tick = None if isinstance(w, CliCold) or mode == "traced" else speed.TICK_S
    meter = w.meter = speed.SpeedMeter(tick)
    meter.sample()
    m0 = meter.mark()
    t_setup = now()
    import_s = import_fktor()
    tr = None
    if mode == "traced":
        if isinstance(w, CliCold):
            w.traced = True  # each command runs in a traced child instead
        else:
            tr = tracing.Tracer()
            tr.install()
    w.setup()
    # a fresh process pays the import too; the timer's kernels are not set-up
    setup_s = now() - t_setup - (meter.kernel_s - m0[1])
    meter.sample()
    result = {"import_s": import_s, "setup_s": setup_s,
              "norm_setup_s": meter.normalise(setup_s, (0, 0.0))}
    if mode == "setup":
        meter.stop()
        tracing.assert_unwrapped()
        return result
    seconds = cfg["seconds"] if mode == "measure" else None
    outcome = Outcome()
    t0 = now()
    timings, deferred = run_rounds(w, meter, outcome, seconds, tr)
    wall = now() - t0
    meter.stop()
    if tr is not None:
        tr.uninstall()
        result["trace"] = tr.summary()
        result["trace"]["traced_s"] = setup_s + sum(timings["latencies"])
        result["trace"]["import_s"] = import_s
        tr.dump(spans_path(cfg))
    elif mode == "traced":
        result["trace"] = merge_cli_traces(w.traces)
        with open(spans_path(cfg), "w") as fh:
            json.dump({"commands": [[" ".join(c) for c in w.commands()][i]
                                    for i in range(len(w.traces))],
                       "traces": w.traces}, fh)
    tracing.assert_unwrapped()
    peak_rss_mb = w.peak_rss_mb if isinstance(w, CliCold) \
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for item in deferred:
        outcome.settle(w, *item)
    result.update({
        **timings, "wall_s": wall, "attempted": outcome.attempted,
        "failed": outcome.failed, "problems": outcome.problems[:20],
        "peak_rss_mb": peak_rss_mb,
    })
    return result


def spans_path(cfg):
    return os.path.join(WORK, f"spans-{cfg['workload']}-{cfg['seed']}-"
                              f"{cfg['tag']}.json")


def merge_cli_traces(traces):
    """Sum per-function calls and times over the traced CLI children."""
    per, counts = {}, {}
    smith_calls = repeats = 0
    for t in traces:
        s = t["summary"]
        for k, v in s["per_function"].items():
            acc = per.setdefault(k, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for f in acc:
                acc[f] += v[f]
        for k, v in s["counts"].items():
            if k.endswith(("max_dim", "max_entry_bits", "max_level_summands")):
                counts[k] = max(counts.get(k, 0), v)
            elif k != "zexact.smith.repeat_ratio":
                counts[k] = counts.get(k, 0) + v
        smith_calls += s["per_function"]["zexact.smith"]["calls"]
        repeats += s["counts"]["zexact.smith.repeats"]
    counts["zexact.smith.repeat_ratio"] = repeats / smith_calls if smith_calls else 0.0
    return {"spans": sum(t["summary"]["spans"] for t in traces),
            "per_function": per, "counts": counts,
            "traced_s": sum(t["run_s"] for t in traces),
            "import_s": statistics.median(t["import_s"] for t in traces)}


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    config = json.loads(sys.argv[1])
    try:
        print(json.dumps(main(config)))
    finally:
        shutil.rmtree(os.path.join(WORK, f"cli-cold-{config['seed']}-{os.getpid()}"),
                      ignore_errors=True)
