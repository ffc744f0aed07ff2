"""Layer tracing from outside the program.

``Tracer.install`` rebinds the public entry points of each fktor layer to
timing wrappers, both in the defining module and in every fktor module that
imported them by name, and ``uninstall`` puts the originals back.  Spans
(name, start, end, parent, op id) are kept in flat in-memory arrays and
written out with ``dump``; ``summary`` turns them into per-function self
time and call counts plus the probe counters below.

Run as a script, this module is the traced child of the cli-cold workload:

    python perfbench/tracer.py OUT.json VERB [ARGS...]

It times ``import fktor.cli``, installs the tracer, runs the command through
``fktor.cli.run``, prints the report to stdout, writes the spans and counts
to OUT.json and exits with the command's exit code.
"""

import importlib
import io
import json
import sys
import time
from array import array

# Public entry points wrapped per layer; each gets a span per call.
LAYERS = {
    "zexact": ("smith", "solve", "kernel", "subquotient_homology",
               "hnf_columns"),
    "finspace": ("lc_subsets",),
    "ntcat": ("hom_closure", "builtin_presentation", "table_from_json",
              "builtin_category", "ideal_checks"),
    "ntmod": ("resolution_for", "resolve_simple", "extend_resolution",
              "builtin_resolution", "validate_resolution",
              "tensor_complex_maps", "tor_single", "check_exact", "tor"),
    "graphk": ("fk_module", "k_groups", "graph_checks", "z3_fast_tor1",
               "s_fast_tor1", "tor_ck"),
    "cli": ("run",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items()
                   for fn in fns)
SETUP_OP = -1
MARK = "_perfbench_wrapper"


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.current_op = SETUP_OP
        self.init_calls = 0
        self.smith_max_dim = 0
        self.smith_max_bits = 0
        self.smith_repeats = 0
        self.smith_seen = set()
        self.max_level_summands = 0
        self._patched = []

    # -- probes --------------------------------------------------------------

    def _probe_smith(self, args, kwargs):
        A = args[0] if args else kwargs["A"]
        self.smith_max_dim = max(self.smith_max_dim, A.rows, A.cols)
        if A.rows and A.cols:
            big = max(max(map(max, A.data)), -min(map(min, A.data)))
            self.smith_max_bits = max(self.smith_max_bits, big.bit_length())
        # 64-bit hash of the entries stands in for the matrix itself, so
        # that large inputs are not kept alive.
        key = hash((A.rows, A.cols, A.data))
        if key in self.smith_seen:
            self.smith_repeats += 1
        else:
            self.smith_seen.add(key)

    def _after_resolution(self, res):
        for level in res.levels:
            self.max_level_summands = max(self.max_level_summands, len(level))

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, idx, probe=None, after=None):
        clock = time.perf_counter
        name, start, end = self.name, self.start, self.end
        parent, op, stack = self.parent, self.op, self.stack

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            i = len(name)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "fktor" or n.startswith("fktor.")]
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"fktor.{layer}")
            for fn_name in fns:
                orig = getattr(home, fn_name)
                probe = self._probe_smith if fn_name == "smith" else None
                after = self._after_resolution if fn_name == "resolution_for" \
                    else None
                w = self._wrap(orig, SPAN_NAMES.index(f"{layer}.{fn_name}"),
                               probe, after)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, w)
        IntMatrix = importlib.import_module("fktor.zexact").IntMatrix
        orig_init = IntMatrix.__init__

        def init(obj, *args, **kwargs):
            self.init_calls += 1
            orig_init(obj, *args, **kwargs)

        setattr(init, MARK, True)
        self._patched.append((IntMatrix, "__init__", orig_init))
        IntMatrix.__init__ = init

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPAN_NAMES)
        incl = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.name[i]
            d = self.end[i] - self.start[i]
            calls[k] += 1
            own[k] += d - child[i]
            if self.parent[i] < 0 or self.name[self.parent[i]] != k:
                incl[k] += d
        return {SPAN_NAMES[k]: (calls[k], incl[k], own[k])
                for k in range(len(SPAN_NAMES))}

    def summary(self):
        """Plain-data counts and times; every count repeats exactly for the
        same work, whatever the machine."""
        per = self.self_times()
        smith_calls = per["zexact.smith"][0]
        return {
            "spans": len(self.name),
            "per_function": {k: {"calls": c, "incl_s": t, "self_s": s}
                             for k, (c, t, s) in per.items()},
            "counts": {
                "zexact.IntMatrix.init_calls": self.init_calls,
                "zexact.smith.max_dim": self.smith_max_dim,
                "zexact.smith.max_entry_bits": self.smith_max_bits,
                "zexact.smith.repeats": self.smith_repeats,
                "zexact.smith.repeat_ratio":
                    self.smith_repeats / smith_calls if smith_calls else 0.0,
                "ntmod.resolution.max_level_summands": self.max_level_summands,
            },
        }

    def dump(self, path, extra=None):
        data = {"names": list(SPAN_NAMES),
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": [[self.name[i], self.start[i], self.end[i],
                           self.parent[i], self.op[i]]
                          for i in range(len(self.name))],
                "summary": self.summary()}
        if extra:
            data.update(extra)
        with open(path, "w") as fh:
            json.dump(data, fh)


def assert_unwrapped():
    """Raise if any loaded fktor function still carries a tracing wrapper."""
    for n, m in list(sys.modules.items()):
        if n == "fktor" or n.startswith("fktor."):
            for attr, val in vars(m).items():
                if getattr(val, MARK, False):
                    raise RuntimeError(f"{n}.{attr} is still wrapped")
                if isinstance(val, type):
                    for a2, v2 in vars(val).items():
                        if getattr(v2, MARK, False):
                            raise RuntimeError(f"{n}.{attr}.{a2} is still wrapped")


def _cli_child(argv):
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("fktor.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.current_op = 0
    buf = io.StringIO()
    t1 = time.perf_counter()
    code = cli.run(cli_args, out=buf)
    run_s = time.perf_counter() - t1
    tracer.uninstall()
    sys.stdout.write(buf.getvalue())
    tracer.dump(out_path, {"import_s": import_s, "run_s": run_s,
                           "wall_s": run_s})
    return code


if __name__ == "__main__":
    sys.exit(_cli_child(sys.argv[1:]))
