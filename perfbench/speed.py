"""Speed normalisation: how fast the shared machine runs right now.

Wall time on a small shared machine drifts by tens of percent within
minutes, for the benchmark and a pure-Python loop alike.  So every timing
is also reported scaled to a reference speed: a fixed pure-Python integer
kernel is timed between operations and, from a SIGALRM timer, every TICK_S
seconds while they run, and a wall time is multiplied by CAL_REF_S over the
kernel's mean time in the same interval.

Run as a script, it runs a module the way ``python -m`` does, with the
timer sampling inside that process, and writes the samples and the
process's peak memory to OUT.json:

    python perfbench/speed.py OUT.json fktor.cli VERB [ARGS...]
"""

import json
import runpy
import signal
import sys
import time

now = time.perf_counter

# A sample between operations runs the kernel CAL_REPS times; the timer
# runs it once every TICK_S seconds.  Normalised times are times at the
# speed at which one kernel takes CAL_REF_S; on the 2-core machine the
# baseline was taken on it took 0.9 to 1.4 ms.
CAL_REPS = 10
TICK_S = 0.1
CAL_REF_S = 0.001


def kernel():
    """Row reduction on small integer lists, like fktor's inner loops."""
    rows = [[(i * 7 + j * 13) % 11 - 5 for j in range(24)] for i in range(24)]
    for k in range(24):
        piv = rows[k]
        for r in rows[k + 1:]:
            q = r[k] // (piv[k] or 1)
            for j in range(24):
                r[j] -= q * piv[j]
            r[:] = [x % 1000003 for x in r]


class SpeedMeter:
    """Kernel samples so far: how many kernels ran and how long they took.

    ``sample`` runs CAL_REPS kernels; with ``tick`` set, a SIGALRM handler
    runs one kernel every ``tick`` seconds.  ``mark`` and ``normalise``
    scale a wall time by the kernels' mean time since a mark."""

    def __init__(self, tick=None):
        self.reps = 0
        self.kernel_s = 0.0
        self.busy = False
        self.tick = tick
        if tick:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, tick, tick)

    def stop(self):
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, *_):
        if not self.busy:
            self.sample(1)

    def sample(self, reps=None):
        self.busy = True
        t0 = now()
        for _ in range(reps or CAL_REPS):
            kernel()
        self.kernel_s += now() - t0
        self.reps += reps or CAL_REPS
        self.busy = False

    def mark(self):
        return self.reps, self.kernel_s

    def normalise(self, seconds, since):
        """``seconds`` at the reference speed, judged by the samples taken
        after the mark ``since``."""
        reps, kernel_s = self.reps - since[0], self.kernel_s - since[1]
        return seconds * CAL_REF_S / (kernel_s / reps)

    def absorb(self, reps, kernel_s):
        """Count samples taken in another process (a child command)."""
        self.reps += reps
        self.kernel_s += kernel_s


def own_peak_rss_mb():
    """This process's peak resident set since its exec, from VmHWM.  The
    rusage maximum would also count the parent's pages at fork time."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_module(argv):
    out_path, module, args = argv[0], argv[1], argv[2:]
    meter = SpeedMeter(TICK_S)
    code = 0
    sys.argv = [module] + args
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code
    finally:
        meter.stop()
        with open(out_path, "w") as fh:
            json.dump({"reps": meter.reps, "kernel_s": meter.kernel_s,
                       "peak_rss_mb": own_peak_rss_mb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_run_module(sys.argv[1:]) or 0)
