"""Benchmark of the mhdwave verification harness.

    python3 perfbench/run.py --workload {decay_fit,singular_limit,linear_energy,all}
                             --seed N --seconds S --trace {0,1} [--n N]

Untraced (``--trace 0``): for about ``S`` seconds, runs the workload in fresh
processes, one after another, and reports the medians of the end-to-end
metrics.  Extra processes that stop at the first solver step add set-up
samples.  Traced (``--trace 1``): one untraced process, one traced process
and one traced process with ``MHDWAVE_FFT_WORKERS=1``; reports the per-layer
metrics.  Every process checks its answer; a failed check or an exception
counts as a failed check, never as a crash.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0
when every check passed, 1 when one failed, 2 when the package source is
missing.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.steps": "count",
    "solver.step_ms_p50": "ms",
    "solver.step_ms_p95": "ms",
    "solver.step_self_ms_p50": "ms",
    "solver.nonlinear_ms_p50": "ms",
    "solver.nonlinear_calls": "count",
    "solver.fft2d_per_step": "count",
    "solver.step_ms_p50_1thread": "ms",
    "diagnostics.observe_ms_p50": "ms",
    "diagnostics.observe_calls": "count",
    "diagnostics.energy_ms_p50": "ms",
    "diagnostics.inverse_transforms_per_observe": "count",
    "kernels.tables_s": "s",
    "kernels.tables_builds": "count",
    "initial.make_s": "s",
    "checkpoint.write_ms_p50": "ms",
    "checkpoint.read_ms_p50": "ms",
    "checkpoint.writes": "count",
    "checkpoint.bytes_per_write": "B",
    "decay.fit_ms_total": "ms",
    "decay.fits": "count",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "1",
}

# a run of one workload must end well inside the 180 s a run may take
DEADLINE_S = 170.0
# set-up samples per untraced run at least, besides one from each full process
MIN_SETUP_PROBES = 5


class ChildError(Exception):
    pass


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Session:
    """Spawns the workload processes of one run and keeps its deadline."""

    def __init__(self, workload, seed, n, workdir, deadline):
        self.workload, self.seed, self.n = workload, seed, n
        self.workdir, self.deadline = workdir, deadline

    def spawn(self, mode, env_extra=None):
        env = dict(os.environ)
        env.pop("MHDWAVE_FFT_WORKERS", None)  # the package default, unless asked
        env.update(env_extra or {})
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--n", str(self.n),
               "--t0", repr(t0), "--mode", mode, "--workdir", self.workdir]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            raise ChildError(f"{mode} process passed the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise ChildError(f"{mode} process exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values):
    return statistics.median(values) if values else None


def untraced(session, seconds, tally):
    """Full processes while they fit in ``seconds``, then set-up probes."""
    start = time.monotonic()
    session.spawn("setup")  # warm-up, untimed: byte-compilation and file cache
    reps, setups = [], []
    # the shortest process so far predicts the next, so that one slow
    # process does not cost the run its later samples
    shortest = float("inf")
    reserve = MIN_SETUP_PROBES * 1.0
    while not reps or time.monotonic() - start + shortest + reserve <= seconds:
        t = time.monotonic()
        try:
            rep = session.spawn("plain")
        except ChildError as exc:
            tally.fail_all(str(exc))
            break
        shortest = min(shortest, time.monotonic() - t)
        tally.add(rep["checks"])
        tally.env = rep["env"]
        reps.append(rep)
        setups.append(rep["setup_s"])
    probes, longest = 0, 0.0
    while probes < MIN_SETUP_PROBES or time.monotonic() - start + longest <= seconds:
        t = time.monotonic()
        setups.append(session.spawn("setup")["setup_s"])
        longest = max(longest, time.monotonic() - t)
        probes += 1
    metrics = {
        "wall_s": _median([r["wall_s"] for r in reps]),
        "setup_s": _median(setups),
        "steps_per_s": _median([r["steps"] / (r["wall_s"] - r["setup_s"]) for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }
    steps = reps[0]["steps"] if reps else None
    note = (f"{len(setups)} set-up samples, {len(reps)} full processes, wall_s "
            + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    return metrics, steps, note


def traced(session, tally):
    session.spawn("setup")  # warm-up, as in the untraced run
    plain = session.spawn("plain")
    trace = session.spawn("trace")
    single = session.spawn("trace", {"MHDWAVE_FFT_WORKERS": "1"})
    for rep in (plain, trace, single):
        tally.add(rep["checks"])
    tally.env = trace["env"]
    metrics = dict(trace["layers"])
    metrics["solver.step_ms_p50_1thread"] = single["layers"]["solver.step_ms_p50"]
    metrics["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    note = "absent spans: " + (", ".join(trace["absent"]) or "none")
    return metrics, trace["steps"], note


class Tally:
    """Correctness checks attempted and failed over every process of a run."""

    def __init__(self, workload):
        self.checks = WORKLOADS[workload].checks
        self.attempted = self.failed = 0
        self.failures = []
        self.last = []
        self.env = {}

    def add(self, checks):
        self.attempted += len(checks)
        self.failed += sum(1 for _, ok, _ in checks if not ok)
        self.failures += [f"{c}: {d}" for c, ok, d in checks if not ok]
        self.last = checks

    def fail_all(self, reason):
        self.add([(c, False, reason) for c in self.checks])


def run_workload(name, seed, seconds, trace, n, workdir):
    w = WORKLOADS[name]
    n = n or w.n
    session = Session(name, seed, n, workdir, time.monotonic() + DEADLINE_S)
    tally = Tally(name)
    try:
        if trace:
            metrics, steps, note = traced(session, tally)
        else:
            metrics, steps, note = untraced(session, seconds, tally)
    except ChildError as exc:
        tally.fail_all(str(exc))
        metrics, steps, note = {}, None, "run aborted"
    units = PER_LAYER if trace else END_TO_END
    metrics = {k: metrics.get(k) for k in units}

    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{name}: seed {seed}, n {n}, dt {w.dt:g}, {steps} steps per process; {note}")
    print(f"  why: {w.why}")
    for k, unit in units.items():
        v = metrics[k]
        print(f"  {k:<44} {'absent' if v is None else f'{v:.6g}'} {unit}")
    print(f"  {'checks_failed_frac':<44} {frac:.6g} 1  "
          f"({tally.failed} of {tally.attempted} checks failed)")
    for c, ok, detail in tally.last:
        print(f"  check {c}: {'PASS' if ok else 'FAIL'} ({detail})")
    for f in tally.failures[:10]:
        print(f"  FAILED {f}")
    env = dict(tally.env, nproc=len(os.sched_getaffinity(0)), git_sha=git_sha(),
               workload=name, n=n, dt=w.dt, steps=steps, seed=seed)
    print("env " + json.dumps(env))
    return metrics, units, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="grid size override, for quick smoke runs")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mhdwave", "__init__.py")):
        print(f"perfbench: no package source at {os.path.join(ROOT, 'src', 'mhdwave')}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, units, tally = run_workload(name, args.seed, args.seconds, args.trace,
                                                 args.n, workdir)
            prefix = f"{name}." if len(names) > 1 else ""
            for k, v in metrics.items():
                result["metrics"][prefix + k] = {"value": v, "unit": units[k]}
            result["attempted"] += tally.attempted
            result["failed"] += tally.failed
            result["correct"] &= tally.failed == 0 and all(
                v is not None for k, v in metrics.items() if k in END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
