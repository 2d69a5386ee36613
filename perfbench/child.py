"""One workload in one fresh process; prints its measurements as one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --n N --t0 T
                               --mode {plain,trace,setup} --workdir DIR

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so ``wall_s`` and
``setup_s`` include interpreter start-up and ``import mhdwave``.

Modes:
  plain  the untraced run: only the step functions are wrapped, to count
         steps and time the first one (the end of set-up)
  trace  every hook of ``spans.install``; adds the per-layer metrics
  setup  stops at the first solver step and reports only ``setup_s``
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _SetupReached(BaseException):
    """Raised at the first solver step in ``setup`` mode.  A BaseException so
    that the workloads' failed-check handler (``except Exception``) lets it
    through."""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "setup"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import mhdwave.solver  # part of set-up

    import spans
    import workloads

    if not os.path.abspath(mhdwave.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported mhdwave from {mhdwave.__file__}, not from {SRC}")

    first = {}
    steps = [0]

    def step_hook(step):
        def counted(*a, **k):
            if not steps[0]:
                first["t"] = time.monotonic()
                if args.mode == "setup":
                    raise _SetupReached
            steps[0] += 1
            return step(*a, **k)

        return counted

    tracer = spans.Tracer()
    if args.mode == "trace":
        spans.install(tracer, workloads._Modules())
    spans.patch_steppers(tracer, mhdwave.solver, step_hook)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        checks = workloads.run(args.workload, args.seed, args.n, args.workdir)
    except _SetupReached:
        checks = None
    end = time.monotonic()

    out = {
        "setup_s": first["t"] - args.t0 if first else None,
        "wall_s": end - args.t0,
        "steps": steps[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "env": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "fft_workers": getattr(mhdwave.solver, "_FFT_WORKERS", None),
        },
    }
    if args.mode == "trace":
        out["layers"] = spans.layer_metrics(tracer)
        out["absent"] = sorted(set(tracer.absent))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
