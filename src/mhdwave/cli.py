"""Command-line entry points.

Subcommands: simulate, sweep, fit-decay, verify-kernels, verify-lemmas,
compare-mhd.  Shared flags (--config, --output, --seed) may also be set
through environment variables with the ``MHDWAVE_`` prefix (e.g.
``MHDWAVE_OUTPUT``); flags win over the environment.  ``sweep`` runs its
gamma members concurrently, one thread each up to the CPU count; the
output does not depend on how many run at once.

Every invocation writes a ``manifest.jsonl`` naming the config hash and
the emitted files.  CSV outputs are byte-deterministic for a fixed config
and seed; wall-clock timestamps appear only in the manifest.

Exit codes: 0 success, 2 configuration error, 3 solver blow-up or step
failure, 4 data/usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import config_hash, parse_config, parse_config_file, serialize_config
from .decay import (
    DecayExperimentConfig,
    _theory_pair,
    fit_power_law,
    gamma_prefactor_scan,
    singular_limit_experiment,
    verify_expintegral,
)
from .diagnostics import norm_observer
from .errors import (
    BlowUpError,
    ConfigurationError,
    DataError,
    MhdWaveError,
    StepSizeError,
    WindowError,
)
from .initial import make_initial_data
from .kernels import BoundSampleSpec, verify_kernel_bounds
from .solver import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DATA = 4

ENV_PREFIX = "MHDWAVE_"


def _env_default(name: str):
    return os.environ.get(ENV_PREFIX + name.upper())


def _integer_arg(path: str, minimum: int):
    """argparse type: an integer >= ``minimum``.  Anything else, also from an
    environment default, is a ``ConfigurationError`` at ``path``, which
    argparse lets through to ``main``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise ConfigurationError(f"expected an integer >= {minimum}, got {text!r}",
                                     path=path)
        return value

    return parse


def _gamma_list(text: str) -> list:
    """argparse type for ``--gammas``: comma-separated numbers."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"expected comma-separated numbers, got {text!r}",
                                 path="gammas") from None


class _Manifest:
    def __init__(self, outdir: Path, cfg: DecayExperimentConfig, args_echo: dict):
        self.outdir = outdir
        self.rows = []
        head = {
            "kind": "run",
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "args": args_echo,
            "config_hash": config_hash(cfg),
            "config": json.loads(serialize_config(cfg)),
        }
        self.rows.append(head)
        self.config_hash = head["config_hash"]

    def add_file(self, path: Path, kind: str) -> None:
        self.rows.append({"kind": kind, "path": path.name, "config_hash": self.config_hash})

    def write(self) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        with open(self.outdir / "manifest.jsonl", "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _write_csv(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)


def _float_cell(x) -> str:
    return repr(float(x))


def _load_run_config(args) -> DecayExperimentConfig:
    cfg = parse_config_file(args.config) if args.config else parse_config("{}")
    if args.seed is not None:
        cfg = replace(cfg, params={**cfg.params, "seed": args.seed})
    if args.output:
        cfg = replace(cfg, output_dir=args.output)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    outdir = Path(cfg.output_dir)
    manifest = _Manifest(outdir, cfg, {"command": "simulate"})
    observer = norm_observer(cfg.q_list, cfg.s_list_u, cfg.s_list_b)
    if args.resume:
        state, gamma_ck = load_checkpoint(args.resume)
        if abs(gamma_ck - cfg.gamma) > 1e-15 * max(1.0, abs(cfg.gamma)):
            raise ConfigurationError(
                f"checkpoint gamma {gamma_ck} does not match config gamma {cfg.gamma}",
                path="physics.gamma",
            )
        if state.grid != cfg.grid:
            raise ConfigurationError("checkpoint grid does not match config grid",
                                     path="grid")
        initial = state
        t_offset = state.t
    else:
        initial = make_initial_data(cfg.family, cfg.params, cfg.grid)
        t_offset = 0.0
    # a checkpoint at t_end, up to round-off, leaves no step to take
    remaining = cfg.t_end - t_offset
    solver_cfg = replace(cfg, t_end=remaining if remaining > 1e-9 * cfg.t_end else 0.0)
    solver_cfg = solver_cfg.solver_config()

    ck_paths = []

    def sink(state):
        p = outdir / f"checkpoint_t{state.t + t_offset:012.6f}.mhdw"
        outdir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(p, replace(state, t=state.t + t_offset), cfg.gamma)
        ck_paths.append(p)

    traj = run(solver_cfg, initial, observer,
               checkpoint_every=args.checkpoint_every, checkpoint_sink=sink)
    ids = cfg.norm_ids()
    rows = [["t"] + ids]
    for i, t in enumerate(traj.times):
        rows.append([_float_cell(t + t_offset)] + [_float_cell(traj.snapshots[i][k]) for k in ids])
    series = outdir / "series.csv"
    _write_csv(series, rows)
    manifest.add_file(series, "series")
    for p in ck_paths:
        manifest.add_file(p, "checkpoint")
    manifest.write()
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args)
    outdir = Path(cfg.output_dir)
    manifest = _Manifest(outdir, cfg, {"command": "sweep", "gammas": args.gammas})
    sweep = gamma_prefactor_scan(args.gammas, cfg)
    ids = cfg.norm_ids()
    rows = [["gamma", "norm_id", "exponent", "theory", "r2", "prefactor", "final_value"]]
    for g in sweep.gammas:
        for nid in ids:
            c = sweep.fits[g][nid]
            rows.append([
                _float_cell(g), nid,
                _float_cell(c.fit.exponent),
                _float_cell(c.theory.exponent) if c.theory else "",
                _float_cell(c.fit.r2),
                _float_cell(np.exp(c.fit.log_prefactor)),
                _float_cell(sweep.final_norms[g][nid]),
            ])
    sweep_csv = outdir / "sweep.csv"
    _write_csv(sweep_csv, rows)
    manifest.add_file(sweep_csv, "sweep")
    # prefactor curve per tracked norm, for offline plotting
    curve = [["norm_id"] + [_float_cell(g) for g in sweep.gammas]]
    for nid in ids:
        curve.append([nid] + [_float_cell(np.exp(sweep.fits[g][nid].fit.log_prefactor))
                              for g in sweep.gammas])
    curve_csv = outdir / "prefactor_curve.csv"
    _write_csv(curve_csv, curve)
    manifest.add_file(curve_csv, "prefactor_curve")
    manifest.write()
    return EXIT_OK


def _read_series(path):
    """Header and float rows of a series CSV; anything unusable is a DataError."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, *body = csv.reader(fh)
        data = np.array([[float(x) for x in row] for row in body])
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"unreadable series {path}: {exc}") from exc
    if header[:1] != ["t"]:
        raise DataError("series CSV must have a leading t column")
    if len(body) < 2 or data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        raise DataError(f"series {path} needs >= 2 rows of {len(header)} finite numbers")
    return header, data


def cmd_fit_decay(args) -> int:
    cfg = _load_run_config(args)
    outdir = Path(cfg.output_dir)
    manifest = _Manifest(outdir, cfg, {"command": "fit-decay", "series": args.series})
    header, data = _read_series(args.series)
    t = data[:, 0]
    window = cfg.window if cfg.window else (float(t[1]), float(t[-1]))
    rows = [["norm_id", "exponent", "theory", "delta", "r2", "window_lo", "window_hi"]]
    for j, nid in enumerate(header[1:], start=1):
        fit = fit_power_law(zip(t, data[:, j]), window)
        try:
            theory, _ = _theory_pair(nid, cfg)  # same pairing as the live experiment
        except (ValueError, MhdWaveError):
            theory = None
        cells = ["", ""] if theory is None else [
            _float_cell(theory.exponent), _float_cell(fit.exponent - theory.exponent)]
        rows.append([nid, _float_cell(fit.exponent), *cells, _float_cell(fit.r2),
                     _float_cell(window[0]), _float_cell(window[1])])
    out = outdir / "fit_summary.csv"
    _write_csv(out, rows)
    manifest.add_file(out, "fit_summary")
    manifest.write()
    return EXIT_OK


def cmd_verify_kernels(args) -> int:
    cfg = _load_run_config(args)
    outdir = Path(cfg.output_dir)
    manifest = _Manifest(outdir, cfg, {"command": "verify-kernels"})
    spec = BoundSampleSpec()
    report = verify_kernel_bounds(cfg.gamma, spec)
    refined = verify_kernel_bounds(cfg.gamma, spec.refined())
    out = outdir / "kernel_bounds.csv"
    _write_csv(out, report.to_csv_rows())
    manifest.add_file(out, "kernel_bounds")
    ref_out = outdir / "kernel_bounds_refined.csv"
    _write_csv(ref_out, refined.to_csv_rows())
    manifest.add_file(ref_out, "kernel_bounds_refined")
    manifest.write()
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    cfg = _load_run_config(args)
    outdir = Path(cfg.output_dir)
    manifest = _Manifest(outdir, cfg, {"command": "verify-lemmas"})
    report = verify_expintegral()
    for ineq in ("p-1", "p-2", "p-3"):
        out = outdir / f"expintegral_{ineq}.csv"
        _write_csv(out, report.to_csv_rows(ineq))
        manifest.add_file(out, f"expintegral_{ineq}")
    stable = report.stable()
    summary = outdir / "expintegral_summary.csv"
    rows = [["case", "regime", "C_emp", "C_emp_refined", "stable_1pct"]]
    for key, v in sorted(report.c_emp.items()):
        rows.append([key[0], key[1], repr(float(v)), repr(float(report.c_emp_refined[key])),
                     str(stable).lower()])
    _write_csv(summary, rows)
    manifest.add_file(summary, "expintegral_summary")
    manifest.write()
    return EXIT_OK


def cmd_compare_mhd(args) -> int:
    cfg = _load_run_config(args)
    outdir = Path(cfg.output_dir)
    if not 0 < args.T < math.inf:
        raise ConfigurationError(f"must be positive and finite, got {args.T}", path="T")
    manifest = _Manifest(outdir, cfg, {"command": "compare-mhd", "gammas": args.gammas,
                                       "T": args.T})
    gs, errs = singular_limit_experiment(args.gammas, args.T, cfg)
    rows = [["gamma", "error", "ratio_to_previous"]]
    for i, (g, e) in enumerate(zip(gs, errs)):
        # no ratio for the first row, nor after a zero error
        ratio = _float_cell(e / errs[i - 1]) if i and errs[i - 1] else ""
        rows.append([_float_cell(g), _float_cell(e), ratio])
    out = outdir / "singular_limit.csv"
    _write_csv(out, rows)
    manifest.add_file(out, "singular_limit")
    manifest.write()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdwave",
        description="Damped wave-type MHD pseudo-spectral simulator and verification harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=_env_default("config"),
                       help="JSON config file (MHDWAVE_CONFIG)")
        p.add_argument("--output", default=_env_default("output"),
                       help="output directory (MHDWAVE_OUTPUT)")
        # string defaults from the environment go through ``type`` as well
        p.add_argument("--seed", type=_integer_arg("seed", 0),
                       default=_env_default("seed") or None,
                       help="seed override (MHDWAVE_SEED)")

    p = sub.add_parser("simulate", help="run one simulation, emit the norm series")
    common(p)
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.add_argument("--checkpoint-every", type=_integer_arg("checkpoint_every", 1),
                   help="write a checkpoint every N steps (N >= 1)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="gamma sweep of the decay experiment")
    common(p)
    p.add_argument("--gammas", type=_gamma_list, default="0.25,0.5,1.0",
                   help="comma-separated gamma list")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit-decay", help="fit power laws to an existing series CSV")
    common(p)
    p.add_argument("series", help="series CSV produced by simulate")
    p.set_defaults(func=cmd_fit_decay)

    p = sub.add_parser("verify-kernels", help="empirical kernel-bound constants")
    common(p)
    p.set_defaults(func=cmd_verify_kernels)

    p = sub.add_parser("verify-lemmas", help="exponential-integral inequality constants")
    common(p)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("compare-mhd", help="singular-limit comparison against gamma = 0")
    common(p)
    p.add_argument("--gammas", type=_gamma_list, default="0.1,0.05,0.025")
    p.add_argument("--T", type=float, default=5.0)
    p.set_defaults(func=cmd_compare_mhd)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        print(json.dumps({"error": "configuration", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, StepSizeError) as exc:
        print(json.dumps({"error": "solver", "message": str(exc),
                          "t": getattr(exc, "t", None)}), file=sys.stderr)
        return EXIT_SOLVER
    except (DataError, WindowError, MhdWaveError) as exc:
        print(json.dumps({"error": "data", "message": str(exc)}), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
