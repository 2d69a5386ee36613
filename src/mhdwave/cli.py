"""Command-line entry points.

Subcommands: simulate, sweep, fit-decay, verify-kernels, verify-lemmas,
compare-mhd.  Each takes the same three flags: ``--config`` (the JSON run
description), ``--seed`` (overrides ``initial_data.seed``) and
``--output`` (the directory written to, ``out`` by default).  ``sweep``
and ``compare-mhd`` run their members (the gammas, and compare-mhd's
gamma = 0 baseline) concurrently, one thread each up to the CPUs the
process may use; the output does not depend on how many run at once.

Each subcommand returns its tables, and one writer emits them: every
table as ``<kind>.csv``, then a ``manifest.jsonl`` naming the config hash
and the emitted files.  The hash covers what decides the outputs, the
config with the ``--seed`` override applied, and not where the run
writes.  The manifest lists the CSVs in the order they were written,
then any checkpoints in the order ``simulate`` wrote them.  The
subcommands hand the writer numbers, and it alone formats a cell: a float
(numpy's too) as ``repr(float(x))``, the shortest decimal that reads back
to it, a bool in lower case, anything else through ``str``.  CSV outputs
are byte-deterministic for a fixed config and seed; wall-clock
timestamps appear only in the manifest.

Exit codes: 0 success, 2 configuration error (an ``--output`` that
names a file, or lies under one, is one, found before the run), 3
solver blow-up or step failure, 4 data/usage error or a failed write.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import config_hash, parse_config, parse_config_file, serialize_config
from .decay import (
    _fit_norm,
    default_fit_window,
    gamma_prefactor_scan,
    singular_limit_experiment,
    theory_rate,
    verify_expintegral,
)
from .diagnostics import norm_observer
from .errors import (
    BlowUpError,
    ConfigurationError,
    DataError,
    DomainError,
    MhdWaveError,
    StepSizeError,
)
from .initial import make_initial_data
from .kernels import _gamma_refusal, verify_kernel_bounds
from .solver import run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DATA = 4

def _integer_arg(path: str, minimum: int):
    """argparse type: an integer >= ``minimum``.  Anything else is a
    ``ConfigurationError`` at ``path``, which argparse lets through to
    ``main``."""

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


def _cell(x) -> str:
    """A CSV cell, in the format the module docstring states."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x).lower() if isinstance(x, bool) else str(x)


def _emit(args) -> int:
    """Run ``args.func(cfg, args)`` and write what it returns into ``args.output``.

    The manifest head (config hash, echo of the ``args.echo`` arguments,
    timestamp, numpy and scipy versions) is taken, and ``args.output``
    checked, before the run.  Each returned table is written as
    ``<kind>.csv`` in the returned order; the ``checkpoint`` entry lists
    the files ``simulate`` already wrote, in the order it wrote them.
    """
    cfg = parse_config_file(args.config) if args.config else parse_config("{}")
    if args.seed is not None:
        cfg = replace(cfg, params={**cfg.params, "seed": args.seed})
    head = {
        "kind": "run",
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        # read from the installed metadata, so that no scipy module is imported
        "versions": {"numpy": np.__version__, "scipy": importlib.metadata.version("scipy")},
        "args": {"command": args.command, **{k: getattr(args, k) for k in args.echo}},
        "config_hash": config_hash(cfg),
        "config": json.loads(serialize_config(cfg)),
    }
    outdir = Path(args.output).absolute()
    # the writes after the run make outdir: a file at or above it would fail
    # them, so fail before the run, creating nothing
    nearest = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigurationError(f"{nearest} is not a directory", path="output")
    tables = args.func(cfg, args)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = [head]
    for kind, rows in tables.items():
        if kind == "checkpoint":
            names = [p.name for p in rows]
        else:
            names = [f"{kind}.csv"]
            with open(outdir / names[0], "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([_cell(x) for x in row] for row in rows)
        manifest += [{"kind": kind, "path": name, "config_hash": head["config_hash"]}
                     for name in names]
    with open(outdir / "manifest.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in manifest)
    return EXIT_OK


def cmd_simulate(cfg, args) -> dict:
    ids = cfg.norm_ids()  # no tracked norm fails before any step or write
    observer = norm_observer(cfg.q_list, cfg.s_list_u, cfg.s_list_b)
    if args.resume:
        # run checks the grid and the checkpoint time against the config
        initial, gamma_ck = load_checkpoint(args.resume)
        # relative to the larger gamma, so that gamma = 0 matches 0 only
        if abs(gamma_ck - cfg.gamma) > 1e-15 * max(abs(gamma_ck), abs(cfg.gamma)):
            raise ConfigurationError(
                f"checkpoint gamma {gamma_ck} does not match config gamma {cfg.gamma}",
                path="physics.gamma",
            )
    else:
        initial = make_initial_data(cfg.family, cfg.params, cfg.grid)

    outdir, ck_paths = Path(args.output), []

    def sink(state):
        p = outdir / f"checkpoint_t{state.t:012.6f}.mhdw"
        outdir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(p, state, cfg.gamma)
        ck_paths.append(p)

    traj = run(cfg, initial, observer,
               checkpoint_every=args.checkpoint_every, checkpoint_sink=sink)
    rows = [["t", *ids]] + [[t, *(snap[k] for k in ids)]
                            for t, snap in zip(traj.times, traj.snapshots)]
    return {"series": rows, "checkpoint": ck_paths}


def cmd_sweep(cfg, args) -> dict:
    sweep = gamma_prefactor_scan(args.gammas, cfg)
    ids = cfg.norm_ids()
    rows = [["gamma", "norm_id", "exponent", "theory", "r2", "prefactor", "final_value"]]
    for g, res in sweep.items():
        for nid in ids:
            c = res.comparison(nid)
            rows.append([g, nid, c.fit.exponent, c.theory.exponent if c.theory else "",
                         c.fit.r2, np.exp(c.fit.log_prefactor),
                         res.trajectory.series(nid)[-1]])
    # prefactor curve per tracked norm, for offline plotting
    curve = [["norm_id", *sweep]]
    for nid in ids:
        curve.append([nid, *(np.exp(res.comparison(nid).fit.log_prefactor)
                             for res in sweep.values())])
    return {"sweep": rows, "prefactor_curve": curve}


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
    if len(header) < 2:
        raise DataError(f"series {path} has no norm column after t")
    if len(body) < 2 or data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        raise DataError(f"series {path} needs >= 2 rows of {len(header)} finite numbers")
    return header, data


def cmd_fit_decay(cfg, args) -> dict:
    header, data = _read_series(args.series)
    t = data[:, 0]
    window = cfg.window if cfg.window else default_fit_window(float(t[-1]), cfg.grid)
    rows = [["norm_id", "exponent", "theory", "delta", "r2", "window_lo", "window_hi"]]
    for j, nid in enumerate(header[1:], start=1):
        fit = _fit_norm(nid, zip(t, data[:, j]), window)
        try:
            theory = theory_rate(nid, cfg.m)  # same pairing as the live experiment
        except DomainError:
            theory = None
        cells = ["", ""] if theory is None else [theory.exponent, fit.exponent - theory.exponent]
        rows.append([nid, fit.exponent, *cells, fit.r2, *window])
    return {"fit_summary": rows}


def cmd_verify_kernels(cfg, args) -> dict:
    if why := _gamma_refusal(cfg.gamma):  # gamma = 0 has no damped-wave kernels
        raise ConfigurationError(why, path="physics.gamma")
    header = ["bound_id", "gamma", "theta", "C_emp", "n_samples"]
    return {kind: [header] + [[r.bound_id, r.gamma, r.theta, r.c_emp, r.n_samples]
                              for r in verify_kernel_bounds(cfg.gamma, refine)]
            for kind, refine in (("kernel_bounds", 1), ("kernel_bounds_refined", 2))}


def cmd_verify_lemmas(cfg, args) -> dict:
    report = verify_expintegral()
    header = ["case", "regime", "R", "kappa", "t", "lhs", "rhs_shape", "C_emp"]
    tables = {f"expintegral_{ineq}": [header] for ineq in ("p-1", "p-2", "p-3")}
    for r in report.rows:
        tables[f"expintegral_{r.ineq}"].append(
            [r.ineq, r.regime, r.R, r.kappa, r.t, r.lhs, r.rhs_shape, r.ratio])
    stable = report.stable()
    rows = [["case", "regime", "C_emp", "C_emp_refined", "stable_1pct"]]
    for key, v in sorted(report.c_emp.items()):
        rows.append([*key, v, report.c_emp_refined[key], stable])
    return {**tables, "expintegral_summary": rows}


def cmd_compare_mhd(cfg, args) -> dict:
    gs, errs = singular_limit_experiment(args.gammas, args.T, cfg)
    rows = [["gamma", "error", "ratio_to_previous"]]
    for i, (g, e) in enumerate(zip(gs, errs)):
        # no ratio for the first row, nor after a zero error
        rows.append([g, e, e / errs[i - 1] if i and errs[i - 1] else ""])
    return {"singular_limit": rows}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdwave",
        description="Damped wave-type MHD pseudo-spectral simulator and verification harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, echo=()):
        """A subparser with the shared flags; ``echo`` names the arguments
        the manifest records besides the command."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, echo=echo)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", default="out", help="directory to write to (default: out)")
        p.add_argument("--seed", type=_integer_arg("seed", 0), help="seed override")
        return p

    p = command("simulate", cmd_simulate, "run one simulation, emit the norm series")
    p.add_argument("--resume", help="checkpoint file to continue from")
    p.add_argument("--checkpoint-every", type=_integer_arg("checkpoint_every", 1),
                   help="write a checkpoint every N steps (N >= 1)")

    p = command("sweep", cmd_sweep, "gamma sweep of the decay experiment", ("gammas",))
    p.add_argument("--gammas", type=_gamma_list, default="0.25,0.5,1.0",
                   help="comma-separated gamma list")

    p = command("fit-decay", cmd_fit_decay, "fit power laws to an existing series CSV",
                ("series",))
    p.add_argument("series", help="series CSV produced by simulate")

    command("verify-kernels", cmd_verify_kernels, "empirical kernel-bound constants")
    command("verify-lemmas", cmd_verify_lemmas, "exponential-integral inequality constants")

    p = command("compare-mhd", cmd_compare_mhd, "singular-limit comparison against gamma = 0",
                ("gammas", "T"))
    p.add_argument("--gammas", type=_gamma_list, default="0.1,0.05,0.025")
    p.add_argument("--T", type=float, default=5.0)
    return parser


def main(argv=None) -> int:
    try:
        return _emit(build_parser().parse_args(argv))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        print(json.dumps({"error": "configuration", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, StepSizeError) as exc:
        print(json.dumps({"error": "solver", "message": str(exc),
                          "t": getattr(exc, "t", None)}), file=sys.stderr)
        return EXIT_SOLVER
    except (MhdWaveError, OSError) as exc:  # OSError: a failed write
        print(json.dumps({"error": "data", "message": str(exc)}), file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
