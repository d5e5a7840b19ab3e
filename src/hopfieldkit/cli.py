"""Command-line front end: train, recall, experiments, quantum cross-check."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .experiments import (
    ExperimentConfig,
    ingest,
    run_gamma_sweep,
    run_quantum_crosscheck,
    run_recovery_curve,
    write_points_csv,
)
from .hebbian import save_matrix_csv, spectral_norm, train
from .inversion import assemble, solve
from .iterative import recall
from .patterns import ClampSet, as_pattern, load_pattern_lines
from .quantum.solver import qhop_recall


def _parse_grid(text: str) -> tuple[int, ...]:
    """Accept "a:b" (inclusive range) or a comma-separated list."""
    text = text.strip()
    if ":" in text:
        lo_s, _, hi_s = text.partition(":")
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None


def _parse_float_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from None


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default=None,
                   help="training data file (default: bundled fixture)")
    p.add_argument("--format", default="fasta", dest="data_format",
                   choices=["fasta", "patterns", "synthetic"],
                   help="how to read --data")
    p.add_argument("--d", type=int, default=100, help="neurons per pattern")
    p.add_argument("--m", type=int, default=8, help="stored patterns")
    p.add_argument("--seed", type=int, default=0, help="base random seed")


def _config_from(args, l_grid=(1,)) -> ExperimentConfig:
    return ExperimentConfig(
        l_grid=l_grid, d=args.d, m=args.m,
        reps=getattr(args, "reps", 1),
        gamma=getattr(args, "gamma", 1.0),
        mu=getattr(args, "mu", 0.0),
        method=getattr(args, "method", "inversion"),
        seed=args.seed, data=args.data, data_format=args.data_format,
        units=getattr(args, "units", "bases"),
        fill=getattr(args, "fill", "plus"),
        max_sweeps=getattr(args, "max_sweeps", 50),
        t_qubits=getattr(args, "t_phase", 9),
    )


def _cmd_train(args) -> int:
    cfg = _config_from(args)
    ts = ingest(cfg)
    wm = train(ts)
    save_matrix_csv(args.out, wm)
    print(f"trained m={ts.m} patterns, d={ts.d}; "
          f"spectral norm {spectral_norm(wm):.6g}; wrote {args.out}")
    return 0


def _load_probe(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = load_pattern_lines(fh.read().splitlines(), path)
    if rows.shape[0] != 1:
        raise ValueError(f"{path}: expected a single probe line, found {rows.shape[0]}")
    return rows[0]


def _cmd_recall(args) -> int:
    cfg = _config_from(args)
    ts = ingest(cfg)
    wm = train(ts)
    probe = _load_probe(args.pattern)
    if probe.size != ts.d:
        raise ValueError(f"probe has {probe.size} entries, trained d={ts.d}")
    if args.method == "iterative":
        trace = recall(wm, probe, rng_seed=args.seed,
                       max_sweeps=args.max_sweeps, fill=args.fill)
        final = trace.final
        print(f"converged={trace.converged} sweeps={trace.sweeps} "
              f"energy={trace.energies[-1]:.10g}", file=sys.stderr)
    else:
        known = tuple(int(i) + 1 for i in np.flatnonzero(probe))
        if not known:
            raise ValueError("probe clamps nothing: every entry is zero")
        clamp = ClampSet(known, probe)
        if args.method == "inversion":
            report = solve(assemble(wm, clamp, gamma=args.gamma), mu=args.mu)
            final = report.discretized
            print(f"eta={report.eta:.6g} kept={report.kept} "
                  f"certified={report.minimum_certified}", file=sys.stderr)
        else:
            final, qrep = qhop_recall(ts, clamp, gamma=args.gamma, mu=args.mu,
                                      t_qubits=args.t_phase, trace_path=args.trace)
            print(f"success_p={qrep.success_probability:.6g} "
                  f"post_p={qrep.post_selection_probability:.6g} "
                  f"phase_residual={qrep.phase_residual:.3g}", file=sys.stderr)
    line = " ".join(str(int(v)) for v in as_pattern(final, allow_unknown=False))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return 0


def _cmd_curve(args) -> int:
    cfg = _config_from(args, l_grid=args.l_grid)
    points = run_recovery_curve(cfg)
    if args.out:
        write_points_csv(points, args.out, "l")
        print(f"wrote {len(points)} points to {args.out}")
    else:
        write_points_csv(points, sys.stdout, "l")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from(args, l_grid=args.l_grid)
    points = run_gamma_sweep(cfg, args.gamma_grid)
    if args.out:
        write_points_csv(points, args.out, "gamma")
        print(f"wrote {len(points)} points to {args.out}")
    else:
        write_points_csv(points, sys.stdout, "gamma")
    return 0


def _cmd_qcheck(args) -> int:
    rows = run_quantum_crosscheck(d=args.d, n_seeds=args.seeds, gamma=args.gamma,
                                  mu=args.mu, t_qubits=args.t_phase,
                                  seed=args.seed, mode=args.mode)
    print("seed  fidelity  post_p    expected  residual  status")
    for r in rows:
        status = "pass" if r["passed"] else f"FAIL ({r['message']})" if r["message"] else "FAIL"
        print(f"{r['seed']:>4}  {r['fidelity']:.6f}  {r['post_selection_probability']:.6f}"
              f"  {r['expected_post_selection']:.6f}  {r['phase_residual']:.2e}  {status}")
    failed = [r for r in rows if not r["passed"]]
    if failed:
        print(f"FAIL: {len(failed)}/{len(rows)} instances out of tolerance")
        return 1
    print(f"PASS: all {len(rows)} instances within tolerance")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfieldkit",
        description="Hebbian pattern storage with iterative, inversion-based, "
                    "and simulated-quantum recall.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train weights and write them as CSV")
    _add_data_args(p_train)
    p_train.add_argument("--out", required=True, help="output matrix CSV")
    p_train.set_defaults(func=_cmd_train)

    p_recall = sub.add_parser("recall", help="recover a pattern from a partial probe")
    _add_data_args(p_recall)
    p_recall.add_argument("--pattern", required=True,
                          help="probe file: one line of -1/0/1 (0 = unknown)")
    p_recall.add_argument("--method", default="inversion",
                          choices=["iterative", "inversion", "quantum"])
    p_recall.add_argument("--gamma", type=float, default=1.0)
    p_recall.add_argument("--mu", type=float, default=0.0)
    p_recall.add_argument("--max-sweeps", type=int, default=50)
    p_recall.add_argument("--fill", default="plus", choices=["plus", "random"])
    p_recall.add_argument("--t-phase", type=int, default=9,
                          help="phase-register qubits (quantum method)")
    p_recall.add_argument("--trace", default=None,
                          help="CSV trace of quantum intermediate states")
    p_recall.add_argument("--out", default=None, help="write result here instead of stdout")
    p_recall.set_defaults(func=_cmd_recall)

    p_exp = sub.add_parser("experiment", help="run the measurement harness")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    p_curve = exp_sub.add_parser("recovery-curve",
                                 help="mean recall error vs clamped information")
    _add_data_args(p_curve)
    p_curve.add_argument("--l-grid", type=_parse_grid, default=tuple(range(1, 51)),
                         help='known-unit grid, "a:b" or comma list (default 1:50)')
    p_curve.add_argument("--units", default="bases", choices=["bases", "neurons"])
    p_curve.add_argument("--reps", type=int, default=1000)
    p_curve.add_argument("--gamma", type=float, default=1.0)
    p_curve.add_argument("--mu", type=float, default=0.0)
    p_curve.add_argument("--method", default="inversion",
                         choices=["iterative", "inversion", "quantum"])
    p_curve.add_argument("--fill", default="plus", choices=["plus", "random"])
    p_curve.add_argument("--max-sweeps", type=int, default=50)
    p_curve.add_argument("--t-phase", type=int, default=9)
    p_curve.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_curve.set_defaults(func=_cmd_curve)

    p_sweep = exp_sub.add_parser("gamma-sweep",
                                 help="recall error vs regularization at fixed l")
    _add_data_args(p_sweep)
    p_sweep.add_argument("--l-grid", type=_parse_grid, default=(25,),
                         help="single known-unit count (default 25 bases)")
    p_sweep.add_argument("--units", default="bases", choices=["bases", "neurons"])
    p_sweep.add_argument("--reps", type=int, default=1000)
    p_sweep.add_argument("--gamma-grid", type=_parse_float_grid,
                         default=(0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0),
                         help="comma-separated gamma values")
    p_sweep.add_argument("--mu", type=float, default=0.0)
    p_sweep.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_sweep.set_defaults(func=_cmd_sweep, method="inversion")

    p_q = sub.add_parser("qcheck",
                         help="cross-check the quantum pipeline against the "
                              "classical truncated solve")
    p_q.add_argument("--d", type=int, default=2, help="neurons (desk scale, <= 4)")
    p_q.add_argument("--seeds", type=int, default=10, help="number of seeded instances")
    p_q.add_argument("--gamma", type=float, default=1.0)
    p_q.add_argument("--mu", type=float, default=0.05)
    p_q.add_argument("--t-phase", type=int, default=9)
    p_q.add_argument("--mode", default="reference", choices=["reference", "trotter"])
    p_q.add_argument("--seed", type=int, default=0)
    p_q.set_defaults(func=_cmd_qcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
