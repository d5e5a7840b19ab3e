"""Command-line front end: train, recall, experiments, quantum cross-check."""
from __future__ import annotations

import argparse
import inspect
import sys
import warnings

import numpy as np

from .experiments import (FORMATS, METHODS, UNITS, ExperimentConfig, ingest, run_gamma_sweep,
                          run_quantum_crosscheck, run_recovery_curve, write_points_csv)
from .hebbian import save_matrix_csv, spectral_norm, train
from .inversion import assemble, solve
from .iterative import FILLS, recall
from .patterns import ClampSet, as_pattern, load_patterns
from .quantum.solver import MODES, qhop_recall


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


# Every flag that feeds ExperimentConfig or run_quantum_crosscheck, declared
# once. An absent flag stays out of the namespace, so the library's default
# applies; dests are the library's parameter names.
_FLAGS = {
    "--data": dict(help="training data file (default: bundled fixture)"),
    "--format": dict(dest="data_format", choices=FORMATS, help="how to read --data"),
    "--d": dict(type=int, help="neurons per pattern"),
    "--m": dict(type=int, help="stored patterns"),
    "--seed": dict(type=int, help="base random seed"),
    "--method": dict(choices=METHODS),
    "--gamma": dict(type=float),
    "--mu": dict(type=float),
    "--max-sweeps": dict(type=int),
    "--fill": dict(choices=FILLS),
    "--t-phase": dict(type=int, dest="t_qubits", metavar="T_PHASE",
                      help="phase-register qubits (quantum method)"),
    "--units": dict(choices=UNITS),
    "--reps": dict(type=int),
    "--seeds": dict(type=int, dest="n_seeds", metavar="SEEDS",
                    help="number of seeded instances"),
    "--mode": dict(choices=MODES),
}
_DATA_FLAGS = ("--data", "--format", "--d", "--m", "--seed")
_ENGINE_FLAGS = ("--method", "--gamma", "--mu", "--max-sweeps", "--fill", "--t-phase")


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, default=argparse.SUPPRESS, **_FLAGS[flag])


def _given(args, target) -> dict:
    """The flags given on the command line that name a parameter of target."""
    params = inspect.signature(target).parameters
    return {k: v for k, v in vars(args).items() if k in params}


def _config_from(args, **fixed) -> ExperimentConfig:
    return ExperimentConfig(**_given(args, ExperimentConfig), **fixed)


def _cmd_train(args) -> int:
    # train and recall read a store and clamp neurons, not bases; l plays no part
    cfg = _config_from(args, l_grid=(1,), units="neurons")
    ts = ingest(cfg)
    wm = train(ts)
    save_matrix_csv(args.out, wm)
    print(f"trained m={ts.m} patterns, d={ts.d}; "
          f"spectral norm {spectral_norm(wm):.6g}; wrote {args.out}")
    return 0


def _load_probe(path: str) -> np.ndarray:
    rows = load_patterns(path)
    if rows.shape[0] != 1:
        raise ValueError(f"{path}: expected a single probe line, found {rows.shape[0]}")
    return rows[0]


def _cmd_recall(args) -> int:
    cfg = _config_from(args, l_grid=(1,), units="neurons")
    ts = ingest(cfg)
    wm = train(ts)
    probe = _load_probe(args.pattern)
    if probe.size != ts.d:
        raise ValueError(f"probe has {probe.size} entries, trained d={ts.d}")
    if cfg.method == "iterative":
        trace = recall(wm, probe, rng_seed=cfg.seed,
                       max_sweeps=cfg.max_sweeps, fill=cfg.fill)
        final = trace.final
        print(f"converged={trace.converged} sweeps={trace.sweeps} "
              f"energy={trace.energies[-1]:.10g}", file=sys.stderr)
    else:
        clamp = ClampSet(probe)
        if cfg.method == "inversion":
            report = solve(assemble(wm, clamp, gamma=cfg.gamma), mu=cfg.mu)
            final = report.discretized
            print(f"eta={report.eta:.6g} kept={report.kept} "
                  f"certified={report.minimum_certified}", file=sys.stderr)
        else:
            final, qrep = qhop_recall(ts, clamp, gamma=cfg.gamma, mu=cfg.mu,
                                      t_qubits=cfg.t_qubits, trace_path=args.trace)
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


def _cmd_points(args) -> int:
    """A recovery curve (label "l") or a gamma sweep (label "gamma") as CSV."""
    cfg = _config_from(args)
    points = (run_recovery_curve(cfg) if args.label == "l"
              else run_gamma_sweep(cfg, args.gamma_grid))
    write_points_csv(points, args.out or sys.stdout, args.label)
    if args.out:
        print(f"wrote {len(points)} points to {args.out}")
    return 0


def _cmd_qcheck(args) -> int:
    rows = run_quantum_crosscheck(**_given(args, run_quantum_crosscheck))
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
    _add_flags(p_train, *_DATA_FLAGS)
    p_train.add_argument("--out", required=True, help="output matrix CSV")
    p_train.set_defaults(func=_cmd_train)

    p_recall = sub.add_parser("recall", help="recover a pattern from a partial probe")
    _add_flags(p_recall, *_DATA_FLAGS, *_ENGINE_FLAGS)
    p_recall.add_argument("--pattern", required=True,
                          help="probe file: one line of -1/0/1 (0 = unknown)")
    p_recall.add_argument("--trace", default=None,
                          help="CSV trace of quantum intermediate states")
    p_recall.add_argument("--out", default=None, help="write result here instead of stdout")
    p_recall.set_defaults(func=_cmd_recall)

    p_exp = sub.add_parser("experiment", help="run the measurement harness")
    exp_sub = p_exp.add_subparsers(dest="experiment", required=True)

    def points_parser(name, summary, label, l_grid, l_help):
        p = exp_sub.add_parser(name, help=summary)
        _add_flags(p, *_DATA_FLAGS, "--units", "--reps")
        p.add_argument("--l-grid", type=_parse_grid, default=l_grid, help=l_help)
        p.add_argument("--out", default=None, help="output CSV (default stdout)")
        p.set_defaults(func=_cmd_points, label=label)
        return p

    p_curve = points_parser("recovery-curve", "mean recall error vs clamped information",
                            "l", tuple(range(1, 51)),
                            'known-unit grid, "a:b" or comma list (default 1:50)')
    _add_flags(p_curve, *_ENGINE_FLAGS)

    p_sweep = points_parser("gamma-sweep", "recall error vs regularization at fixed l",
                            "gamma", (25,), "single known-unit count (default 25 bases)")
    p_sweep.add_argument("--gamma-grid", type=_parse_float_grid,
                         default=(0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0),
                         help="comma-separated gamma values")
    _add_flags(p_sweep, "--mu")

    p_q = sub.add_parser("qcheck",
                         help="cross-check the quantum pipeline against the "
                              "classical truncated solve")
    _add_flags(p_q, "--d", "--seeds", "--gamma", "--mu", "--t-phase", "--mode", "--seed")
    p_q.set_defaults(func=_cmd_qcheck)

    return parser


def main(argv=None) -> int:
    """Run one command; its warnings print as "warning: ..." lines once it returns.

    A failure prints one "error: ..." line and returns 1; a warning that
    the error message repeats, such as a failed quantum run's, is dropped.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except (ValueError, OSError, RuntimeError, MemoryError) as exc:
            error, code = str(exc) or "out of memory", 1
    for w in caught:
        if error is None or str(w.message) not in error:
            print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
