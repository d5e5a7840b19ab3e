#!/usr/bin/env python3
"""hopfieldkit benchmark: four recall workloads, drift-corrected, with a traced run.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the library is imported from the
checkout's src/. With --trace 0 a workload reports its end-to-end metrics
(setup_s, recalls_per_s, peak_rss_mib). With --trace 1 the traced run
covers all four workloads, each split into an untraced and a traced half,
and reports the per-layer metrics plus the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Details go to bench_out/ at the checkout root. See bench/README.md.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread. numpy is first imported after this, by the benchmark's modules.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT_DIR = CHECKOUT / "bench_out"
DEFAULT_SEED = 1
SETUP_BLOCKS = 9
WORKLOAD_NAMES = ("curve-inversion", "curve-iterative", "recall-d400", "quantum-d16")


def _import_library():
    if not (SRC / "hopfieldkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no hopfieldkit sources at {SRC}; run inside a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import hopfieldkit
    if Path(hopfieldkit.__file__).resolve().parent != SRC / "hopfieldkit":
        raise SystemExit(f"error: hopfieldkit imported from {hopfieldkit.__file__}, not {SRC}")


def measure_setup(wl, blocks: int, root=None):
    """Drift-corrected median time of one fresh set-up; returns (state, [Block])."""
    import drift

    def fresh():
        state = None
        for _ in range(wl.setups_per_block):
            if root is None:
                state = wl.setup()
            else:
                with root():
                    state = wl.setup()
        return state

    out = []
    state = None
    for _ in range(blocks):
        state, block = drift.timed_block(fresh, wl.setups_per_block)
        out.append(block)
    return state, out


def measure_rounds(wl, state, seconds: float, first=None, root=None, on_block=None):
    """Whole rounds for `seconds` (at least one); returns (rounds, outputs, failed).

    Each step of a round is a timed block with its own reference, and a
    round's time is the sum of its steps' times. The first
    round's outputs are checked; a later round must reproduce them, or it
    is checked in turn.
    """
    import drift

    def traced(step):
        with root():
            return step()

    rounds, outs, failed = [], [], 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        out, blocks = [], []
        for step in wl.steps(state):
            result, block = drift.timed_block(step if root is None
                                              else functools.partial(traced, step))
            if on_block is not None:
                on_block(block)
            out.append(result)
            blocks.append(block)
        if first is None:
            first = out
            failed += wl.failed(state, out)
        elif not wl.same(out, first):
            failed += wl.failed(state, out)
        rounds.append(drift.Round(tuple(blocks), wl.recalls_per_round))
        outs.append(out)
    return rounds, outs, failed


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(name: str, seed: int, seconds: float) -> dict:
    import drift
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    state, setup_blocks = measure_setup(wl, SETUP_BLOCKS)
    wl.warmup(state)
    rounds, _, failed = measure_rounds(wl, state, seconds)
    attempted = len(rounds) * wl.recalls_per_round
    recalls_per_s, raw_recalls_per_s = drift.round_rate(rounds)
    metrics = {
        "setup_s": {"value": statistics.median([b.corrected_s / b.work for b in setup_blocks]), "unit": "s"},
        "recalls_per_s": {"value": recalls_per_s, "unit": "1/s"},
        "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
    }
    raw = {
        "setup_s": statistics.median([b.raw_s / b.work for b in setup_blocks]),
        "recalls_per_s": raw_recalls_per_s,
        "reference_s": statistics.median([b.reference_s for b in setup_blocks]
                               + [b.reference_s for r in rounds for b in r.blocks]),
    }
    print(f"{name}  seed={seed}  rounds={len(rounds)} x {wl.recalls_per_round} recalls  "
          f"attempted={attempted} failed={failed}")
    for key in ("setup_s", "recalls_per_s"):
        print(f"  {key:<14} {metrics[key]['value']:.6g} {metrics[key]['unit']:<4} "
              f"(raw {raw[key]:.6g}, reference median {raw['reference_s']:.4g} s)")
    print(f"  {'peak_rss_mib':<14} {metrics['peak_rss_mib']['value']:.6g} MiB")
    detail = {"workload": name, "seed": seed, "trace": 0, "raw": raw,
              "setup_blocks": [vars(b) for b in setup_blocks],
              "rounds": [[vars(b) for b in r.blocks] for r in rounds]}
    _write(f"{name}-seed{seed}-trace0.json", detail)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_traced(named: str, seed: int, seconds: float) -> dict:
    """All four workloads: an untraced half, then a traced half, each with its checks."""
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    share = seconds / len(WORKLOADS)
    per_workload = {}
    attempted = failed = 0
    for name, cls in WORKLOADS.items():
        wl = cls(seed)
        state = wl.setup()
        wl.warmup(state)
        plain, first_outs, plain_failed = measure_rounds(wl, state, share / 2)
        traced_agg = {}

        def on_block(block):
            for key, value in tracer.take(block.scale).items():
                traced_agg[key] = traced_agg.get(key, 0.0) + value

        tracer.install()
        try:
            tracer.take()
            _, setup_blocks = measure_setup(wl, 1, root=tracer.root)
            setup_agg = tracer.take(setup_blocks[0].scale)
            traced, outs, traced_failed = measure_rounds(wl, state, share / 2,
                                                         first=first_outs[0],
                                                         root=tracer.root, on_block=on_block)
        finally:
            tracer.uninstall()
        attempted += (len(plain) + len(traced)) * wl.recalls_per_round
        failed += plain_failed + traced_failed
        per_workload[name] = layers.WorkloadTrace(
            name=name, recalls_per_round=wl.recalls_per_round,
            untraced=plain, traced=traced, setup_calls=len(setup_blocks) * wl.setups_per_block,
            setup=setup_agg, layers=traced_agg, quality=wl.quality(outs),
            recall_results=tracer.recalls)
        tracer.recalls = []
    for wt in per_workload.values():
        layers.print_breakdown(wt)
    metrics = layers.per_layer_metrics(per_workload, named)
    detail = {"workload": named, "seed": seed, "trace": 1,
              "workloads": {n: layers.summary(wt) for n, wt in per_workload.items()},
              "metrics": metrics}
    _write(f"{named}-seed{seed}-trace1.json", detail)
    tracer.dump(OUT_DIR / f"spans-{named}-seed{seed}.jsonl")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in its own process (peak memory is per process); metrics keyed name/metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    return merged


def _write(filename: str, payload) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / filename, "w") as fh:
        json.dump(payload, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_library()
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
    elif args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_timed(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
