"""Per-layer figures from the traced run: breakdown tables and the per-layer metrics.

Each per-layer metric is read on the workload where its layer does its
work (the map in README.md); linalg.time_per_recall_s is read on the
workload the run was named for. Times are drift-corrected block by block,
like the end-to-end figures.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import drift
from tracing import EIGENSOLVES, FACTORIZATIONS, ROOT


@dataclass
class WorkloadTrace:
    name: str
    recalls_per_round: int
    untraced: list  # drift.Round per untraced round
    traced: list  # drift.Round per traced round
    setup_calls: int
    setup: dict  # tracer.aggregate over the traced set-ups, drift-corrected
    layers: dict  # tracer.aggregate over the traced rounds, drift-corrected
    quality: dict = field(default_factory=dict)
    recall_results: list = field(default_factory=list)

    @property
    def traced_recalls(self) -> int:
        return len(self.traced) * self.recalls_per_round

    def per_recall(self, key: str) -> float:
        return self.layers.get(key, 0.0) / self.traced_recalls

    def recall_s(self) -> float:
        """Drift-corrected wall time per traced recall."""
        return sum(b.corrected_s for b in self.traced) / self.traced_recalls

    def rates(self) -> tuple[float, float]:
        """(untraced, traced) drift-corrected recalls per second."""
        return drift.round_rate(self.untraced)[0], drift.round_rate(self.traced)[0]

    def layer_times(self) -> dict:
        """Seconds per recall by layer; the root's own share is the remainder."""
        return {k: v / self.traced_recalls for k, v in self.layers.items()
                if not k.startswith(("count:", "linalg"))}


def _linalg_under(wt: WorkloadTrace, caller: str) -> float:
    prefix = f"linalg.under:{caller}:"
    return sum(v for k, v in wt.layers.items() if k.startswith(prefix))


def _count(wt: WorkloadTrace, names) -> float:
    return sum(wt.layers.get(f"count:linalg.{n}", 0.0) for n in names)


def per_layer_metrics(wts: dict, named: str) -> dict:
    inv = wts["curve-inversion"]
    it = wts["curve-iterative"]
    d4 = wts["recall-d400"]
    q = wts["quantum-d16"]
    setup = d4.setup
    sweeps = [r.sweeps for r in it.recall_results]
    unconverged = sum(not r.converged for r in it.recall_results)
    values = {
        "experiments.ingest_s": (setup["experiments.ingest"]
                                 / setup["count:experiments.ingest"], "s"),
        "hebbian.train_s": (setup["hebbian.train"] / setup["count:hebbian.train"], "s"),
        "experiments.trial_overhead_s": (
            (inv.layers["experiments.run_trial"] - _linalg_under(inv, "experiments.run_trial"))
            / inv.traced_recalls, "s"),
        "inversion.reduced_solve_s": (
            inv.per_recall("linalg.under:experiments.run_trial:solve"), "s"),
        "inversion.fallbacks": (inv.layers.get("count:inversion.fallback", 0.0)
                                / len(inv.traced), "count"),
        "inversion.assemble_s": (d4.per_recall("inversion.assemble"), "s"),
        "inversion.solve_s": (d4.per_recall("inversion.solve"), "s"),
        "inversion.certify_s": (d4.per_recall("inversion.certify"), "s"),
        "linalg.eigensolves_per_recall": (_count(d4, EIGENSOLVES) / d4.traced_recalls, "count"),
        "linalg.factorizations_per_recall": (_count(d4, FACTORIZATIONS) / d4.traced_recalls,
                                             "count"),
        "iterative.recall_s": (it.per_recall("iterative.recall"), "s"),
        "iterative.sweeps_per_recall": (statistics.fmean(sweeps), "count"),
        "iterative.unconverged": (unconverged / len(it.traced), "count"),
        "quantum.evolution_build_s": (q.per_recall("quantum.evolution_build"), "s"),
        "quantum.evolve_s": (q.per_recall("quantum.evolve"), "s"),
        "quantum.powers_s": (q.per_recall("quantum.powers"), "s"),
        "quantum.qpe_forward_s": (q.per_recall("quantum.qpe_forward"), "s"),
        "quantum.qpe_backward_s": (q.per_recall("quantum.qpe_backward"), "s"),
        "quantum.solver_self_s": (q.per_recall("quantum.solver"), "s"),
        "quantum.success_probability_min": (q.quality["quantum.success_probability_min"],
                                            "fraction"),
        "quantum.phase_residual_max": (q.quality["quantum.phase_residual_max"], "fraction"),
    }
    if named == "all":
        for name, wt in wts.items():
            values[f"{name}/linalg.time_per_recall_s"] = (wt.per_recall("linalg"), "s")
    else:
        values["linalg.time_per_recall_s"] = (wts[named].per_recall("linalg"), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def summary(wt: WorkloadTrace) -> dict:
    untraced, traced = wt.rates()
    return {
        "recalls_per_round": wt.recalls_per_round,
        "untraced_rounds": len(wt.untraced),
        "traced_rounds": len(wt.traced),
        "untraced_recalls_per_s": untraced,
        "traced_recalls_per_s": traced,
        "tracing_overhead": untraced / traced - 1.0,
        "recall_s": wt.recall_s(),
        "layer_s_per_recall": wt.layer_times(),
        "linalg_s_per_recall": wt.per_recall("linalg"),
        "setup_calls": wt.setup_calls,
        "setup_s_per_call": {k: v / wt.setup_calls for k, v in wt.setup.items()
                             if not k.startswith(("count:", "linalg"))},
        "quality": wt.quality,
    }


def print_breakdown(wt: WorkloadTrace) -> None:
    s = summary(wt)
    print(f"{wt.name}: untraced {s['untraced_recalls_per_s']:.6g}/s over "
          f"{s['untraced_rounds']} rounds, traced {s['traced_recalls_per_s']:.6g}/s over "
          f"{s['traced_rounds']} rounds of {wt.recalls_per_round} recalls: "
          f"tracing overhead {100 * s['tracing_overhead']:+.1f}%")
    total = s["recall_s"]
    times = s["layer_s_per_recall"]
    for layer, value in sorted(times.items(), key=lambda kv: -kv[1]):
        label = "remainder (outside any wrapped name)" if layer == ROOT else layer
        print(f"  {label:<40} {value:11.4e} s/recall {100 * value / total:6.1f}%")
    accounted = sum(times.values())
    print(f"  {'sum of layers':<40} {accounted:11.4e} s/recall {100 * accounted / total:6.1f}% "
          f"of the timed recall {total:.4e} s")
    print(f"  {'of which LAPACK (numpy.linalg)':<40} {s['linalg_s_per_recall']:11.4e} s/recall "
          f"{100 * s['linalg_s_per_recall'] / total:6.1f}%")
