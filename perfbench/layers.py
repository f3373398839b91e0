"""Per-layer metrics from the spans of one traced pass.

The layers are the modules of ``src/kslab``.  A span's self time is its
duration minus the durations of its direct child spans (one job runs on
one thread, so children never overlap).  ``PREDICTIONS`` records, for
each layer metric, the end-to-end metric it should move and on which
workload; ``None`` marks a count that moves nothing by itself.  No
hv_oracle metric should change on ``ingest``, which does not call it.
"""

from __future__ import annotations

from collections import defaultdict

# Per-layer metric -> (unit, end-to-end metric it should move, workload).
PREDICTIONS: dict[str, tuple[str, str | None, str | None]] = {
    "cli.process_s": ("s", "setup_s", "every workload"),
    "cli.self_s": ("s", "wall_s", "evaluate"),
    "cli.jobs": ("count", "wall_s", "evaluate"),
    "cli.exit_nonzero": ("count", "wall_s", "evaluate"),
    "pauli.pauli_mul.calls": ("count", "wall_s", "evaluate"),
    "pauli.pauli_mul.s": ("s", "wall_s", "evaluate"),
    "pauli.verify_sum_identities.s": ("s", "wall_s", "evaluate"),
    "pauli.from_text.calls": ("count", "wall_s", "ingest"),
    "pauli.from_text.s": ("s", "wall_s", "ingest"),
    "pauli.lambda_element.calls": ("count", "wall_s", "ingest"),
    "pauli.lambda_element.s": ("s", "wall_s", "ingest"),
    "states.f_value.analytic.s": ("s", "wall_s,peak_rss_mb", "evaluate"),
    "states.f_value.dense.s": ("s", "wall_s", "ingest"),
    "states.read_dense_state.s": ("s", "wall_s", "ingest"),
    "states.read_dense_state.mb_per_s": ("MB/s", "wall_s", "ingest"),
    "states.f_value.calls": ("count", None, None),
    "states.expectation.calls": ("count", None, None),
    "inequalities.self_s": ("s", "wall_s", "evaluate"),
    "hv_oracle.scan.s": ("s", "wall_s,cpu_s", "sweep"),
    "hv_oracle.scan.rate": ("1/s", "wall_s,cpu_s", "sweep"),
    "hv_oracle.workers": ("count", "wall_s,cpu_s", "sweep"),
    "hv_oracle.cross_check.s": ("s", "wall_s,peak_rss_mb", "sweep"),
    "hv_oracle.cross_checked": ("count", "wall_s,peak_rss_mb", "sweep"),
    "hv_oracle.verify_hvkn.s": ("s", "wall_s,peak_rss_mb", "sweep"),
    "hv_oracle.bruteforce_report.s": ("s", "wall_s", "sweep"),
    "hv_oracle.assignments": ("count", "wall_s", "sweep"),
    "hv_oracle.hvkn.checked": ("count", "wall_s", "sweep"),
    "fine_model.build_model.calls": ("count", "wall_s", "ingest"),
    "fine_model.build_model.s": ("s", "wall_s", "ingest"),
    "fine_model.run_fine_suite.s": ("s", "wall_s", "ingest"),
    "experiment.ingest_correlators.s": ("s", "wall_s", "ingest"),
    "experiment.rows": ("count", "wall_s", "ingest"),
    "experiment.rows_per_s": ("1/s", "wall_s", "ingest"),
    "experiment.evaluate_experiment.s": ("s", "wall_s", "ingest"),
    "trace_overhead_s": ("s", None, None),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(jobs: list[tuple[float, int, list]]) -> dict[str, float]:
    """Layer metrics of one pass from ``(wall_s, exit code, spans)`` per job."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    m: dict[str, float] = defaultdict(float)
    for wall, code, spans in jobs:
        m["cli.jobs"] += 1
        m["cli.exit_nonzero"] += code != 0
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            duration = end - start
            parent_name = spans[parent][0] if parent >= 0 else None
            if parent < 0:
                m["cli.process_s"] -= duration
            if parent_name != name:  # direct recursion counts once
                total[name] += duration
                calls[name] += 1
            self_s[name.partition(".")[0]] += duration - child_s[i]
            attrs = attrs or {}
            if name == "hv_oracle.bruteforce_report":
                m["hv_oracle.scan.s"] += attrs["elapsed"]
                m["hv_oracle.assignments"] += attrs["assignments"]
                m["hv_oracle.workers"] = max(m["hv_oracle.workers"], attrs["workers"])
            elif name == "hv_oracle.halfgroup_sums" and parent_name == "hv_oracle.bruteforce_report":
                m["hv_oracle.cross_check.s"] += duration
                m["hv_oracle.cross_checked"] += attrs["count"]
            elif name == "hv_oracle.verify_hvkn":
                m["hv_oracle.hvkn.checked"] += attrs["checked"]
            elif name == "states.read_dense_state":
                m["read_bytes"] += attrs["bytes"]
            elif name == "experiment.ingest_correlators":
                m["experiment.rows"] += attrs["rows"]
        m["cli.process_s"] += wall

    for name in ("pauli.pauli_mul", "pauli.from_text", "pauli.lambda_element",
                 "fine_model.build_model"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    for name in ("pauli.verify_sum_identities", "states.f_value.analytic",
                 "states.f_value.dense", "states.read_dense_state",
                 "hv_oracle.verify_hvkn", "hv_oracle.bruteforce_report",
                 "fine_model.run_fine_suite", "experiment.ingest_correlators",
                 "experiment.evaluate_experiment"):
        m[f"{name}.s"] = total[name]
    m["states.f_value.calls"] = calls["states.f_value.analytic"] + calls["states.f_value.dense"]
    m["states.expectation.calls"] = calls["states.expectation"]
    m["cli.self_s"] = self_s["cli"]
    m["inequalities.self_s"] = self_s["inequalities"]
    m["hv_oracle.scan.rate"] = _ratio(m["hv_oracle.assignments"], m["hv_oracle.scan.s"])
    m["states.read_dense_state.mb_per_s"] = _ratio(m.pop("read_bytes", 0.0) / 1e6,
                                                   m["states.read_dense_state.s"])
    m["experiment.rows_per_s"] = _ratio(m["experiment.rows"], m["experiment.ingest_correlators.s"])
    return {name: m[name] for name in PREDICTIONS if name != "trace_overhead_s"}
