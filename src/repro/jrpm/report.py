"""Rendering of pipeline results: text in the shape of the paper's
tables and figures, plus the machine-readable JSON schema shared by
``jrpm run --json``, ``jrpm fleet --json``, and the analysis service
(one serializer, so CLI and service outputs are byte-identical for the
same request)."""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional

from repro.errors import PipelineError
from repro.jrpm.pipeline import JrpmReport


def render_summary(report: JrpmReport) -> str:
    """One-paragraph overview of a pipeline run."""
    lines = [
        "Jrpm report: %s" % report.name,
        "  sequential time   : %d cycles" % report.sequential_cycles,
        "  profiling slowdown: %.1f%%"
        % (100 * (report.profiling_slowdown - 1)),
        "  loops profiled    : %d" % len(report.device.stats),
        "  STLs selected     : %d" % len(report.selection.selected),
        "  coverage          : %.1f%%" % (100 * report.coverage),
        "  predicted speedup : %.2fx" % report.predicted_speedup,
    ]
    if report.outcome is not None:
        lines.append(
            "  actual speedup    : %.2fx (TLS simulation)"
            % report.actual_speedup)
    return "\n".join(lines)


def render_selection(report: JrpmReport, limit: int = 20) -> str:
    """Per-STL table: the Figure 10 block decomposition in text form."""
    sel = report.selection
    lines = ["%-6s %12s %9s %10s %10s %9s %-10s" % (
        "loop", "cycles", "cover%", "threads", "size", "est.spdup",
        "model")]
    for s in sel.selected[:limit]:
        st = s.stats
        lines.append("L%-5d %12d %8.1f%% %10d %10.1f %8.2fx %-10s" % (
            s.loop_id, st.cycles,
            100.0 * st.cycles / sel.total_cycles,
            st.threads, st.avg_thread_size, s.estimate.speedup,
            s.model))
    lines.append("%-6s %12d %8.1f%%" % (
        "serial", sel.serial_cycles,
        100.0 * sel.serial_cycles / sel.total_cycles
        if sel.total_cycles else 0.0))
    return "\n".join(lines)


def render_predicted_vs_actual(report: JrpmReport) -> str:
    """Figure 11's two bars for this program, plus per-STL detail."""
    out = report.outcome
    if out is None:
        return "(TLS simulation was not run)"
    lines = [
        "normalized execution time (1.0 = sequential)",
        "  predicted: %.3f" % out.predicted_normalized_time,
        "  actual   : %.3f" % out.actual_normalized_time,
        "",
        "%-6s %12s %10s %10s %12s" % (
            "loop", "cycles", "predicted", "actual", "viol/thread"),
    ]
    for loop_id, cycles, pred, actual, vrate in out.per_stl_rows():
        lines.append("L%-5d %12d %9.2fx %9.2fx %12.3f" % (
            loop_id, cycles, pred, actual, vrate))
    return "\n".join(lines)


def render_models(report: JrpmReport) -> str:
    """Per-loop execution-model comparison: every competing model's
    estimate and the argmax winner (``jrpm run --models`` output)."""
    sel = report.selection
    header = "%-6s %-11s %-9s" % ("loop", "winner", "selected")
    header += "".join(" %11s" % n[:11] for n in sel.models)
    lines = ["execution models: " + ", ".join(sel.models), header]
    selected_ids = {s.loop_id for s in sel.selected}
    for loop_id in sorted(sel.decisions):
        dec = sel.decisions[loop_id]
        row = "L%-5d %-11s %-9s" % (
            loop_id, dec.model,
            "yes" if loop_id in selected_ids else "no")
        row += "".join(" %10.2fx" % dec.model_estimates[name].speedup
                       for name in sel.models)
        lines.append(row)
    return "\n".join(lines)


def render_engine_stats(report: JrpmReport) -> str:
    """Trace-engine observability block: per-phase wall-clock and
    kernel memo hit/miss counters of the TLS replay."""
    if report.engine is None:
        return "(trace engine was not used)"
    return "trace engine\n" + report.engine.stats.render()


def render_trace_jit(report: JrpmReport) -> str:
    """Trace-JIT observability block: per-run recording/link/blacklist
    counters and the per-trace hit table."""
    lines = ["trace jit"]
    for label, result in (("sequential", report.sequential),
                          ("profiled", report.profiled)):
        jit = result.jit
        if jit is None:
            lines.append("  %-10s (disabled)" % label)
            continue
        lines.append(
            "  %-10s linked=%d blacklisted=%d invocations=%d "
            "iterations=%d guard_failures=%d"
            % (label, jit["traces_linked"], jit["traces_blacklisted"],
               jit["invocations"], jit["iterations"],
               jit["guard_failures"]))
        for tr in jit["traces"]:
            lines.append(
                "    %s+%d (%s): %d ops, %d invocations, "
                "%d iterations, %d guard failures"
                % (tr["fn"], tr["anchor"], tr["mode"], tr["ops"],
                   tr["invocations"], tr["iterations"],
                   tr["guard_failures"]))
    return "\n".join(lines)


def render_optimize_stats(report: JrpmReport) -> str:
    """Optimizer observability block: per-pass rewrite counters."""
    stats = report.optimize_stats
    if not stats:
        return "(optimizer was not run)"
    lines = ["optimizer (%d rounds, %d rewrites)"
             % (stats.get("rounds", 0), stats.get("total", 0))]
    for key in sorted(stats):
        if key in ("rounds", "total") or not stats[key]:
            continue
        lines.append("  %-20s %d" % (key, stats[key]))
    return "\n".join(lines)


def characteristics(report: JrpmReport) -> Dict[str, Any]:
    """This program's Table 6 TEST-analysis columns: loop count (c),
    executed loop depth (d), selected loops with > 0.5% coverage (e),
    their average 1-based height (f), and the coverage-weighted
    iterations per entry (g) and thread size in cycles (h).

    Every selected ``loop_id`` originates from the candidate table, so
    a missing entry means the report is internally inconsistent (e.g.
    a stale cache artifact); silently dropping it would skew the
    height average, so it raises instead.
    """
    table = report.candidates
    sig = report.selection.significant()
    missing = [s.loop_id for s in sig if s.loop_id not in table.by_id]
    if missing:
        raise PipelineError(
            "selection for %r references loop ids %r absent from "
            "the candidate table — inconsistent report artifacts"
            % (report.name, sorted(missing)))
    heights = [table.by_id[s.loop_id].loop.height1() for s in sig]
    weights = [s.stats.cycles for s in sig]
    total = sum(weights)

    def weighted(values) -> float:
        if not total:
            return 0.0
        return sum(v * w for v, w in zip(values, weights)) / total

    return {
        "loop_count": table.loop_count,
        "dynamic_depth": report.device.max_dynamic_depth(),
        "selected_count": len(sig),
        "avg_selected_height": (sum(heights) / len(heights)
                                if heights else 0.0),
        "threads_per_entry": weighted(
            s.stats.avg_iters_per_entry for s in sig),
        "thread_size": weighted(s.stats.avg_thread_size for s in sig),
    }


def render_characteristics_row(report: JrpmReport) -> str:
    """This program's row of Table 6 (TEST analysis columns)."""
    row = characteristics(report)
    return ("%-16s loops=%-4d depth=%-2d selected=%-3d "
            "avg_height=%-4.1f threads/entry=%-8.0f size=%-8.0f" % (
                report.name, row["loop_count"], row["dynamic_depth"],
                row["selected_count"], row["avg_selected_height"],
                row["threads_per_entry"], row["thread_size"]))


# ---------------------------------------------------------------------------
# machine-readable report schema (shared by CLI --json and the service)
# ---------------------------------------------------------------------------

#: bump when the JSON layout changes shape; consumers pin against it
#: (v4: per-loop execution ``model`` in selection rows plus a nullable
#: top-level ``models`` block for multi-model runs; v5: the ``models``
#: block is always filled, ``["hydra-tls"]`` by default; v6: the
#: top-level ``characteristics`` block of Table 6 columns)
REPORT_SCHEMA_VERSION = 6

#: required top-level keys and their accepted types.  ``float`` accepts
#: ints too (JSON has one number type); ``None`` marks nullable fields.
REPORT_SCHEMA: Dict[str, tuple] = {
    "schema_version": (int,),
    "name": (str,),
    "sequential_cycles": (int,),
    "profiled_cycles": (int,),
    "profiling_slowdown": (float, int),
    "loops_profiled": (int,),
    "coverage": (float, int),
    "predicted_speedup": (float, int),
    "actual_speedup": (float, int, type(None)),
    "selection": (dict,),
    "predicted_vs_actual": (dict, type(None)),
    "engine": (dict, type(None)),
    "trace_jit": (dict, type(None)),
    "optimize_stats": (dict, type(None)),
    "models": (dict,),
    "characteristics": (dict,),
}

#: required keys of every row in ``selection["selected"]``
SELECTION_ROW_SCHEMA: Dict[str, tuple] = {
    "loop_id": (int,),
    "cycles": (int,),
    "coverage": (float, int),
    "entries": (int,),
    "threads": (int,),
    "avg_iters_per_entry": (float, int),
    "avg_thread_size": (float, int),
    "predicted_speedup": (float, int),
    "model": (str,),
}

#: required keys of the ``characteristics`` block (Table 6 columns)
CHARACTERISTICS_SCHEMA: Dict[str, tuple] = {
    "loop_count": (int,),
    "dynamic_depth": (int,),
    "selected_count": (int,),
    "avg_selected_height": (float, int),
    "threads_per_entry": (float, int),
    "thread_size": (float, int),
}


class ReportSchemaError(ValueError):
    """A report dict does not match :data:`REPORT_SCHEMA`."""


def _finite(value: float) -> Optional[float]:
    """NaN/inf are not JSON; serialize them as null."""
    return value if value is not None and math.isfinite(value) else None


def report_to_dict(report: JrpmReport) -> Dict[str, Any]:
    """The canonical machine-readable form of a pipeline run.

    Everything the text renderers print — summary headline, the
    Table 6 row, the Figure 10 selection table, the Figure 11
    predicted-vs-actual rows, and the trace-engine counters — in one
    stable JSON-friendly dict.
    """
    sel = report.selection
    selected = []
    for s in sel.selected:
        st = s.stats
        selected.append({
            "loop_id": s.loop_id,
            "cycles": st.cycles,
            "coverage": (st.cycles / sel.total_cycles
                         if sel.total_cycles else 0.0),
            "entries": st.entries,
            "threads": st.threads,
            "avg_iters_per_entry": st.avg_iters_per_entry,
            "avg_thread_size": st.avg_thread_size,
            "predicted_speedup": s.estimate.speedup,
            "model": s.model,
        })
    per_loop = []
    counts: Dict[str, int] = {}
    selected_ids = {s.loop_id for s in sel.selected}
    for loop_id in sorted(sel.decisions):
        dec = sel.decisions[loop_id]
        chosen = loop_id in selected_ids
        # unselected loops stay sequential regardless of which
        # speculative model won their estimate comparison
        effective = dec.model if chosen else "sequential"
        counts[effective] = counts.get(effective, 0) + 1
        per_loop.append({
            "loop_id": loop_id,
            "model": dec.model,
            "selected": chosen,
            "estimates": {name: _finite(est.speedup)
                          for name, est in dec.model_estimates.items()},
        })
    out: Dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "name": report.name,
        "sequential_cycles": report.sequential_cycles,
        "profiled_cycles": (report.profiled.cycles
                            if report.profiled else 0),
        "profiling_slowdown": report.profiling_slowdown,
        "loops_profiled": len(report.device.stats),
        "coverage": report.coverage,
        "predicted_speedup": report.predicted_speedup,
        "actual_speedup": (report.actual_speedup
                           if report.outcome is not None else None),
        "selection": {
            "total_cycles": sel.total_cycles,
            "serial_cycles": sel.serial_cycles,
            "selected": selected,
        },
        "predicted_vs_actual": None,
        "engine": None,
        "trace_jit": None,
        "optimize_stats": report.optimize_stats,
        "models": {
            "requested": list(sel.models),
            "selected_counts": counts,
            "per_loop": per_loop,
        },
        "characteristics": characteristics(report),
    }
    # per-run trace-JIT counters; all counts are deterministic, so CLI
    # and service stay byte-identical
    seq_jit = report.sequential.jit
    prof_jit = report.profiled.jit
    if seq_jit is not None or prof_jit is not None:
        out["trace_jit"] = {
            "sequential": seq_jit,
            "profiled": prof_jit,
        }
    if report.outcome is not None:
        rows = []
        # per_stl_rows iterates selection.selected in order, so zip
        # recovers each row's winning model
        for (loop_id, cycles, pred, actual, vrate), s in \
                zip(report.outcome.per_stl_rows(), sel.selected):
            rows.append({
                "loop_id": loop_id,
                "cycles": cycles,
                "predicted_speedup": _finite(pred),
                "actual_speedup": _finite(actual),
                "violations_per_thread": _finite(vrate),
                "model": s.model,
            })
        out["predicted_vs_actual"] = {
            "predicted_normalized_time":
                report.outcome.predicted_normalized_time,
            "actual_normalized_time":
                report.outcome.actual_normalized_time,
            "rows": rows,
        }
    if report.engine is not None:
        # wall-clock seconds are dropped: the canonical report must be
        # deterministic for a given request (CLI and service emit
        # byte-identical JSON), and timings never are
        out["engine"] = {
            kernel: {k: v for k, v in counters.items()
                     if k != "seconds"}
            for kernel, counters in report.engine.stats.snapshot().items()
        }
    return out


def dumps_canonical(obj: Any) -> str:
    """The one JSON encoding every producer uses (sorted keys, fixed
    separators, strict — no NaN), so identical dicts are identical
    bytes whether they came from the CLI or the service."""
    return json.dumps(obj, sort_keys=True, indent=2,
                      separators=(",", ": "), allow_nan=False)


def report_json(report: JrpmReport) -> str:
    """``jrpm run --json`` output: the canonical report serialization."""
    return dumps_canonical(report_to_dict(report))


def _check_keys(where: str, data: Dict[str, Any],
                schema: Dict[str, tuple], problems: List[str]) -> None:
    for key, types in schema.items():
        if key not in data:
            problems.append("%s: missing key %r" % (where, key))
        elif not isinstance(data[key], types) \
                or (bool not in types and isinstance(data[key], bool)):
            problems.append("%s: key %r has type %s, expected %s"
                            % (where, key, type(data[key]).__name__,
                               "/".join(t.__name__ for t in types)))
    for key in data:
        if key not in schema:
            problems.append("%s: unexpected key %r" % (where, key))


def validate_report_dict(data: Dict[str, Any]) -> None:
    """Assert ``data`` matches :data:`REPORT_SCHEMA` exactly.

    Raises :class:`ReportSchemaError` listing every violation.  The
    service handler runs this on every response it is about to send;
    the schema-stability tests run it over every bundled workload.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        raise ReportSchemaError("report must be a dict, got %s"
                                % type(data).__name__)
    _check_keys("report", data, REPORT_SCHEMA, problems)
    version = data.get("schema_version")
    if isinstance(version, int) and version != REPORT_SCHEMA_VERSION:
        problems.append("report: schema_version %r != %d"
                        % (version, REPORT_SCHEMA_VERSION))
    sel = data.get("selection")
    if isinstance(sel, dict):
        for key in ("total_cycles", "serial_cycles", "selected"):
            if key not in sel:
                problems.append("selection: missing key %r" % key)
        for i, row in enumerate(sel.get("selected") or []):
            _check_keys("selection.selected[%d]" % i, row,
                        SELECTION_ROW_SCHEMA, problems)
    if isinstance(data.get("characteristics"), dict):
        _check_keys("characteristics", data["characteristics"],
                    CHARACTERISTICS_SCHEMA, problems)
    pva = data.get("predicted_vs_actual")
    if isinstance(pva, dict):
        for key in ("predicted_normalized_time",
                    "actual_normalized_time", "rows"):
            if key not in pva:
                problems.append("predicted_vs_actual: missing key %r"
                                % key)
    if problems:
        raise ReportSchemaError("; ".join(problems))


def fleet_to_dict(result, elapsed: Optional[float] = None,
                  jobs: Optional[int] = None) -> Dict[str, Any]:
    """``jrpm fleet --json`` payload: each successful row's report dict
    (the one ``jrpm run --json`` and the service emit, built in the
    worker), error rows with their traceback, plus the sweep-level
    aggregates."""
    rows: List[Dict[str, Any]] = []
    for row in result:
        if row.ok:
            rows.append({"workload": row.name, "ok": True,
                         "report": row.report})
        else:
            rows.append({"workload": row.name, "ok": False,
                         "error": row.error, "trace": row.trace,
                         "attempts": row.attempts})
    out: Dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "rows": rows,
        "median_slowdown": result.median_slowdown,
        "geomean_prediction_ratio": result.geomean_prediction_ratio,
        "cache_stats": result.cache_stats,
        "exec_stats": result.exec_stats,
    }
    if elapsed is not None:
        out["elapsed_s"] = round(elapsed, 3)
    if jobs is not None:
        out["jobs"] = jobs
    return out
