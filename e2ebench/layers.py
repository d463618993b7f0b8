"""Per-layer tracing from the benchmark's side of the API.

``LayerTracer.install()`` replaces each layer's public entry point with a
timing wrapper *where its callers look it up* (a class attribute, or the
module global the caller resolves at call time); ``uninstall()`` puts
every original back. Spans (name, start, end, parent, operation id) stay
in memory and are written out once, at the end of the run. A layer's
self time is its span minus the part covered by its child spans; the
self time of ``Connection.execute`` is what no layer below accounts for.
"""

from __future__ import annotations

import gc
import importlib
import json
import threading
import time
from collections import Counter
from pathlib import Path

__all__ = ["LayerTracer", "LAYER_METRICS", "per_layer_metrics"]

#: (module, class or None for a module global, attribute, layer)
TARGETS = (
    ("repro.federation.system", "Connection", "execute", "federation.execute"),
    ("repro.federation.system", None, "parse_statement", "sql.parse"),
    ("repro.federation.system", None, "plan_statement", "sql.plan"),
    ("repro.sql.logical", None, "plan_statement", "sql.plan"),
    ("repro.federation.system", None, "estimate_plan", "sql.estimate"),
    ("repro.obs.profile", None, "estimate_plan", "sql.estimate"),
    ("repro.sql.stats", "CostModel", "plan_costs", "sql.estimate"),
    ("repro.federation.router", "QueryRouter", "route_query", "federation.route"),
    ("repro.federation.router", "QueryRouter", "route_dml", "federation.route"),
    ("repro.federation.replication", "ReplicationService", "drain",
     "federation.replication_drain"),
    ("repro.db2.engine", "Db2Engine", "execute_select", "db2.select"),
    ("repro.db2.engine", "Db2Engine", "insert_rows", "db2.dml"),
    ("repro.db2.engine", "Db2Engine", "update_where", "db2.dml"),
    ("repro.db2.engine", "Db2Engine", "delete_where", "db2.dml"),
    ("repro.db2.engine", "Db2Engine", "commit", "db2.commit"),
    ("repro.accelerator.engine", "AcceleratorEngine", "execute_select",
     "accelerator.select"),
    ("repro.accelerator.engine", "AcceleratorEngine", "apply_changes",
     "accelerator.apply_changes"),
    ("repro.accelerator.engine", "AcceleratorEngine", "insert_into",
     "accelerator.aot_write"),
    ("repro.accelerator.engine", "AcceleratorEngine", "update_where",
     "accelerator.aot_write"),
    ("repro.accelerator.engine", "AcceleratorEngine", "delete_where",
     "accelerator.aot_write"),
    ("repro.accelerator.engine", "AcceleratorEngine", "apply_delta",
     "accelerator.aot_write"),
    ("repro.shard.pool", "AcceleratorPool", "partition_scan",
     "shard.partition_scan"),
    ("repro.wlm.manager", "WorkloadManager", "admit", "wlm.admit"),
    ("repro.analytics.framework", "ProcedureRegistry", "call",
     "analytics.proc_call"),
    ("repro.analytics.uda", None, "train", "analytics.train"),
    ("repro.loader.loader", "IdaaLoader", "load", "loader.load"),
)

#: Timed layer metric -> the layer whose self time it reports.
TIMED = {
    "sql.parse_ms": "sql.parse",
    "sql.plan_ms": "sql.plan",
    "sql.estimate_ms": "sql.estimate",
    "federation.route_ms": "federation.route",
    "federation.unattributed_ms": "federation.execute",
    "federation.replication_drain_ms": "federation.replication_drain",
    "db2.select_ms": "db2.select",
    "db2.dml_ms": "db2.dml",
    "db2.commit_ms": "db2.commit",
    "accelerator.select_ms": "accelerator.select",
    "accelerator.apply_changes_ms": "accelerator.apply_changes",
    "accelerator.aot_write_ms": "accelerator.aot_write",
    "shard.partition_scan_ms": "shard.partition_scan",
    "wlm.admit_ms": "wlm.admit",
    "analytics.proc_call_ms": "analytics.proc_call",
    "analytics.train_ms": "analytics.train",
    "loader.load_ms": "loader.load",
}

#: Every per-layer metric in output order, with its unit.
LAYER_METRICS = {
    "sql.parse_ms": "ms",
    "sql.plan_ms": "ms",
    "sql.estimate_ms": "ms",
    "sql.plan_cache_hit_ratio": "ratio",
    "federation.route_ms": "ms",
    "federation.unattributed_ms": "ms",
    "federation.replication_drain_ms": "ms",
    "federation.replication_records_per_drain": "count",
    "federation.interconnect_bytes_to_accel": "bytes",
    "federation.interconnect_bytes_from_accel": "bytes",
    "federation.interconnect_messages": "count",
    "federation.interconnect_sim_ms": "ms",
    "db2.select_ms": "ms",
    "db2.dml_ms": "ms",
    "db2.commit_ms": "ms",
    "accelerator.select_ms": "ms",
    "accelerator.rows_scanned": "rows",
    "accelerator.chunks_skipped": "count",
    "accelerator.apply_changes_ms": "ms",
    "accelerator.aot_write_ms": "ms",
    "shard.partition_scan_ms": "ms",
    "shard.scans_pruned": "count",
    "shard.critical_path_ms": "ms",
    "wlm.admit_ms": "ms",
    "wlm.admissions": "count",
    "analytics.proc_call_ms": "ms",
    "analytics.train_ms": "ms",
    "analytics.epochs": "count",
    "loader.load_ms": "ms",
    "process.cpu_ms": "ms",
    "process.gc_gen2": "count",
    "trace.overhead_pct": "%",
}

#: Counters read from the system between traced rounds:
#: metric -> (source key, scale to the metric's unit).
_COUNTERS = {
    "federation.interconnect_bytes_to_accel": ("bytes_to_accelerator", 1.0),
    "federation.interconnect_bytes_from_accel": ("bytes_from_accelerator", 1.0),
    "federation.interconnect_messages": ("messages", 1.0),
    "federation.interconnect_sim_ms": ("simulated_seconds", 1000.0),
    "accelerator.rows_scanned": ("accelerator.rows_scanned", 1.0),
    "accelerator.chunks_skipped": ("accelerator.chunks_skipped", 1.0),
    "shard.scans_pruned": ("accelerator.shard_scans_pruned", 1.0),
    "shard.critical_path_ms": ("accelerator.critical_path_seconds", 1000.0),
}


class LayerTracer:
    """Wraps layer entry points and accumulates spans and counters."""

    def __init__(self, recorder) -> None:
        #: The run's Recorder; collections during its checks are left out.
        self.recorder = recorder
        self.spans: list[tuple] = []
        self.self_seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.totals: Counter = Counter()
        self.operation = 0
        self._stack: list[list] = []
        self._originals: list[tuple] = []
        self._main = threading.get_ident()
        self._before: dict = {}

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        for module_name, owner_name, attribute, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = (
                getattr(owner, attribute)
                if owner_name is None
                else owner.__dict__[attribute]
            )
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if (
            phase == "start"
            and info["generation"] == 2
            and not self.recorder.checking
        ):
            self.totals["gc_gen2"] += 1

    def _wrap(self, fn, layer: str):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            # Other threads (scan workers) and same-layer re-entry run
            # untraced: their time stays inside the enclosing span.
            if threading.get_ident() != tracer._main or (
                stack and stack[-1][0] == layer
            ):
                return fn(*args, **kwargs)
            parent = stack[-1][3] if stack else -1
            frame = [layer, time.perf_counter(), 0.0, len(tracer.spans)]
            tracer.spans.append(None)  # reserve the index; filled at end
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.self_seconds[layer] += duration - frame[2]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                tracer.spans[frame[3]] = (
                    layer, frame[1], end, parent, tracer.operation
                )
            if layer == "analytics.train":
                tracer.totals["epochs"] += getattr(result, "epochs", 0)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_operation(self, name: str) -> None:
        self.operation += 1

    # -- counters ---------------------------------------------------------------

    @staticmethod
    def _read_counters(db) -> dict:
        collected = db.metrics.collect()
        movement = db.movement_snapshot()
        cache = db.plan_cache.snapshot()
        out = {
            "bytes_to_accelerator": movement.bytes_to_accelerator,
            "bytes_from_accelerator": movement.bytes_from_accelerator,
            "messages": movement.messages,
            "simulated_seconds": movement.simulated_seconds,
            "plan_cache.hits": cache["hits"],
            "plan_cache.misses": cache["misses"],
            "replication.records_applied": collected[
                "replication.records_applied"
            ],
            "wlm.admissions": sum(
                value
                for key, value in collected.items()
                if key.startswith("wlm.") and key.endswith(".admitted")
            ),
        }
        for key in (
            "accelerator.rows_scanned",
            "accelerator.chunks_skipped",
            "accelerator.shard_scans_pruned",
            "accelerator.critical_path_seconds",
        ):
            out[key] = collected.get(key, 0)
        return out

    def begin_round(self, db) -> None:
        self._before = self._read_counters(db)
        self.install()

    def end_round(self, db) -> None:
        self.uninstall()
        after = self._read_counters(db)
        for key, value in after.items():
            self.totals[key] += value - self._before[key]

    # -- output -------------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def per_layer_metrics(
    tracer: LayerTracer,
    traced_ops: int,
    traced_seconds: float,
    traced_cpu_seconds: float,
    plain_ops: int,
    plain_seconds: float,
) -> dict:
    """Per-operation layer metrics from the traced rounds.

    ``*_seconds`` are critical-path seconds and ``traced_cpu_seconds`` is
    the CPU time of all threads, all with the checks left out.
    """
    ops = max(1, traced_ops)
    totals = tracer.totals
    values: dict[str, float] = {}
    for metric, layer in TIMED.items():
        values[metric] = tracer.self_seconds[layer] * 1000.0 / ops
    for metric, (key, scale) in _COUNTERS.items():
        values[metric] = totals[key] * scale / ops
    lookups = totals["plan_cache.hits"] + totals["plan_cache.misses"]
    values["sql.plan_cache_hit_ratio"] = (
        totals["plan_cache.hits"] / lookups if lookups else 0.0
    )
    drains = tracer.calls["federation.replication_drain"]
    values["federation.replication_records_per_drain"] = (
        totals["replication.records_applied"] / drains if drains else 0.0
    )
    values["wlm.admissions"] = totals["wlm.admissions"] / ops
    values["analytics.epochs"] = totals["epochs"] / ops
    values["process.cpu_ms"] = traced_cpu_seconds * 1000.0 / ops
    values["process.gc_gen2"] = totals["gc_gen2"] / ops
    traced_rate = traced_ops / traced_seconds
    plain_rate = plain_ops / plain_seconds
    values["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in LAYER_METRICS.items()
    }
