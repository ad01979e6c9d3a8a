"""Per-layer tracing for the lake-life benchmark, kept outside the engine.

``install`` wraps public functions of the engine's modules (plan,
sources.avro, merge, checkpoint, locks, metrics and the epoch stages in
engine) so each call records a span: name, start, duration and a few counts.
The benchmark process installs it for itself; Ray workers install it through
``worker_setup``, named as the job's ``worker_process_setup_hook``, and append
their spans to one JSON-lines file per process under ``$LAKEBENCH_TRACE_DIR``.

Wrappers keep the wrapped function's ``__module__`` and ``__qualname__`` and
replace every binding of the original in the engine's modules (``engine``
imports several merge functions by name), so a function pickled by reference
in the benchmark process resolves to the wrapper in a worker too.

``layer_metrics`` folds spans and ``ray.timeline()`` task records into the
per-layer metrics; where a stage has no public function (the read, the sort
exchange, the per-bucket reader tasks) the timeline's per-operator task
records stand in for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

TRACE_ENV = "LAKEBENCH_TRACE_DIR"


def _rows(t) -> int:
    return int(getattr(t, "num_rows", 0) or 0)


def _lww_counts(args, kwargs, out):
    return {"rows_in": _rows(args[0]), "rows_out": _rows(out)}


def _combine_counts(args, kwargs, out):
    return {"rows_in": _rows(args[1]), "rows_out": _rows(out)}


def _decode_counts(args, kwargs, out):
    return {"rows": _rows(out)}


def _write_counts(args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"files": 1, "bytes": os.path.getsize(path)}


# (module, attribute path, span name, counts) — span names that share a
# prefix before the first '/' form one group: only the outermost call of a
# group records, so a plan function calling another is not counted twice.
_PLAN = ["load_log_meta", "plan_epochs", "plan_epochs_sized", "prune_shards",
         "expected_event_count", "salt_plan", "pack_bins"]
_METRICS = ["MetricContext." + m for m in (
    "counter", "meter", "timer", "counters", "inc", "submit_event", "snapshot",
    "report")] + ["JsonLinesReporter.emit", "JsonLinesReporter.report_snapshot"]
TARGETS = (
    [("gobblin_ray.plan", f, "plan/" + f, None) for f in _PLAN]
    + [("gobblin_ray.sources.avro", "read_container", "avro.decode", _decode_counts),
       ("gobblin_ray.engine", "_BucketAndReduce.__call__", "epoch.combine", _combine_counts),
       ("gobblin_ray.engine", "_salted_partial_reduce", "epoch.salted_partial", None),
       ("gobblin_ray.engine", "_MergeBucket.__call__", "epoch.merge_bucket", None),
       ("gobblin_ray.merge", "lww_reduce", "merge.lww_reduce", _lww_counts),
       ("gobblin_ray.merge", "merge_bases", "merge.merge_bases", None),
       ("gobblin_ray.checkpoint", "atomic_write_table", "checkpoint.write", _write_counts),
       ("gobblin_ray.checkpoint", "promote", "checkpoint.promote", None),
       ("gobblin_ray.checkpoint", "CheckpointStore.commit", "checkpoint.manifest", None),
       ("gobblin_ray.checkpoint", "vacuum", "checkpoint.vacuum", None),
       # every Parquet file the engine's readers open goes through this
       ("pyarrow.parquet", "read_table", "read.file_open", None)]
    + [("gobblin_ray.locks", "FileJobLock." + m, "locks/" + m, None)
       for m in ("acquire", "try_acquire", "release")]
    + [("gobblin_ray.metrics", m, "metrics/" + m, None) for m in _METRICS]
)


class Recorder:
    """Collects spans in memory, or appends them to ``path`` (workers)."""

    def __init__(self, path: str | None = None):
        self.spans: list[dict] = []
        self._file = open(path, "a", buffering=1) if path else None
        self._local = threading.local()

    def record(self, span: dict) -> None:
        if self._file is not None:
            self._file.write(json.dumps(span) + "\n")
        else:
            self.spans.append(span)

    def enter(self, group: str) -> bool:
        """True when this is the outermost open call of ``group``."""
        open_groups = self._local.__dict__.setdefault("open", {})
        depth = open_groups.get(group, 0)
        open_groups[group] = depth + 1
        return depth == 0

    def leave(self, group: str) -> None:
        self._local.open[group] -= 1


def _wrap(fn, name: str, counts, rec: Recorder):
    group = name.split("/")[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outer = rec.enter(group)
        t0 = time.time()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.leave(group)
        if outer:
            span = {"name": name, "t0": t0, "dur": time.time() - t0}
            if counts is not None:
                span.update(counts(args, kwargs, out))
            rec.record(span)
        return out

    traced.__lakebench_original__ = fn
    return traced


def install(rec: Recorder) -> None:
    """Wrap every target in this process (idempotent per target)."""
    mods = {m: importlib.import_module(m) for m in {t[0] for t in TARGETS}}
    for mod_name, attr, name, counts in TARGETS:
        owner = mods[mod_name]
        *cls_path, leaf = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        if hasattr(original, "__lakebench_original__"):
            continue
        traced = _wrap(original, name, counts, rec)
        setattr(owner, leaf, traced)
        if cls_path:
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("gobblin_ray"):
                for k, v in list(vars(mod).items()):
                    if v is original:
                        setattr(mod, k, traced)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker into a file."""
    install(Recorder(os.path.join(os.environ[TRACE_ENV], f"spans-{os.getpid()}.jsonl")))


def read_worker_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-"):
            with open(os.path.join(trace_dir, name)) as f:
                spans += [json.loads(line) for line in f if line.strip()]
    return spans


# ---------------------------------------------------------------- folding

_READ_OPS = ("task::ReadParquet", "task::ReadBinary")
_EXCHANGE_OPS = ("task::map", "task::reduce", "task::_sample_block")


def _tasks(timeline: list[dict], t0: float, t1: float) -> list[dict]:
    """Whole-task records of the timeline that started inside [t0, t1]."""
    out = []
    for ev in timeline:
        cat = ev.get("cat", "")
        if ev.get("ph") != "X" or not cat.startswith("task::") or ev.get("name") == cat:
            continue
        start = ev["ts"] / 1e6
        if t0 <= start <= t1:
            out.append({"op": cat, "t0": start, "dur": ev.get("dur", 0.0) / 1e6})
    return sorted(out, key=lambda t: t["t0"])


def _in(t: dict, windows: list[tuple[float, float]]) -> bool:
    return any(a <= t["t0"] <= b for a, b in windows)


def _exchange_wait(tasks: list[dict]) -> float:
    """Operator wall beyond its tasks' busy time. Exchange tasks between two
    merge_bucket tasks form one exchange; its wall runs from its first task's
    start to its last task's end, and the part of that wall in which none of
    its tasks was running counts as waiting (barrier, scheduling, CPU)."""
    wait, group = 0.0, []

    def idle(group: list[dict]) -> float:
        if not group:
            return 0.0
        start = end = group[0]["t0"]
        covered = 0.0
        for t in sorted(group, key=lambda t: t["t0"]):
            a, b = max(t["t0"], end), t["t0"] + t["dur"]
            covered += max(0.0, b - a)
            end = max(end, b)
        return max(0.0, end - start - covered)

    for t in tasks:
        if t["op"].startswith(_EXCHANGE_OPS):
            group.append(t)
        elif "merge_bucket" in t["op"] and group:
            wait += idle(group)
            group = []
    return wait + idle(group)


def layer_metrics(spans: list[dict], timeline: list[dict], round_window: tuple[float, float],
                  ingest_windows: list[tuple[float, float]],
                  scan_windows: list[tuple[float, float]], extra: dict, cpus: int) -> dict:
    """Per-layer metrics of one traced round, as name -> (value, unit).
    ``ingest_windows`` and ``scan_windows`` are the wall-clock windows of
    the round's ``run()`` calls and full scans."""
    t0, t1 = round_window
    spans = [s for s in spans if t0 <= s["t0"] <= t1]
    tasks = _tasks(timeline, t0, t1)

    def span_sum(prefix: str, key: str = "dur") -> float:
        return sum(s.get(key, 0) for s in spans if s["name"] == prefix
                   or s["name"].startswith(prefix + "/"))

    def span_calls(prefix: str) -> int:
        return sum(1 for s in spans if s["name"] == prefix or s["name"].startswith(prefix + "/"))

    def task_sum(pred) -> tuple[float, int]:
        sel = [t for t in tasks if pred(t)]
        return sum(t["dur"] for t in sel), len(sel)

    ingest = [t for t in tasks if _in(t, ingest_windows)]
    read_s, read_n = task_sum(lambda t: t in ingest and t["op"].startswith(_READ_OPS))
    ex_s, ex_n = task_sum(lambda t: t in ingest and t["op"].startswith(_EXCHANGE_OPS))
    mb_s, mb_n = task_sum(lambda t: t in ingest and "merge_bucket" in t["op"])
    scan_s, scan_n = task_sum(lambda t: _in(t, scan_windows) and "merge_on_read" in t["op"])
    look_s, look_n = task_sum(lambda t: t["op"] == "task::probe")
    diff_s, _ = task_sum(lambda t: "snapshot_diff" in t["op"])
    maint_s, _ = task_sum(lambda t: any(k in t["op"] for k in (
        "compact_bucket", "update_bucket", "delete_bucket")))
    busy, n_tasks = task_sum(lambda t: True)
    combine_s = span_sum("epoch.combine")
    decode_s = span_sum("avro.decode")
    m = {
        "plan.s": (span_sum("plan"), "s"),
        "plan.calls": (span_calls("plan"), "count"),
        "avro.decode_s": (decode_s, "s"),
        "avro.decode_rows": (span_sum("avro.decode", "rows"), "rows"),
        # the fused read chain also runs the combiner and the Avro decode,
        # which have spans of their own: read_s is what is left
        "epoch.read_s": (max(0.0, read_s - combine_s - decode_s), "s"),
        "epoch.read_tasks": (read_n, "count"),
        "epoch.combine_s": (combine_s, "s"),
        "epoch.combine_rows_in": (span_sum("epoch.combine", "rows_in"), "rows"),
        "epoch.combine_rows_out": (span_sum("epoch.combine", "rows_out"), "rows"),
        "epoch.salted_partial_s": (span_sum("epoch.salted_partial"), "s"),
        "epoch.salted_buckets": (extra["salted_buckets"], "count"),
        "epoch.exchange_s": (ex_s, "s"),
        "epoch.exchange_wait_s": (_exchange_wait(ingest), "s"),
        "epoch.exchange_tasks": (ex_n, "count"),
        "epoch.merge_bucket_s": (span_sum("epoch.merge_bucket"), "s"),
        "epoch.merge_bucket_tasks": (mb_n, "count"),
        "merge.lww_reduce_s": (span_sum("merge.lww_reduce"), "s"),
        "merge.merge_bases_s": (span_sum("merge.merge_bases"), "s"),
        "merge.rows_in": (span_sum("merge.lww_reduce", "rows_in"), "rows"),
        "merge.rows_out": (span_sum("merge.lww_reduce", "rows_out"), "rows"),
        "checkpoint.write_s": (span_sum("checkpoint.write"), "s"),
        "checkpoint.files_written": (span_sum("checkpoint.write", "files"), "count"),
        "checkpoint.bytes_written": (span_sum("checkpoint.write", "bytes"), "bytes"),
        "checkpoint.promote_s": (span_sum("checkpoint.promote"), "s"),
        "checkpoint.manifest_s": (span_sum("checkpoint.manifest"), "s"),
        "checkpoint.vacuum_s": (span_sum("checkpoint.vacuum"), "s"),
        "locks.s": (span_sum("locks"), "s"),
        "metrics.s": (span_sum("metrics"), "s"),
        "read.scan_tasks": (scan_n, "count"),
        "read.files_opened": (sum(1 for s in spans if s["name"] == "read.file_open"
                                  and _in(s, scan_windows)), "count"),
        "read.merge_on_read_s": (scan_s, "s"),
        "read.lookup_buckets": (look_n, "count"),
        "read.lookup_s": (look_s, "s"),
        "read.diff_s": (diff_s, "s"),
        "maint.rewrite_s": (maint_s, "s"),
        "maint.buckets_rewritten": (extra["buckets_rewritten"], "count"),
        "ray.task_busy_s": (busy, "s"),
        "ray.idle_s": (max(0.0, (t1 - t0) * cpus - busy), "s"),
        "ray.tasks": (n_tasks, "count"),
    }
    return m
