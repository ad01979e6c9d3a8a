"""Lake-life CDC benchmark: one workload from a seed, end to end.

    python3 lakebench/run.py --workload catchup --seed 1 --seconds 30 --trace 0

Each round takes a fresh lake through its whole life on the workload's
inputs: bootstrap a web-page snapshot, ingest the change log, then serve it
(full scans, point lookups, the change feed, compaction and DML). The engine
is driven only through ``CdcEngine``'s public API, and every output is
checked against the DuckDB oracle in ``oracle.py``. Rounds repeat until
``--seconds`` of measurement are spent; end-to-end metrics are medians over
their samples. ``--trace 1`` runs exactly one round with spans recorded
(``spans.py``) and reports the per-layer metrics instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it carries run facts (CPUs,
rounds, samples per metric, CPU time stolen from this host).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import replace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from lakebench import gen  # noqa: E402
from lakebench.oracle import DML_STEPS  # noqa: E402

# Why two workloads: `catchup` is a skewed backlog in a few wide epochs, so
# the read, combiner, salted partial merge, sort exchange and merge_bucket
# carry the work; `tail_avro` commits small near-uniform Avro shards one at a
# time, so per-epoch fixed cost, Avro decoding and merge-on-read over many
# delta files carry it and nothing is salted.
WORKLOADS = {
    "catchup": (gen.Spec(
        name="catchup", fmt="parquet", pages=4000, shards=10, shard_events=5000,
        schema_cut=6, hot=(0.30, 0.05, 0.03), bad_op=3, empty_url=2, batch_shards=5,
        epoch_width=10000, buckets=16, row_group=2500),
        {"scans": 2, "lookups": 6, "changes": 2}),
    "tail_avro": (gen.Spec(
        name="tail_avro", fmt="avro", pages=4000, shards=10, shard_events=2000,
        schema_cut=5, hot=(), bad_op=2, empty_url=1, batch_shards=1, epoch_width=100000,
        buckets=16, row_group=2000),
        {"scans": 2, "lookups": 6, "changes": 2}),
}
# urls of each kind per lookup batch (live, deleted, never seen): 60 urls
# touch nearly all 16 buckets whatever the seed, so the probe count, and with
# it the time, does not swing with where the seed's urls happen to hash
LOOKUP_MIX = 20

E2E_UNITS = {
    "setup_s": "s", "bootstrap_s": "s", "replay_events_per_s": "events/s",
    "commit_p50_s": "s", "scan_s": "s", "lookup_p50_s": "s", "changes_s": "s",
    "compact_s": "s", "dml_s": "s", "lake_mb": "MB", "peak_rss_mb": "MB",
}


def process_start() -> float:
    """Wall-clock start of this process, from /proc (falls back to now)."""
    try:
        with open("/proc/self/stat") as f:
            ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/stat") as f:
            btime = next(int(line.split()[1]) for line in f if line.startswith("btime"))
        return btime + ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, StopIteration):
        return time.time()


def steal_seconds() -> float:
    """Host CPU time stolen by other tenants so far (all CPUs)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _children() -> dict[int, int]:
    """pid -> parent pid for every process visible in /proc."""
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    out[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    return out


def descendants(root: int) -> list[int]:
    parent = _children()
    found, frontier = [], [root]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        found += kids
        frontier += kids
    return found


def rss_mb(pids: list[int]) -> float:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            pass
    return total / 1e6


class RssSampler:
    """Peak summed RSS of this process and everything it started."""

    def __init__(self, period: float = 0.25):
        self.period, self.peak = period, 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._pids: list[int] = []
        self._pids_at = 0.0

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            now = time.monotonic()
            if now - self._pids_at > 2.0:  # new Ray workers appear rarely
                self._pids = [os.getpid()] + descendants(os.getpid())
                self._pids_at = now
            self.peak = max(self.peak, rss_mb(self._pids))

    def start(self) -> "RssSampler":
        self._thread.start()
        return self

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak


class OpFailed(Exception):
    """An engine operation raised; the rest of the round is not attempted."""


class Bench:
    def __init__(self, args, tmp: str):
        self.args = args
        self.spec, self.serve = WORKLOADS[args.workload]
        self.tmp = tmp
        self.cpus = len(os.sched_getaffinity(0))
        self.samples: dict[str, list[float]] = {k: [] for k in E2E_UNITS}
        self.attempted = self.failed = 0
        self.correct = True
        self.oracle = None
        self.extra = {"salted_buckets": 0, "buckets_rewritten": 0}
        self.ingest_windows: list[tuple[float, float]] = []
        self.scan_windows: list[tuple[float, float]] = []
        self.ray_tmp: str | None = None
        self.local_spans = None

    # -------------------------------------------------------------- setup

    def start_ray(self) -> None:
        import ray

        os.environ["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        runtime_env = {}
        if self.args.trace:
            from lakebench import spans

            os.environ[spans.TRACE_ENV] = os.path.join(self.tmp, "spans")
            os.makedirs(os.environ[spans.TRACE_ENV])
            runtime_env["worker_process_setup_hook"] = "lakebench.spans.worker_setup"
        # Ray's unix sockets (<dir>/session_<stamp>_<pid>/sockets/plasma_store)
        # may not pass 107 bytes, which a directory inside a checkout at an
        # arbitrary path cannot promise: Ray gets a short one of its own
        self.ray_tmp = tempfile.mkdtemp(prefix="lbr")
        ray.init(num_cpus=self.cpus, include_dashboard=False, logging_level=logging.ERROR,
                 log_to_driver=False, object_store_memory=200 * 1024 * 1024,
                 runtime_env=runtime_env or None, _temp_dir=self.ray_tmp)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        if self.args.trace:
            self.local_spans = spans.Recorder()
            spans.install(self.local_spans)

    def make_inputs(self) -> None:
        spec, seed = self.spec, self.args.seed
        self.pages = gen.make_pages(spec, seed)
        self.shards = [gen.make_shard(spec, seed, i) for i in range(spec.shards)]
        self.shard_files = [
            (gen.shard_name(spec, i), gen.shard_bytes(spec, seed, i, t), t,
             2 if i >= spec.schema_cut else 1)
            for i, t in enumerate(self.shards)]
        self.pages_path = os.path.join(self.tmp, "pages.parquet")
        gen.write_pages(self.pages, self.pages_path)

    def warm_up(self) -> None:
        """One untimed pass of every engine path on a tiny lake of the same
        shape, so the timed rounds do not pay first-call costs."""
        tiny = replace(self.spec, pages=300, shards=2, shard_events=400,
                       schema_cut=1, batch_shards=1, epoch_width=400)
        seed = self.args.seed
        pages = gen.make_pages(tiny, seed)
        shards = [gen.make_shard(tiny, seed, i) for i in range(tiny.shards)]
        files = [(gen.shard_name(tiny, i), gen.shard_bytes(tiny, seed, i, t), t, 1 + (i >= 1))
                 for i, t in enumerate(shards)]
        path = os.path.join(self.tmp, "warm-pages.parquet")
        gen.write_pages(pages, path)
        eng, writer = self.new_lake("warm")
        eng.bootstrap(path)
        for f in files:
            writer.publish([f])
            eng.run()
        self.pull(eng.read_table())
        eng.lookup_urls([gen.page_url(1), gen.unseen_url(0)])
        self.pull(eng.read_changes(1, 2))
        eng.compact_now()
        self.dml(eng, 0)

    # ------------------------------------------------------------- engine

    def new_lake(self, tag: str):
        from gobblin_ray.engine import CdcEngine, EngineConfig

        d = os.path.join(self.tmp, tag)
        events = os.path.join(d, "events")
        cfg = EngineConfig(num_buckets=self.spec.buckets, epoch_width=self.spec.epoch_width)
        return CdcEngine(os.path.join(d, "lake"), events, cfg), gen.LogWriter(events)

    @staticmethod
    def pull(ds):
        """Stream a Dataset's blocks into this process as one table, or None
        when it has no rows (the checks read None as zero rows).
        (``to_arrow_refs`` would first run a ``limit(1)`` pass to learn the
        schema, a varying number of extra tasks.)"""
        import pyarrow as pa

        parts = [t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)
                 if t.num_rows]
        return pa.concat_tables(parts, promote_options="default") if parts else None

    @staticmethod
    def dml(eng, step: int) -> tuple[int, int, int]:
        """One DML step: (rows updated, rows deleted, buckets rewritten)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        old_lang, new_lang, status = DML_STEPS[step]
        up = eng.update_where(
            lambda t: pc.fill_null(pc.equal(t.column("lang"), old_lang), False),
            lambda t: {"lang": pa.array([new_lang] * t.num_rows, pa.string())})
        de = eng.delete_where(
            lambda t: pc.fill_null(pc.equal(t.column("fetch_status"), status), False))
        return int(up["updated"]), int(de["deleted"]), int(up["buckets"]) + int(de["buckets"])

    # ------------------------------------------------------------- checks

    def check(self, reason: str | None) -> None:
        if reason is not None:
            self.correct = False
            print(f"CHECK FAILED: {reason}", file=sys.stderr)

    def get_oracle(self):
        if self.oracle is None:
            from lakebench.oracle import Oracle

            self.oracle = Oracle(self.pages, self.shards)
        return self.oracle

    # -------------------------------------------------------------- round

    def round_ops(self) -> int:
        """Engine operations one round attempts (see ``_round``)."""
        s, spec = self.serve, self.spec
        half = spec.shards // 2
        batches = (-(-half // spec.batch_shards)
                   + -(-(spec.shards - half) // spec.batch_shards))
        # bootstraps, run() calls, mid-log manifest read + compaction + check
        # scan, manifest read after ingest, serve reads, final compaction +
        # check scan, and per DML step the DML + check scan
        return (2 + batches + 3 + 1 + s["scans"] + s["lookups"] + s["changes"] + 2
                + 2 * len(DML_STEPS))

    def op(self, fn, *args, sample: str | None = None):
        """Run one engine operation: count it, time it into ``sample``. One
        that raises is counted in ``failed`` and ends the round."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(repr(exc)) from exc
        if sample is not None:
            self.samples[sample].append(time.perf_counter() - t0)
        return out

    def scan(self, eng, sample: str | None = None):
        """One full ``read_table`` pulled into this process; its wall-clock
        window is kept so that a traced run can attribute reader tasks and
        file opens to scans."""
        w0 = time.time()
        out = self.op(lambda: self.pull(eng.read_table()), sample=sample)
        self.scan_windows.append((w0, time.time()))
        return out

    def one_round(self, index: int) -> None:
        planned, start = self.round_ops(), self.attempted
        try:
            self._round(index)
        except Exception as exc:
            if not isinstance(exc, OpFailed):  # a check could not read the engine's output
                self.correct = False
                traceback.print_exc(file=sys.stderr)
            left = planned - (self.attempted - start)
            self.attempted += left
            self.failed += left
            print(f"round {index} ended early: {exc!r}", file=sys.stderr)
            return
        if self.attempted - start != planned:
            raise RuntimeError(f"round attempted {self.attempted - start} operations, "
                               f"round_ops() says {planned}")

    def _round(self, index: int) -> None:
        from lakebench import oracle as orc

        spec, s = self.spec, self.serve
        head, half = spec.events - 1, spec.shards // 2
        mid = half * spec.shard_events - 1  # watermark after the first half
        ora = self.get_oracle()
        eng, writer = self.new_lake(f"round-{index}")
        spare, _ = self.new_lake(f"round-{index}-spare")
        rss = RssSampler().start()
        try:
            # two bootstraps per round: the lake, and a spare one dropped at once
            self.op(eng.bootstrap, self.pages_path, sample="bootstrap_s")
            self.op(spare.bootstrap, self.pages_path, sample="bootstrap_s")
            shutil.rmtree(os.path.dirname(spare.lake_dir), ignore_errors=True)

            # ingest in two halves with a compaction between them. catchup
            # publishes each half as one backlog; tail_avro publishes one
            # shard, waits for run() to commit it, then the next
            run_wall, reports = 0.0, []
            for h, part in enumerate((self.shard_files[:half], self.shard_files[half:])):
                for lo in range(0, len(part), spec.batch_shards):
                    writer.publish(part[lo:lo + spec.batch_shards])
                    t_pub, w0 = time.perf_counter(), time.time()
                    reports += self.op(eng.run)
                    self.ingest_windows.append((w0, time.time()))
                    dt = time.perf_counter() - t_pub
                    self.samples["commit_p50_s"].append(dt)
                    run_wall += dt
                if h == 0:
                    # the change feed is read from this compaction on: the
                    # run() after it vacuums the files older manifests hold
                    mid_live = ora.live(mid)
                    if half <= spec.schema_cut:  # no v2 shard yet: no fetch_status
                        mid_live = mid_live.drop_columns(["fetch_status"])
                    mid_epoch = self.compact(eng, self.op(eng.store.latest), mid_live)
            self.samples["replay_events_per_s"].append(spec.events / run_wall)
            manifest = self.op(eng.store.latest)
            written, planted = ora.log_counts(head)
            self.check(orc.check_watermark(manifest.high_seq, head))
            self.check(orc.check_counts(int(manifest.metrics.get("events_applied", 0)),
                                        int(manifest.metrics.get("errors_diverted", 0)),
                                        written, planted))
            salted = sum(r.salted_buckets for r in reports)
            self.extra["salted_buckets"] += salted
            self.check(orc.check_salting(spec, salted))
            self.samples["lake_mb"].append(tree_bytes(eng.lake_dir) / 1e6)

            live = ora.live(head)
            scan = None
            for _ in range(s["scans"]):
                scan = self.scan(eng, sample="scan_s")
                self.check(orc.check_live(scan, live))

            deleted = ora.deleted_urls(head)
            rng = np.random.default_rng([self.args.seed, 7, index])
            live_urls = live.column("url").to_pylist()
            for b in range(s["lookups"]):
                asked = ([live_urls[i] for i in rng.choice(len(live_urls), LOOKUP_MIX, False)]
                         + [deleted[i] for i in rng.choice(len(deleted), LOOKUP_MIX, False)]
                         + [gen.unseen_url(b * LOOKUP_MIX + k) for k in range(LOOKUP_MIX)])
                found = self.op(eng.lookup_urls, asked, sample="lookup_p50_s")
                self.check(orc.check_lookup(found, live, asked))

            want_feed = ora.changes(mid, head)
            for _ in range(s["changes"]):
                feed = self.op(lambda: self.pull(eng.read_changes(mid_epoch, manifest.epoch)),
                               sample="changes_s")
                self.check(orc.check_changes(feed, want_feed))

            self.compact(eng, manifest, live, before=scan)

            for step in range(len(orc.DML_STEPS)):
                updated, deleted, rewritten = self.op(self.dml, eng, step, sample="dml_s")
                self.extra["buckets_rewritten"] += rewritten
                want = ora.after_dml(live, orc.DML_STEPS[step])
                self.check(orc.check_dml((updated, deleted), self.scan(eng), want))
                live = want[0]
        finally:
            self.samples["peak_rss_mb"].append(rss.stop())
            for e in (eng, spare):
                shutil.rmtree(os.path.dirname(e.lake_dir), ignore_errors=True)

    def compact(self, eng, m0, live, before=None) -> int:
        """Timed ``compact_now`` from manifest ``m0``, then a check scan: no
        deltas left, rows equal to ``live`` and, when the scan ``before`` it
        is given, the same content digest as that scan. Returns the epoch of
        the compacted manifest."""
        from lakebench import oracle as orc

        m1 = self.op(eng.compact_now, sample="compact_s")
        self.extra["buckets_rewritten"] += sum(
            1 for st in m1.buckets.values() if m1.epoch != m0.epoch and st.base_epoch == m1.epoch)
        outstanding = sum(1 for st in m1.buckets.values() if st.delta_epochs)
        after = self.scan(eng)
        self.check(orc.check_compact(outstanding, after, live, before))
        return m1.epoch

    # ---------------------------------------------------------------- run

    def measure(self) -> tuple[int, float]:
        """Whole rounds until ``--seconds`` are spent (one when tracing);
        returns (rounds, median round wall time)."""
        rounds, durations = 0, []
        t_end = time.perf_counter() + self.args.seconds
        while True:
            t0 = time.perf_counter()
            self.one_round(rounds)
            durations.append(time.perf_counter() - t0)
            rounds += 1
            if self.args.trace or time.perf_counter() + statistics.median(durations) > t_end:
                return rounds, statistics.median(durations)


def tree_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(d, f))
            except OSError:
                pass
    return total


def stop_processes(pids: list[int], timeout: float = 30.0) -> None:
    """Wait for every process we started to end; kill what outlives it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = [p for p in pids if os.path.exists(f"/proc/{p}") and not _zombie(p)]
        if not alive:
            return
        time.sleep(0.2)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(
            os.path.exists(f"/proc/{p}") and not _zombie(p) for p in pids):
        time.sleep(0.2)


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def main() -> int:
    t_proc = process_start()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "gobblin_ray")):
        print(f"no gobblin_ray package next to {os.path.dirname(__file__)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    steal0 = steal_seconds()
    # short, because Ray's socket paths under it may not exceed 107 bytes
    run_root = os.path.join(ROOT, ".lbrun")
    os.makedirs(run_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="", dir=run_root)
    bench = Bench(args, tmp)
    started: list[int] = []
    try:
        t = [time.time()]
        bench.start_ray()
        started = descendants(os.getpid())
        t.append(time.time())
        bench.make_inputs()
        t.append(time.time())
        try:
            bench.warm_up()
        except Exception:  # the timed rounds count the failing operation
            traceback.print_exc(file=sys.stderr)
            print("warm-up ended early", file=sys.stderr)
        t.append(time.time())
        setup_parts = {"imports": t[0] - t_proc, "ray": t[1] - t[0],
                       "inputs": t[2] - t[1], "warm_up": t[3] - t[2]}
        bench.samples["setup_s"].append(t[3] - t_proc)
        t_round = time.time()
        rounds, round_s = bench.measure()
        round_window = (t_round, time.time())
        if args.trace:
            import ray
            from lakebench import spans

            timeline = ray.timeline()
            all_spans = spans.read_worker_spans(os.environ[spans.TRACE_ENV])
            all_spans += bench.local_spans.spans
            layer = spans.layer_metrics(all_spans, timeline, round_window, bench.ingest_windows,
                                        bench.scan_windows, bench.extra, bench.cpus)
    finally:
        import ray

        started = sorted(set(started) | set(descendants(os.getpid())))
        if ray.is_initialized():
            ray.shutdown()
        stop_processes(started)
        shutil.rmtree(tmp, ignore_errors=True)
        if bench.ray_tmp:
            shutil.rmtree(bench.ray_tmp, ignore_errors=True)
        try:
            os.rmdir(run_root)
        except OSError:
            pass

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": statistics.median(v), "unit": E2E_UNITS[k]}
                   for k, v in bench.samples.items() if v}
    info = {"workload": args.workload, "seed": args.seed, "cpus": bench.cpus,
            "rounds": rounds, "round_s": round(round_s, 3),
            "setup_parts": {k: round(v, 2) for k, v in setup_parts.items()},
            "samples": {k: len(v) for k, v in bench.samples.items()},
            "steal_s": round(steal_seconds() - steal0, 3)}
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bench.correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
