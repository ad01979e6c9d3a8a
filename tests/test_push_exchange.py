"""The engine's push exchange: plain Ray tasks route each epoch's events,
a bootstrap's snapshot rows and a rebucket's rows to their bucket reducers
by the bucket id the map side computes — no Ray Data read and no sort
shuffle — and a re-executed epoch stages byte-identical files."""

import dataclasses
import hashlib
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gobblin_ray import checkpoint as ckpt
from gobblin_ray import plan as planmod
from gobblin_ray import synth
from gobblin_ray.engine import CdcEngine, EngineConfig
from gobblin_ray.fixtures import planted_cdc_neardup_corpus
from gobblin_ray.sources.avro import write_container
from tests.oracle_util import oracle_final_state
from tests.test_engine_e2e import assert_matches_oracle, engine_df
from tests.test_engine_neardup import _index_rows


def _corpus(d: str) -> list[str]:
    """4,000 events in 8 shards of 4 row groups each (4 epochs at width
    1,000, several map tasks per epoch); returns the shard names."""
    synth.write_corpus(d, n_pages=200, n_events=4_000, shard_rows=500,
                       row_group_rows=125)
    return sorted(f for f in os.listdir(f"{d}/events") if f.endswith(".parquet"))


def _refuse_ray_data(monkeypatch, groupby_outside_engine: bool = False):
    """Make Ray Data's parquet and binary readers and ``Dataset.groupby``
    raise in the driver; ``groupby_outside_engine`` still lets modules
    other than the engine group (the near-dup index builds on one)."""
    import ray.data

    def refuse(*a, **k):
        raise AssertionError("the engine started a Ray Data read or groupby")

    for name in ("read_parquet", "read_binary_files"):
        monkeypatch.setattr(ray.data, name, refuse)
    groupby = refuse
    if groupby_outside_engine:
        real = ray.data.Dataset.groupby

        def groupby(self, *a, **k):
            if sys._getframe(1).f_globals.get("__name__") == "gobblin_ray.engine":
                refuse()
            return real(self, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "groupby", groupby)


def _snapshot(pages_path: str, kind: str, out: str) -> str:
    """The corpus snapshot as a parquet file, one avro container, or a
    directory of four shards alternating parquet and avro."""
    if kind == "parquet":
        return pages_path
    pages = pq.read_table(pages_path)
    if kind == "avro":
        write_container(pages, f"{out}/pages.avro")
        return f"{out}/pages.avro"
    step = -(-pages.num_rows // 4)
    for i in range(4):
        part = pages.slice(i * step, step)
        if i % 2:
            write_container(part, f"{out}/part-{i}.avro")
        else:
            pq.write_table(part, f"{out}/part-{i}.parquet", row_group_size=20)
    return out


@pytest.mark.parametrize("log,snapshot,rebucket", [
    pytest.param("parquet", "parquet", False, id="parquet"),
    pytest.param("mixed", "parquet", False, id="mixed"),
    pytest.param("parquet", "avro", False, id="avro-snapshot"),
    pytest.param("parquet", "mixed", False, id="mixed-snapshot"),
    pytest.param("parquet", "parquet", True, id="rebucket"),
])
def test_replay_uses_no_ray_data_exchange(ray_session, tmp_path_factory,
                                          monkeypatch, log, snapshot,
                                          rebucket):
    """Bootstrap and a salted replay run with Ray Data's readers and
    groupby raising in the driver and still land oracle-identical: the
    sort path is gone. ``mixed`` turns every other log shard into an avro
    container; ``snapshot`` bootstraps from an avro container or a mixed
    shard directory; ``rebucket`` migrates 8 -> 16 buckets after three
    epochs (the third is salted), leaving the live rows unchanged."""
    d = str(tmp_path_factory.mktemp(f"px_corpus_{log}"))
    shards = _corpus(d)
    events = [pq.read_table(f"{d}/events/{f}") for f in shards]
    events_dir = f"{d}/events"
    if log == "mixed":
        events_dir = str(tmp_path_factory.mktemp("px_mixed_events"))
        for i, f in enumerate(shards):
            if i % 2:
                write_container(events[i], f"{events_dir}/{f[:-8]}.avro")
            else:
                pq.write_table(events[i], f"{events_dir}/{f}", row_group_size=125)
    pages = _snapshot(f"{d}/pages.parquet", snapshot,
                      str(tmp_path_factory.mktemp("px_snapshot")))
    lake = str(tmp_path_factory.mktemp(f"px_lake_{log}"))
    cfg = EngineConfig(num_buckets=8, epoch_width=1_000, hot_factor=0.1,
                       max_salt=4)
    eng = CdcEngine(lake, events_dir, cfg)
    _refuse_ray_data(monkeypatch)
    eng.bootstrap(pages)
    if rebucket:
        reports = eng.run(max_epochs=3, vacuum=False)
        before = eng.read_table_arrow().sort_by("url")
        assert eng.rebucket(16).num_buckets == 16
        assert eng.read_table_arrow().sort_by("url").equals(before)
        eng = CdcEngine(lake, events_dir,
                        dataclasses.replace(cfg, num_buckets=16))
        reports += eng.run(vacuum=False)
    else:
        reports = eng.run(vacuum=False)
    monkeypatch.undo()
    assert len(reports) == 4
    assert eng.store.latest().metrics["salted_buckets"] > 0
    oracle = oracle_final_state(pq.read_table(f"{d}/pages.parquet"), events)
    assert_matches_oracle(engine_df(eng), oracle)


def test_neardup_bootstrap_seeds_index_without_ray_data_read(
        ray_session, tmp_path_factory, monkeypatch):
    """A near-dup bootstrap reads its snapshot once, through the exchange
    (no Ray Data read, no groupby in the engine), and seeds the index with
    every page that has text."""
    corpus, _ = planted_cdc_neardup_corpus()
    lake = str(tmp_path_factory.mktemp("px_neardup_lake"))
    eng = CdcEngine(lake, f"{corpus}/events", EngineConfig(
        num_buckets=4, epoch_width=4, pipeline_epochs=1, neardup_dedup=True))
    _refuse_ray_data(monkeypatch, groupby_outside_engine=True)
    eng.bootstrap(f"{corpus}/pages.parquet")
    monkeypatch.undo()
    pages = pq.read_table(f"{corpus}/pages.parquet")
    with_text = {u for u, t in zip(pages.column("url").to_pylist(),
                                   pages.column("text").to_pylist()) if t}
    assert with_text and _index_rows(lake) and {
        doc for _, doc in _index_rows(lake)} == with_text


def test_bootstrap_snapshot_ties_resolve_in_file_order(ray_session,
                                                       tmp_path_factory):
    """A url two snapshot shards carry at the same warc_ts lands with the
    later shard's row, and two fresh bootstraps write byte-identical base
    files."""
    snap = str(tmp_path_factory.mktemp("px_ties_snapshot"))
    ts = pa.array([1_700_000_000_000_000] * 60, pa.timestamp("us"))
    for shard, (lo, tag) in enumerate([(0, "first"), (30, "second")]):
        urls = [f"http://tie/{i}" for i in range(lo, lo + 60)]
        pq.write_table(pa.table({
            "url": urls, "warc_ts": ts,
            "html": pa.array([f"{tag} {u}".encode() for u in urls], pa.binary()),
            "text": [f"{tag} {u}" for u in urls], "lang": ["en"] * 60,
        }), f"{snap}/part-{shard}.parquet", row_group_size=10)

    def load() -> tuple[dict, dict]:
        lake = str(tmp_path_factory.mktemp("px_ties_lake"))
        eng = CdcEngine(lake, lake, EngineConfig(num_buckets=4))
        eng.bootstrap(snap)
        data = f"{lake}/data"
        files = {os.path.relpath(os.path.join(r, f), data):
                 hashlib.sha256(open(os.path.join(r, f), "rb").read()).hexdigest()
                 for r, _, fs in os.walk(data) for f in fs}
        t = eng.read_table_arrow()
        return dict(zip(t.column("url").to_pylist(),
                        t.column("text").to_pylist())), files

    rows, files = load()
    assert len(rows) == 90
    for i in range(90):
        tag = "first" if i < 30 else "second"
        assert rows[f"http://tie/{i}"] == f"{tag} http://tie/{i}"
    assert load()[1] == files


def test_reexecuted_epoch_stages_identical_files(ray_session, tmp_path_factory):
    """Executing one (salted) epoch twice before its commit stages the same
    delta and errors files, byte for byte — the exactly-once resume path
    re-executes epochs whose promote may already have landed."""
    d = str(tmp_path_factory.mktemp("px_rerun_corpus"))
    shards = _corpus(d)
    p = f"{d}/events/{shards[2]}"  # read by epoch 2
    t = pq.read_table(p)
    op, url = t.column("op").to_pylist(), t.column("url").to_pylist()
    op[5], op[300] = "BAD:" + op[5], "BAD:" + op[300]
    url[7] = None
    t = t.set_column(t.schema.get_field_index("op"), "op", pa.array(op, pa.string()))
    t = t.set_column(t.schema.get_field_index("url"), "url", pa.array(url, pa.string()))
    pq.write_table(t, p, row_group_size=125)

    lake = str(tmp_path_factory.mktemp("px_rerun_lake"))
    eng = CdcEngine(lake, f"{d}/events", EngineConfig(
        num_buckets=8, epoch_width=1_000, hot_factor=0.1, max_salt=4))
    eng.bootstrap(f"{d}/pages.parquet")
    eng.run(max_epochs=1, vacuum=False)
    m1 = eng.store.latest()
    log_meta = planmod.load_log_meta(f"{d}/events")
    [ep2] = planmod.plan_epochs(log_meta, m1.high_seq, 1_000, 2)[:1]
    stage = os.path.dirname(ckpt.staging_path(lake, 2, 0))

    def staged() -> dict[str, str]:
        return {f: hashlib.sha256(open(os.path.join(stage, f), "rb").read()).hexdigest()
                for f in sorted(os.listdir(stage))}

    first = eng._execute_epoch(ep2, m1, log_meta)
    files = staged()
    assert first["salted"] > 0
    assert any(f.endswith(".errors.parquet") for f in files)
    assert any(f.endswith(".delta.parquet") for f in files)
    second = eng._execute_epoch(ep2, m1, log_meta)
    assert staged() == files
    assert sum(r["errors"] for r in second["lineage"]) == 3


def _count_launches(monkeypatch):
    """Count the engine's task launches by task name (``_remote`` wrapped
    in the driver)."""
    import collections

    from gobblin_ray import engine

    launched = collections.Counter()
    real = engine._remote

    class Counted:
        def __init__(self, fn):
            self.task = real(fn)

        def options(self, **kw):
            task = self.task.options(**kw)

            class Launch:
                def remote(_, *a, **k):
                    launched[kw.get("name")] += 1
                    return task.remote(*a, **k)
            return Launch()

    monkeypatch.setattr(engine, "_remote", Counted)
    return launched


def _avro_log(d: str, out: str, files: int) -> list[pa.Table]:
    """The first ``files`` thousand events of the corpus as avro shards of
    1,000 events in two 500-row blocks each: an epoch of width 1,000
    reads one shard, as two block splits. Returns the shards' tables."""
    shards = _corpus(d)
    events = pa.concat_tables([pq.read_table(f"{d}/events/{f}") for f in shards],
                              promote_options="default")
    parts = [events.slice(1_000 * i, 1_000) for i in range(files)]
    for i, t in enumerate(parts):
        write_container(t, f"{out}/part-{i:05d}.avro", rows_per_block=500)
    return parts


def test_packed_epoch_task_shape(ray_session, tmp_path_factory, monkeypatch):
    """A two-block avro epoch runs 2 ``route_events`` tasks and packs its
    touched buckets into min(touched, CPUs) ``merge_bucket`` tasks; a
    salted epoch adds one per hot bucket. The lineage still holds one row
    per touched bucket, in bucket order, each timing its own merge."""
    import ray

    from gobblin_ray.engine import _bucket_ids

    d = str(tmp_path_factory.mktemp("px_pack_corpus"))
    events_dir = str(tmp_path_factory.mktemp("px_pack_events"))
    parts = _avro_log(d, events_dir, 2)
    lake = str(tmp_path_factory.mktemp("px_pack_lake"))
    eng = CdcEngine(lake, events_dir, EngineConfig(
        num_buckets=16, epoch_width=1_000, hot_factor=1.0, max_salt=4))
    m0 = eng.bootstrap(f"{d}/pages.parquet")
    log_meta = planmod.load_log_meta(events_dir)
    ep1, ep2 = planmod.plan_epochs(log_meta, m0.high_seq, 1_000, 1)
    cpus = int(ray.cluster_resources()["CPU"])

    launched = _count_launches(monkeypatch)
    first = eng._execute_epoch(ep1, m0, log_meta)
    lineage = first["lineage"]
    touched = set(_bucket_ids(parts[0].column("url"), 16).tolist())
    assert [r["bucket"] for r in lineage] == sorted(touched)
    assert launched["route_events"] == 2
    assert launched["merge_bucket"] == min(len(touched), cpus) < len(touched)
    secs = [r["merge_sec"] for r in lineage]
    assert all(s > 0 for s in secs) and len(set(secs)) > 1

    monkeypatch.undo()
    eng.apply_epoch(ep1, m0, log_meta)
    m1 = eng.store.latest()
    launched = _count_launches(monkeypatch)
    second = eng._execute_epoch(ep2, m1, log_meta)
    hot = second["salt_map"]
    assert hot and launched["salted_partial"] >= len(hot)
    touched = {r["bucket"] for r in second["lineage"]}
    assert len(second["lineage"]) == len(touched)
    assert launched["merge_bucket"] <= min(len(touched - set(hot)), cpus) + len(hot)


def test_kill_inside_packed_epoch_resumes_identically(ray_session,
                                                      tmp_path_factory):
    """A packed merge task that dies part way through its buckets (one
    bucket's staged file cannot be written) fails the run; the resumed run
    lands the same data files, byte for byte, as a run that never died."""
    d = str(tmp_path_factory.mktemp("px_kill_corpus"))
    events_dir = str(tmp_path_factory.mktemp("px_kill_events"))
    _avro_log(d, events_dir, 3)
    cfg = EngineConfig(num_buckets=16, epoch_width=1_000, pipeline_epochs=1)

    def files(lake: str) -> dict[str, str]:
        data = f"{lake}/data"
        return {os.path.relpath(os.path.join(r, f), data):
                hashlib.sha256(open(os.path.join(r, f), "rb").read()).hexdigest()
                for r, _, fs in os.walk(data) for f in fs}

    clean = str(tmp_path_factory.mktemp("px_kill_clean"))
    eng = CdcEngine(clean, events_dir, cfg)
    eng.bootstrap(f"{d}/pages.parquet")
    eng.run(vacuum=False)
    touched = [b for b in range(16)
               if os.path.exists(ckpt.delta_path(clean, b, 2))]

    lake = str(tmp_path_factory.mktemp("px_kill_lake"))
    eng = CdcEngine(lake, events_dir, cfg)
    eng.bootstrap(f"{d}/pages.parquet")
    eng.run(max_epochs=1, vacuum=False)
    blocker = ckpt.staging_path(lake, 2, max(touched), "delta")
    os.makedirs(blocker)  # the last bucket of its task cannot be staged
    with pytest.raises(Exception):
        eng.run(vacuum=False)
    assert eng.store.latest().epoch == 1
    stage = os.path.dirname(blocker)
    assert any(f.endswith(".delta.parquet") for f in os.listdir(stage))
    os.rmdir(blocker)
    eng.run(vacuum=False)
    assert eng.store.latest().epoch == 3
    assert files(lake) == files(clean)
