"""The epoch's push exchange: plain Ray tasks route each epoch's events to
their bucket merges by the bucket id the map side computes — no Ray Data
read and no sort shuffle on the replay path — and a re-executed epoch
stages byte-identical files."""

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from gobblin_ray import checkpoint as ckpt
from gobblin_ray import plan as planmod
from gobblin_ray import synth
from gobblin_ray.engine import CdcEngine, EngineConfig
from gobblin_ray.sources.avro import write_container
from tests.oracle_util import oracle_final_state
from tests.test_engine_e2e import assert_matches_oracle, engine_df


def _corpus(d: str) -> list[str]:
    """4,000 events in 8 shards of 4 row groups each (4 epochs at width
    1,000, several map tasks per epoch); returns the shard names."""
    synth.write_corpus(d, n_pages=200, n_events=4_000, shard_rows=500,
                       row_group_rows=125)
    return sorted(f for f in os.listdir(f"{d}/events") if f.endswith(".parquet"))


@pytest.mark.parametrize("log", ["parquet", "mixed"])
def test_replay_uses_no_ray_data_exchange(ray_session, tmp_path_factory,
                                          monkeypatch, log):
    """A salted replay runs with Ray Data's readers and groupby raising in
    the driver and still lands oracle-identical: the sort path is gone.
    ``mixed`` turns every other shard into an avro container."""
    import ray.data

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
    lake = str(tmp_path_factory.mktemp(f"px_lake_{log}"))
    eng = CdcEngine(lake, events_dir, EngineConfig(
        num_buckets=8, epoch_width=1_000, hot_factor=0.1, max_salt=4))
    eng.bootstrap(f"{d}/pages.parquet")

    def refuse(*a, **k):
        raise AssertionError("the replay path started a Ray Data job")

    for name in ("read_parquet", "read_binary_files"):
        monkeypatch.setattr(ray.data, name, refuse)
    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)
    reports = eng.run(vacuum=False)
    monkeypatch.undo()
    assert len(reports) == 4
    assert eng.store.latest().metrics["salted_buckets"] > 0
    oracle = oracle_final_state(pq.read_table(f"{d}/pages.parquet"), events)
    assert_matches_oracle(engine_df(eng), oracle)


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
