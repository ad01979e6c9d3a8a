"""Golden manifests of the maintenance commands.

Every command that rewrites buckets at a pinned watermark (compact_now,
update_where, delete_where, purge_keys, rebucket, repair) runs on a copy
of one small lake that carries outstanding deltas, a column rename and a
constraint. The committed manifest is then checked field by field against
the state before the command: what is carried, what is reset on the
rewritten buckets, which buckets are rewritten, and how far the metric
counters move."""

import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from gobblin_ray import checkpoint as ckpt
from gobblin_ray import synth
from gobblin_ray.engine import CdcEngine, EngineConfig, stable_hash_u64

BUCKETS = 4
CFG = dict(num_buckets=BUCKETS, epoch_width=500, compact_every=100)
CONSTRAINT = {"kind": "not_null", "column": "url"}


@pytest.fixture(scope="module")
def template(ray_session, tmp_path_factory):
    """A lake with deltas outstanding in every bucket, whose files still
    carry the pre-rename column name ``lang`` (now ``language``)."""
    corpus = str(tmp_path_factory.mktemp("golden_corpus"))
    synth.write_corpus(corpus, n_pages=200, n_events=1500, shard_rows=500,
                       seed=11)
    lake = str(tmp_path_factory.mktemp("golden_lake"))
    eng = CdcEngine(lake, f"{corpus}/events", EngineConfig(**CFG))
    eng.bootstrap(f"{corpus}/pages.parquet")
    eng.run(vacuum=False)
    eng.rename_column("lang", "language")
    eng.add_constraint("url_present", CONSTRAINT)
    m = eng.store.latest()
    assert all(s.delta_epochs for s in m.buckets.values())
    return corpus, lake


def _clone(template, tmp_path, name="lake"):
    corpus, lake = template
    dst = str(tmp_path / name)
    shutil.copytree(lake, dst)
    return CdcEngine(dst, f"{corpus}/events", EngineConfig(**CFG))


def _bucket_of(urls, n=BUCKETS):
    h = stable_hash_u64(pa.array(list(urls), pa.string()))
    return {int(b) for b in h % n}


def _merged(eng, b):
    """One bucket's merged state (tombstones kept), in current names."""
    return _merged_at(eng, eng.store.latest(), b)


def _merged_at(eng, m, b):
    from gobblin_ray.merge import merge_bases
    from gobblin_ray.schema import apply_renames

    files = ckpt.bucket_files(eng.lake_dir, m.buckets[b])
    return merge_bases(
        [apply_renames(pq.read_table(p), m.column_renames) for p in files],
        m.base_schema())


def _pick_urls(eng, k=2):
    """The first live url of k distinct buckets (so others stay clean)."""
    live = eng.read_table_arrow()
    urls, seen = [], set()
    for u in live.column("url").to_pylist():
        (b,) = _bucket_of([u])
        if b not in seen:
            seen.add(b)
            urls.append(u)
        if len(urls) == k:
            break
    return urls


def _cmd_compact(template, tmp_path):
    eng = _clone(template, tmp_path)
    before = eng.store.latest()
    eng.compact_now()
    touched = {b for b, s in before.buckets.items() if s.delta_epochs}
    return eng, before, touched, {"forced_compactions": 1,
                                  "compactions": len(touched)}


def _cmd_update(template, tmp_path):
    eng = _clone(template, tmp_path)
    before = eng.store.latest()
    urls = _pick_urls(eng)
    out = eng.update_where(
        lambda t: pc.is_in(t.column("url"), value_set=pa.array(urls)),
        lambda t: {"language": pa.array(["xx"] * t.num_rows)},
    )
    assert out["updated"] == len(urls)
    return eng, before, _bucket_of(urls), {"dml_updated_rows": len(urls)}


def _cmd_delete(template, tmp_path):
    eng = _clone(template, tmp_path)
    before = eng.store.latest()
    urls = _pick_urls(eng)
    out = eng.delete_where(
        lambda t: pc.is_in(t.column("url"), value_set=pa.array(urls)))
    assert out["deleted"] == len(urls)
    return eng, before, _bucket_of(urls), {"dml_deleted_rows": len(urls)}


def _cmd_purge(template, tmp_path):
    eng = _clone(template, tmp_path)
    before = eng.store.latest()
    urls = _pick_urls(eng) + ["http://never.example/absent"]
    owners = _bucket_of(urls[:2])
    purged = sum(
        int(pc.sum(pc.cast(pc.is_in(_merged(eng, b).column("url"),
                                    value_set=pa.array(urls)),
                           pa.int64())).as_py())
        for b in owners)
    touched = {b for b in _bucket_of(urls) if before.buckets[b].rows > 0}
    out = eng.purge_keys(urls, drop_history=False)
    assert out["purged_rows"] == purged
    return eng, before, touched, {"purged_rows": purged,
                                  "purged_keys": len(urls)}


def _cmd_repair(template, tmp_path):
    from gobblin_ray.repair import repair

    src = _clone(template, tmp_path, "src")
    dst = _clone(template, tmp_path, "dst")
    before = dst.store.latest()
    # bit-rot in one bucket's base file: drop its last row
    st = next(s for _, s in sorted(before.buckets.items()) if s.rows > 1)
    base = ckpt.bucket_files(dst.lake_dir, st)[0]
    t = pq.read_table(base)
    pq.write_table(t.slice(0, t.num_rows - 1), base)
    out = repair(src, dst)
    assert out["mismatched"] == [st.bucket] and out["repaired"] == 1
    return dst, before, {st.bucket}, {"repairs": 1}


def _cmd_rebucket(template, tmp_path):
    eng = _clone(template, tmp_path)
    before = eng.store.latest()
    eng.rebucket(2 * BUCKETS)
    return eng, before, None, {}


COMMANDS = {
    "compact_now": _cmd_compact,
    "rebucket": _cmd_rebucket,
    "update_where": _cmd_update,
    "delete_where": _cmd_delete,
    "purge_keys": _cmd_purge,
    "repair": _cmd_repair,
}


def _staged_rows(lake, b, epoch):
    return pq.read_metadata(ckpt.base_path(lake, b, epoch)).num_rows


def _check_relayout(eng, before, after):
    """rebucket re-lays the lake out: one fresh base per new bucket at
    the pinned watermark, per-bucket counters restart, the rename map is
    spent (every file is rewritten under current names)."""
    assert after.num_buckets == 2 * BUCKETS
    assert after.column_renames == {}
    assert sorted(after.buckets) == list(range(after.num_buckets))
    total = sum(int(pc.sum(pc.cast(pc.is_valid(_merged_at(eng, before, b)
                                               .column("url")), pa.int64()))
                        .as_py() or 0)
                for b, s in before.buckets.items() if s.rows)
    assert sum(s.rows for s in after.buckets.values()) == total > 0
    for b, s in after.buckets.items():
        assert s.bucket == b and s.high_seq == before.high_seq
        assert s.delta_epochs == [] and s.delta_rows == 0
        assert s.events_applied == 0 and s.events_epoch == 0
        assert s.ts_ranges == {} and s.merge_sec == 0.0 and s.salt_carry == 0
        if not s.rows:
            assert s.base_epoch == -1
            continue
        assert s.base_epoch == after.epoch
        assert s.rows == _staged_rows(eng.lake_dir, b, after.epoch)
        urls = pq.read_table(ckpt.base_path(eng.lake_dir, b, after.epoch),
                             columns=["url"]).column("url").to_pylist()
        assert urls == sorted(urls)
        assert _bucket_of(urls, after.num_buckets) == {b}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_maintenance_manifest_golden(name, template, tmp_path):
    eng, before, touched, moved = COMMANDS[name](template, tmp_path)
    after = eng.store.latest()
    # epoch and watermark pinned
    assert after.epoch == before.epoch + 1
    assert after.low_seq == after.high_seq == before.high_seq
    assert after.event_count == 0 and after.error_count == 0
    # router stamp, schema and constraints carried
    assert after.bucket_hash == before.bucket_hash
    assert after.schema_ipc == before.schema_ipc
    assert after.schema_fingerprint == before.schema_fingerprint
    assert after.constraints == before.constraints == {
        "url_present": CONSTRAINT}
    # counters move by exactly the command's amount, and no other moves
    for k in set(before.metrics) | set(after.metrics) | set(moved):
        assert (after.metrics.get(k, 0) - before.metrics.get(k, 0)
                == moved.get(k, 0)), k
    if name == "rebucket":
        _check_relayout(eng, before, after)
        return
    assert touched
    # layout and renames carried (untouched buckets keep pre-rename files)
    assert after.num_buckets == before.num_buckets
    assert after.column_renames == before.column_renames == {
        "lang": "language"}
    assert sorted(after.buckets) == sorted(before.buckets)
    for b, old in before.buckets.items():
        new = after.buckets[b]
        if b not in touched:
            assert new == old, b
            continue
        assert new.bucket == b
        assert new.base_epoch == after.epoch
        assert new.delta_epochs == [] and new.delta_rows == 0
        assert new.rows == _staged_rows(eng.lake_dir, b, after.epoch)
        assert new.events_applied == old.events_applied
        assert new.events_epoch == 0
        assert new.ts_ranges == {}
        assert new.merge_sec == 0.0 and new.salt_carry == 0
        assert new.high_seq == old.high_seq
