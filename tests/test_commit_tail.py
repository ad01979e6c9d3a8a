"""The one commit tail of every manifest writer.

Every command that commits a manifest builds it with
``CdcEngine._manifest`` and commits it through ``CdcEngine._commit``:
promote, fold the counters, ``store.commit``, tracking event. These tests
pin what that buys:

- a crash-window matrix: ``store.commit`` raises once, after the promote
  has run; the lake still serves the old manifest, and re-running the
  command with a fresh engine ends byte-identical to a clean run;
- counters fold from the predecessor manifest, so a commit made by
  another engine is never erased;
- the key-routing commands (``purge_keys``, ``lookup_urls``,
  ``redrive_errors``) refuse a lake laid out by another router, and
  ``rebucket`` migrates it;
- a meta-test: ``store.commit`` and ``Manifest(`` each appear at exactly
  one site in the package."""

import ast
import hashlib
import json
import os
import pathlib
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
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "gobblin_ray"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("tail_corpus"))
    synth.write_corpus(out, n_pages=200, n_events=1500, shard_rows=500,
                       seed=11)
    return out


@pytest.fixture(scope="module")
def template(ray_session, corpus, tmp_path_factory):
    """A lake with deltas outstanding in every bucket, a column rename
    and a constraint, plus two urls in distinct buckets."""
    lake = str(tmp_path_factory.mktemp("tail_lake"))
    eng = CdcEngine(lake, f"{corpus}/events", EngineConfig(**CFG))
    eng.bootstrap(f"{corpus}/pages.parquet")
    eng.run(max_epochs=2, vacuum=False)
    eng.rename_column("lang", "language")
    eng.add_constraint("url_present", {"kind": "not_null", "column": "url"})
    urls = sorted(eng.read_table_arrow().column("url").to_pylist())
    owners = stable_hash_u64(pa.array(urls, pa.string())) % BUCKETS
    first = {}
    for u, b in zip(urls, owners):
        first.setdefault(int(b), u)
    return lake, sorted(first.values())[:2]


def _url_in(urls):
    return lambda t: pc.is_in(t.column("url"), value_set=pa.array(urls))


def _repair(eng, urls):
    """``repair`` into ``eng`` from a pristine copy of its own lake, after
    dropping the last row of one base file (bit-rot)."""
    from gobblin_ray.repair import repair

    src = eng.lake_dir + "_src"
    if not os.path.exists(src):
        shutil.copytree(eng.lake_dir, src)
        m = eng.store.latest()
        st = next(s for _, s in sorted(m.buckets.items()) if s.rows > 1)
        base = ckpt.bucket_files(eng.lake_dir, st)[0]
        t = pq.read_table(base)
        pq.write_table(t.slice(0, t.num_rows - 1), base)
    return repair(CdcEngine(src, eng.events_dir, eng.cfg), eng)


# command -> (run it on an engine, does it promote data files)
COMMANDS = {
    "compact_now": (lambda e, u: e.compact_now(), True),
    "delete_where": (lambda e, u: e.delete_where(_url_in(u)), True),
    "purge_keys": (lambda e, u: e.purge_keys(u), True),
    "rebucket": (lambda e, u: e.rebucket(2 * BUCKETS), True),
    "repair": (_repair, True),
    "drop_column": (lambda e, u: e.drop_column("text"), False),
    "rename_column": (lambda e, u: e.rename_column("language", "lang2"),
                      False),
    "add_constraint": (lambda e, u: e.add_constraint(
        "seq_positive", {"kind": "range", "column": "event_seq", "lo": -1}),
        False),
    "drop_constraint": (lambda e, u: e.drop_constraint("url_present"),
                        False),
}


def _data_digest(lake):
    out = {}
    root = os.path.join(lake, ckpt.DATA_DIR)
    for r, _, fs in os.walk(root):
        for f in fs:
            p = os.path.join(r, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def _latest_json(lake):
    store = ckpt.CheckpointStore(lake)
    epochs = store.committed_epochs()
    if not epochs:
        return None
    with open(store._path(epochs[-1])) as f:
        return json.load(f)


def _crash_once(eng):
    """Make ``eng.store.commit`` raise on its next call only."""
    real = eng.store.commit

    def boom(manifest):
        eng.store.commit = real
        raise RuntimeError("injected crash before the manifest write")

    eng.store.commit = boom


def _promoted_at(lake, epoch):
    root = pathlib.Path(lake) / ckpt.DATA_DIR
    return sorted(root.glob(f"bucket=*/*-epoch{epoch:06d}.parquet"))


def _check_crash_then_resume(make_engine, run, lake, clean_lake, stages):
    eng = make_engine(lake)
    before = _latest_json(lake)
    next_epoch = before["epoch"] + 1 if before else 0
    _crash_once(eng)
    with pytest.raises(RuntimeError, match="injected"):
        run(eng)
    # the crash hit after the promote, and nothing was committed
    assert bool(_promoted_at(lake, next_epoch)) == stages
    assert _latest_json(lake) == before
    run(make_engine(lake))
    run(make_engine(clean_lake))
    assert _data_digest(lake) == _data_digest(clean_lake)
    assert _latest_json(lake) == _latest_json(clean_lake)
    assert _latest_json(lake)["epoch"] == next_epoch


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commit_crash_window_resumes(name, template, corpus, tmp_path):
    """A crash between the promote and the manifest write of any
    maintenance command or DDL leaves the lake at its last manifest; the
    same command re-run by a fresh engine converges to a clean run."""
    lake, urls = template
    fn, stages = COMMANDS[name]
    crashed, clean = str(tmp_path / "crashed"), str(tmp_path / "clean")
    shutil.copytree(lake, crashed)
    shutil.copytree(lake, clean)

    def make_engine(d):
        return CdcEngine(d, f"{corpus}/events", EngineConfig(**CFG))

    _check_crash_then_resume(make_engine, lambda e: fn(e, urls), crashed,
                             clean, stages)


def test_bootstrap_crash_window_resumes(ray_session, corpus, tmp_path):
    """Bootstrap has no predecessor: a crash before its manifest leaves no
    manifest at all, and a fresh engine's bootstrap converges to a clean
    one."""
    def make_engine(d):
        return CdcEngine(d, f"{corpus}/events", EngineConfig(**CFG))

    _check_crash_then_resume(
        make_engine, lambda e: e.bootstrap(f"{corpus}/pages.parquet"),
        str(tmp_path / "crashed"), str(tmp_path / "clean"), True)


def test_counters_fold_from_predecessor(ray_session, corpus, tmp_path):
    """A manifest's counters are its predecessor's plus this commit's
    increments — never the driver's process-local copy, which misses
    commits made by another engine since it was constructed."""
    lake = str(tmp_path / "lake")
    a = CdcEngine(lake, f"{corpus}/events", EngineConfig(**CFG))
    a.bootstrap(f"{corpus}/pages.parquet")
    a.run(max_epochs=1, vacuum=False)
    dirty = sum(1 for s in a.store.latest().buckets.values()
                if s.delta_epochs)
    b = CdcEngine(lake, f"{corpus}/events", EngineConfig(**CFG))
    forced = b.compact_now()
    assert forced.metrics["forced_compactions"] == 1
    assert forced.metrics["compactions"] == dirty > 0
    assert a.run(vacuum=False)
    chain = [a.store.load(e) for e in a.store.committed_epochs()]
    for prev, cur in zip(chain, chain[1:]):
        for k, v in prev.metrics.items():
            assert cur.metrics.get(k, 0) >= v, (cur.epoch, k)
    head = chain[-1]
    assert head.metrics["forced_compactions"] == 1
    assert head.metrics["compactions"] >= dirty
    assert head.metrics["epochs_committed"] == head.epoch - 1
    # the driver's MetricContext mirrors the committed counters
    assert a.metrics.counters() == head.metrics


def _legacy_stamp(lake):
    """Rewrite the latest manifest as an older build wrote it: no router
    field, so it reads as the legacy siphash router."""
    store = ckpt.CheckpointStore(lake)
    path = store._path(store.latest().epoch)
    with open(path) as f:
        d = json.load(f)
    del d["bucket_hash"]
    with open(path, "w") as f:
        json.dump(d, f)
    assert store.latest().bucket_hash == ckpt._LEGACY_BUCKET_HASH


def test_point_commands_check_the_router(ray_session, corpus, tmp_path):
    """``purge_keys`` and ``lookup_urls`` route keys with the current
    hash, and ``redrive_errors`` routes events like ``run``, so on a lake
    stamped with another router they raise and commit nothing.
    ``rebucket`` re-routes every row: it stamps the current router, and
    the lake then serves and resumes like one that never carried the
    legacy stamp."""
    cfg = EngineConfig(**CFG)
    lake = str(tmp_path / "lake")
    eng = CdcEngine(lake, f"{corpus}/events", cfg)
    eng.bootstrap(f"{corpus}/pages.parquet")
    eng.run(max_epochs=1, vacuum=False)
    url = sorted(eng.read_table_arrow().column("url").to_pylist())[0]
    _legacy_stamp(lake)
    before = _latest_json(lake)
    epochs = eng.store.committed_epochs()
    for call in (lambda: eng.purge_keys([url]),
                 lambda: eng.lookup_urls([url]),
                 lambda: eng.redrive_errors()):
        with pytest.raises(RuntimeError, match="bucket router"):
            call()
        assert eng.store.committed_epochs() == epochs
        assert _latest_json(lake) == before

    m = eng.rebucket(BUCKETS)
    assert m.bucket_hash == ckpt.BUCKET_HASH_VERSION
    assert eng.lookup_urls([url]).column("url").to_pylist() == [url]
    assert CdcEngine(lake, f"{corpus}/events", cfg).run(vacuum=False)

    ref = str(tmp_path / "ref")
    ref_eng = CdcEngine(ref, f"{corpus}/events", cfg)
    ref_eng.bootstrap(f"{corpus}/pages.parquet")
    ref_eng.run(vacuum=False)
    got = eng.read_table_arrow().sort_by("url")
    want = ref_eng.read_table_arrow().sort_by("url")
    assert got.equals(want)


def _calls(tree):
    """(call node, name of the innermost enclosing function) pairs."""
    out = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = fn
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                out.append((child, inner))
            walk(child, inner)

    walk(tree, None)
    return out


def test_one_commit_site_and_one_manifest_builder():
    """Outside checkpoint.py, ``.store.commit(`` is called only by
    ``CdcEngine._commit`` and ``Manifest(`` is constructed at one site: a
    writer that bypasses the commit tail fails here."""
    commits, builds = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "checkpoint.py":
            continue
        for call, fn in _calls(ast.parse(path.read_text())):
            f = call.func
            where = (path.relative_to(PACKAGE).as_posix(), call.lineno, fn)
            if (isinstance(f, ast.Attribute) and f.attr == "commit"
                    and isinstance(f.value, ast.Attribute)
                    and f.value.attr == "store"):
                commits.append(where)
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name == "Manifest":
                builds.append(where)
    assert [(p, fn) for p, _, fn in commits] == [("engine.py", "_commit")]
    assert [(p, fn) for p, _, fn in builds] == [("engine.py", "_manifest")]
