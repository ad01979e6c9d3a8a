"""Job lock: FileBasedJobLock analog (see gobblin_ray/locks.py cites)."""

import os

import pyarrow.compute as pc
import pytest

from gobblin_ray.locks import FileJobLock, JobLockError


def test_acquire_release_roundtrip(tmp_path):
    lock = FileJobLock(str(tmp_path))
    with lock:
        assert os.path.exists(lock.path)
    assert not os.path.exists(lock.path)


def test_held_by_live_process_blocks(tmp_path):
    lock = FileJobLock(str(tmp_path))
    # pid 1 is always alive (init) — a foreign live holder
    os.makedirs(tmp_path, exist_ok=True)
    with open(lock.path, "w") as f:
        f.write("1:0")
    assert not lock.try_acquire()
    with pytest.raises(JobLockError):
        lock.acquire()


def test_stale_lock_taken_over(tmp_path):
    lock = FileJobLock(str(tmp_path))
    with open(os.path.join(str(tmp_path), "job.lock"), "w") as f:
        f.write("999999999:0")  # beyond pid_max — definitely dead
    assert lock.try_acquire()
    # and it now records US as the holder
    assert lock._holder() == os.getpid()
    lock.release()


def test_same_pid_is_not_reentrant(tmp_path):
    """A second acquire from the SAME live process must fail loudly —
    re-entrant takeover would let an in-process maintenance call (e.g.
    vacuum during a live run) steal the run's lock and then delete it on
    release, unprotecting the rest of the run (round-3 review finding)."""
    a = FileJobLock(str(tmp_path))
    b = FileJobLock(str(tmp_path))
    a.acquire()
    assert not b.try_acquire()
    with pytest.raises(JobLockError):
        b.acquire()
    a.release()
    assert b.try_acquire()  # released: free again
    b.release()


def test_stale_takeover_never_steals_fresh_lock(tmp_path):
    """The guarded takeover removes the lock only when its CONTENT is
    still the observed stale instance — a fresh lock written in between
    survives (the TOCTOU the round-2 advice flagged)."""
    lock = FileJobLock(str(tmp_path))
    with open(lock.path, "w") as f:
        f.write("999999999:0")  # dead holder
    # simulate a faster waiter winning between observe and remove:
    # _remove_stale re-reads under the guard and must NOT delete content
    # that differs from what was observed
    observed = "999999999:0"
    with open(lock.path, "w") as f:
        f.write("1:0")  # live foreign holder replaced it
    lock_path_before = open(lock.path).read()
    # call the guarded section directly with a stale observation
    try:
        with open(lock.path) as f:
            assert f.read() != observed
    finally:
        pass
    lock._remove_stale()  # holder is pid 1 (alive): must be a no-op
    assert open(lock.path).read() == lock_path_before
    assert not lock.try_acquire()  # still held by live pid 1


def test_engine_run_refuses_foreign_lock(tmp_path, ray_session):
    from gobblin_ray.engine import CdcEngine, EngineConfig
    from gobblin_ray.synth import write_corpus

    corpus = str(tmp_path / "corpus")
    lake = str(tmp_path / "lake")
    write_corpus(corpus, n_pages=20, n_events=100, shard_rows=100, seed=3)
    cfg = EngineConfig(num_buckets=2, epoch_width=100)
    eng = CdcEngine(lake, f"{corpus}/events", cfg)
    eng.bootstrap(f"{corpus}/pages.parquet")

    lockdir = os.path.join(lake, "_locks")
    os.makedirs(lockdir, exist_ok=True)
    with open(os.path.join(lockdir, "job.lock"), "w") as f:
        f.write("1:0")  # live foreign holder
    with pytest.raises(JobLockError):
        eng.run()
    # job_lock=False opts out (and a finished run leaves no lock behind)
    cfg2 = EngineConfig(num_buckets=2, epoch_width=100, job_lock=False)
    reports = CdcEngine(lake, f"{corpus}/events", cfg2).run()
    assert sum(r.events for r in reports) == 100
    os.remove(os.path.join(lockdir, "job.lock"))
    assert CdcEngine(lake, f"{corpus}/events", cfg).run() == []
    assert not os.path.exists(os.path.join(lockdir, "job.lock"))


@pytest.fixture(scope="module")
def foreign_locked_lake(ray_session, tmp_path_factory):
    """A bootstrapped lake with unapplied events whose job lock is held
    by a live foreign process (pid 1)."""
    from gobblin_ray.engine import CdcEngine, EngineConfig
    from gobblin_ray.synth import write_corpus

    corpus = str(tmp_path_factory.mktemp("locked_corpus"))
    lake = str(tmp_path_factory.mktemp("locked_lake"))
    write_corpus(corpus, n_pages=20, n_events=100, shard_rows=100, seed=3)
    eng = CdcEngine(lake, f"{corpus}/events",
                    EngineConfig(num_buckets=2, epoch_width=100))
    eng.bootstrap(f"{corpus}/pages.parquet")
    eng.add_constraint("url_present", {"kind": "not_null", "column": "url"})
    lockdir = os.path.join(lake, "_locks")
    os.makedirs(lockdir, exist_ok=True)
    with open(os.path.join(lockdir, "job.lock"), "w") as f:
        f.write("1:0")
    return eng


def _repair_into(eng):
    from gobblin_ray.repair import repair

    return repair(eng, eng)


_MANIFEST_WRITERS = {
    "run": lambda e: e.run(),
    "run_forever": lambda e: e.run_forever(poll_interval=0, max_polls=1),
    "drop_column": lambda e: e.drop_column("lang"),
    "rename_column": lambda e: e.rename_column("lang", "language"),
    "add_constraint": lambda e: e.add_constraint(
        "lang_present", {"kind": "not_null", "column": "lang"}),
    "drop_constraint": lambda e: e.drop_constraint("url_present"),
    "compact_now": lambda e: e.compact_now(),
    "update_where": lambda e: e.update_where(
        lambda t: pc.is_valid(t.column("url")), lambda t: {}),
    "delete_where": lambda e: e.delete_where(
        lambda t: pc.is_valid(t.column("url"))),
    "purge_keys": lambda e: e.purge_keys(["http://example.com/x"]),
    "redrive_errors": lambda e: e.redrive_errors(),
    "rebucket": lambda e: e.rebucket(4),
    "repair": _repair_into,
}


@pytest.mark.parametrize("command", sorted(_MANIFEST_WRITERS))
def test_manifest_writers_refuse_foreign_lock(command, foreign_locked_lake):
    """Every command that commits a manifest takes the job lock: under a
    live foreign holder it raises and commits nothing (two writers of
    the same ``epoch + 1`` would silently overwrite one manifest)."""
    eng = foreign_locked_lake
    epochs = eng.store.committed_epochs()
    with pytest.raises(JobLockError):
        _MANIFEST_WRITERS[command](eng)
    assert eng.store.committed_epochs() == epochs
    with open(os.path.join(eng.lake_dir, "_locks", "job.lock")) as f:
        assert f.read() == "1:0"


def test_pid_reuse_is_stale(tmp_path):
    """A lock whose pid is alive but whose recorded /proc start ticks don't
    match the CURRENT process at that pid is a RECYCLED pid — the original
    holder is dead and the lock must be taken over, not wedge the lake."""
    import os

    from gobblin_ray.locks import FileJobLock

    lock = FileJobLock(str(tmp_path))
    os.makedirs(os.path.dirname(lock.path), exist_ok=True)
    # pid 1 is always alive; 2**60 can never be its true start tick
    with open(lock.path, "w") as f:
        f.write(f"1:123.0:{2**60}")
    assert lock.try_acquire()  # stale by start-tick mismatch: taken over
    lock.release()

    # legacy two-field lock with a live pid: liveness is all we have — held
    with open(lock.path, "w") as f:
        f.write("1:123.0")
    assert not lock.try_acquire()

    # matching start ticks: genuinely live — held
    start = FileJobLock._proc_start(1)
    if start is not None:
        with open(lock.path, "w") as f:
            f.write(f"1:123.0:{start}")
        assert not lock.try_acquire()
