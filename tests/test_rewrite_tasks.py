"""The maintenance commands' bucket rewrites run as plain Ray tasks:
compact, update, delete, purge and repair start no Ray Data job, commit
the golden manifests of ``test_maintenance_manifest``, and a command whose
rewrite fails in one bucket commits nothing and returns only after every
one of its tasks has finished."""

import hashlib
import os
import sys
import time

import pyarrow as pa
import pyarrow.compute as pc
import pytest

import tests.test_maintenance_manifest as golden
from gobblin_ray import checkpoint as ckpt
from tests.test_maintenance_manifest import template  # noqa: F401 (fixture)

_GUARDED = ("gobblin_ray.engine", "gobblin_ray.repair")


def _refuse_ray_data_jobs(monkeypatch):
    """Make ``ray.data.from_items`` and ``Dataset.map_batches`` raise when
    the engine or the repair module calls them."""
    import ray.data

    def guard(real):
        def call(*a, **k):
            if sys._getframe(1).f_globals.get("__name__") in _GUARDED:
                raise AssertionError(
                    f"a maintenance path started a Ray Data job ({real.__name__})")
            return real(*a, **k)
        return call

    monkeypatch.setattr(ray.data, "from_items", guard(ray.data.from_items))
    monkeypatch.setattr(ray.data.Dataset, "map_batches",
                        guard(ray.data.Dataset.map_batches))


@pytest.mark.parametrize("name", sorted(golden.COMMANDS))
def test_maintenance_commands_start_no_ray_data_job(name, template, tmp_path,  # noqa: F811
                                                    monkeypatch):
    _refuse_ray_data_jobs(monkeypatch)
    golden.test_maintenance_manifest_golden(name, template, tmp_path)


def _sha256_tree(root: str) -> dict[str, str]:
    return {os.path.relpath(os.path.join(r, f), root):
            hashlib.sha256(open(os.path.join(r, f), "rb").read()).hexdigest()
            for r, _, fs in os.walk(root) for f in fs}


def test_failed_update_commits_nothing_and_outlives_no_task(template, tmp_path):  # noqa: F811
    """``assign`` returns one value too many in one bucket; its siblings
    take a second longer and then succeed. The caller gets the
    ``ValueError``, no manifest is committed, ``data/`` is unchanged, and
    every sibling had finished staging before the call returned."""
    eng = golden._clone(template, tmp_path)
    before = eng.store.latest()
    data_before = _sha256_tree(f"{eng.lake_dir}/data")
    urls = golden._pick_urls(eng, k=golden.BUCKETS)  # one url per bucket
    bad = urls[0]
    finished = str(tmp_path / "finished")

    def assign(t):
        if bad in t.column("url").to_pylist():
            return {"language": pa.array(["xx"] * (t.num_rows + 1))}
        time.sleep(1.0)
        with open(finished, "a") as f:
            f.write(f"{time.time()}\n")
        return {"language": pa.array(["xx"] * t.num_rows)}

    with pytest.raises(ValueError, match="assign returned 2 values for 1"):
        eng.update_where(
            lambda t: pc.is_in(t.column("url"), value_set=pa.array(urls)),
            assign)
    returned = time.time()

    assert eng.store.latest().epoch == before.epoch
    assert _sha256_tree(f"{eng.lake_dir}/data") == data_before
    times = [float(x) for x in open(finished).read().split()]
    assert len(times) == len(urls) - 1 and max(times) <= returned
    # every sibling got past its write: its staged base is in place
    (bad_bucket,) = golden._bucket_of([bad])
    for b in golden._bucket_of(urls[1:]):
        assert b != bad_bucket
        assert os.path.exists(ckpt.staging_path(eng.lake_dir, before.epoch + 1, b))
    assert not os.path.exists(
        ckpt.staging_path(eng.lake_dir, before.epoch + 1, bad_bucket))
