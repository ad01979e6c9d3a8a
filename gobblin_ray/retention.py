"""Dataset retention: version finders, retention policies, trash, cleaner.

Analog of the reference's data-management retention subsystem
(gobblin-data-management/.../retention/DatasetCleaner.java — find dataset
versions, ask a RetentionPolicy which are deletable, delete or move to
trash):

- version finders  -> GlobVersionFinder
  (version/finder/DateTimeDatasetVersionFinder.java:47 parses a timestamp
  out of the version path; GlobModTimeDatasetVersionFinder uses mtime)
- policies         -> TimeBasedRetentionPolicy
  (retention/policy/TimeBasedRetentionPolicy.java:94-103 "delete versions
  older than now - retention"), NewestKRetentionPolicy
  (NewestKRetentionPolicy.java:39 "retain the newest k"),
  CombineRetentionPolicy (CombineRetentionPolicy.java UNION/INTERSECT of
  delete sets), DeleteAll.
- trash            -> Trash (trash/Trash.java:49 — move into a timestamped
  snapshot dir under a trash root instead of deleting; snapshots are
  purgeable later)
- cleaner          -> DatasetCleaner ties the three together.

Scale note: retention is METADATA work — it lists version directories and
renames/deletes them; it is O(#versions) driver-side and never touches row
data, so it stays a plain driver routine rather than a Ray pipeline (at
100 TB a dataset still has only thousands of date partitions). The data
files themselves move per-directory (one rename), not per-file.

``vacuum_keep`` extends the engine's vacuum to manifest retention: keep
the last K committed manifests (so time-travel reads via
``CheckpointStore.load(epoch)`` keep working for K epochs back) and delete
data files no kept manifest references.
"""

from __future__ import annotations

import fnmatch
import os
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from . import checkpoint as ckpt

TRASH_DIR = "_trash"
TRASH_SNAPSHOT_PREFIX = "_TRASH_SNAPSHOT_"
TRASH_MARKER = "_THIS_IS_TRASH_DIRECTORY"


@dataclass(frozen=True)
class DatasetVersion:
    """One deletable unit: typically a partition directory of a dataset."""

    key: str  # display key, e.g. "dt=2026-01-01"
    ts: datetime  # version timestamp (parsed from path or mtime)
    path: str  # directory (or file) the version occupies


class GlobVersionFinder:
    """Find dataset versions as children of ``root`` matching ``pattern``.

    ``ts_format`` (strptime, applied to the child's basename, e.g.
    ``dt=%Y-%m-%d``) gives DateTimeDatasetVersionFinder semantics; when
    None the filesystem mtime is used (GlobModTimeDatasetVersionFinder).
    Children that match the glob but not the timestamp format are skipped
    (the reference logs-and-skips unparseable paths).
    """

    def __init__(self, root: str, pattern: str = "*", ts_format: str | None = None):
        self.root = root
        self.pattern = pattern
        self.ts_format = ts_format

    def find(self) -> list[DatasetVersion]:
        out: list[DatasetVersion] = []
        if not os.path.isdir(self.root):
            return out
        for name in sorted(os.listdir(self.root)):
            if name in (TRASH_DIR,) or not fnmatch.fnmatch(name, self.pattern):
                continue
            path = os.path.join(self.root, name)
            if self.ts_format is not None:
                try:
                    ts = datetime.strptime(name, self.ts_format)
                except ValueError:
                    continue
            else:
                ts = datetime.fromtimestamp(os.path.getmtime(path))
            out.append(DatasetVersion(key=name, ts=ts, path=path))
        return out


class TimeBasedRetentionPolicy:
    """Delete versions with ``ts < now - retention``
    (TimeBasedRetentionPolicy.java:94-103). ``now`` is injectable for
    deterministic tests."""

    def __init__(self, retention: timedelta, now: datetime | None = None):
        self.retention = retention
        self.now = now

    def deletable(self, versions: list[DatasetVersion]) -> list[DatasetVersion]:
        now = self.now if self.now is not None else datetime.now()
        cutoff = now - self.retention
        return [v for v in versions if v.ts < cutoff]


class NewestKRetentionPolicy:
    """Retain the newest ``k`` versions; everything older is deletable
    (NewestKRetentionPolicy.java:39). Ties break on path for determinism."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k

    def deletable(self, versions: list[DatasetVersion]) -> list[DatasetVersion]:
        ranked = sorted(versions, key=lambda v: (v.ts, v.path), reverse=True)
        return ranked[self.k:]


class SizeQuotaRetentionPolicy:
    """Retain the newest versions whose CUMULATIVE bytes fit ``max_bytes``;
    everything past the budget (newest-first accumulation) is deletable —
    the disk-quota companion to NewestK (the reference's retention module
    combines version finders with pluggable selection policies the same
    way, gobblin-data-management/.../retention/policy/RetentionPolicy.java;
    quota-style selection appears in its dataset cleaner configs). The
    newest version is always retained even if it alone exceeds the quota
    (deleting the only copy to satisfy a quota is never right), and the
    retained set is always a newest-first PREFIX — once one version busts
    the budget, every older one is deletable too (a retained-history hole
    would make point-in-time reads lie). Version size is the recursive
    byte sum of its path, computed once per clean."""

    def __init__(self, max_bytes: int):
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)

    @staticmethod
    def _size(path: str) -> int:
        if os.path.isfile(path):
            return os.path.getsize(path)
        total = 0
        for root, _dirs, names in os.walk(path):
            for n in names:
                try:
                    total += os.path.getsize(os.path.join(root, n))
                except OSError:
                    pass
        return total

    def deletable(self, versions: list[DatasetVersion]) -> list[DatasetVersion]:
        ranked = sorted(versions, key=lambda v: (v.ts, v.path), reverse=True)
        spent = 0
        doomed: list[DatasetVersion] = []
        for i, v in enumerate(ranked):
            if doomed:
                # PREFIX contract: once one version busts the budget, every
                # OLDER version goes too — skipping it but keeping an even
                # older one would punch a hole in the retained history
                doomed.append(v)
                continue
            size = self._size(v.path)
            if i > 0 and spent + size > self.max_bytes:
                doomed.append(v)
            else:
                spent += size
        return doomed


class CombineRetentionPolicy:
    """UNION or INTERSECT of the delete sets of child policies
    (CombineRetentionPolicy.java DeletableCombineOperation)."""

    def __init__(self, policies: list, op: str = "intersect"):
        if op not in ("union", "intersect"):
            raise ValueError("op must be 'union' or 'intersect'")
        if not policies:
            raise ValueError("need at least one policy")
        self.policies = policies
        self.op = op

    def deletable(self, versions: list[DatasetVersion]) -> list[DatasetVersion]:
        sets = [{v.path for v in p.deletable(versions)} for p in self.policies]
        agg = set.union(*sets) if self.op == "union" else set.intersection(*sets)
        return [v for v in versions if v.path in agg]


class DeleteAllRetentionPolicy:
    def deletable(self, versions):
        return list(versions)


class Trash:
    """Move-don't-delete safety net (trash/Trash.java:49): deletable paths
    land in ``<root>/_trash/_TRASH_SNAPSHOT_<stamp>/<basename>``; old
    snapshots are purged explicitly with ``purge``."""

    def __init__(self, root: str, now: datetime | None = None):
        self.trash_root = os.path.join(root, TRASH_DIR)
        self.now = now

    def _snapshot_dir(self) -> str:
        now = self.now if self.now is not None else datetime.now()
        stamp = now.strftime("%Y%m%d%H%M%S")
        d = os.path.join(self.trash_root, f"{TRASH_SNAPSHOT_PREFIX}{stamp}")
        os.makedirs(d, exist_ok=True)
        marker = os.path.join(self.trash_root, TRASH_MARKER)
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("")
        return d

    def move(self, path: str) -> str:
        snap = self._snapshot_dir()
        dst = os.path.join(snap, os.path.basename(path))
        i = 0
        while os.path.exists(dst):  # same basename trashed twice in one snap
            i += 1
            dst = os.path.join(snap, f"{os.path.basename(path)}.{i}")
        shutil.move(path, dst)
        return dst

    def snapshots(self) -> list[str]:
        if not os.path.isdir(self.trash_root):
            return []
        return sorted(
            os.path.join(self.trash_root, n)
            for n in os.listdir(self.trash_root)
            if n.startswith(TRASH_SNAPSHOT_PREFIX)
        )

    def purge(self, older_than: datetime) -> int:
        """Permanently delete trash snapshots stamped before ``older_than``."""
        purged = 0
        for snap in self.snapshots():
            stamp = os.path.basename(snap)[len(TRASH_SNAPSHOT_PREFIX):]
            try:
                ts = datetime.strptime(stamp, "%Y%m%d%H%M%S")
            except ValueError:
                continue
            if ts < older_than:
                shutil.rmtree(snap)
                purged += 1
        return purged


@dataclass
class CleanReport:
    deleted: list[str] = field(default_factory=list)
    trashed: list[str] = field(default_factory=list)
    retained: list[str] = field(default_factory=list)


class DatasetCleaner:
    """Find versions, ask the policy, delete or trash
    (retention/DatasetCleaner.java clean() flow). ``dry_run`` reports
    without touching the filesystem."""

    def __init__(self, finder, policy, trash: Trash | None = None):
        self.finder = finder
        self.policy = policy
        self.trash = trash

    def clean(self, dry_run: bool = False) -> CleanReport:
        versions = self.finder.find()
        doomed = self.policy.deletable(versions)
        doomed_paths = {v.path for v in doomed}
        report = CleanReport(
            retained=[v.key for v in versions if v.path not in doomed_paths]
        )
        for v in doomed:
            if dry_run:
                (report.trashed if self.trash else report.deleted).append(v.key)
                continue
            if self.trash is not None:
                self.trash.move(v.path)
                report.trashed.append(v.key)
            else:
                if os.path.isdir(v.path):
                    shutil.rmtree(v.path)
                else:
                    os.remove(v.path)
                report.deleted.append(v.key)
        return report


def vacuum_keep(lake_dir: str, keep_manifests: int) -> dict:
    """Manifest-aware vacuum: retain the last ``keep_manifests`` committed
    manifests (time travel via ``CheckpointStore.load(epoch)`` +
    ``CdcEngine.read_table(manifest)`` keeps working that far back), delete
    older manifest JSONs, and delete data files referenced by NO kept
    manifest. With ``keep_manifests=1`` this degenerates to the engine's
    plain ``vacuum`` plus manifest cleanup.
    """
    if keep_manifests < 1:
        raise ValueError("keep_manifests must be >= 1")
    from .locks import FileJobLock

    # Same job lock the driver holds: vacuum racing a live run could
    # delete files promoted for an epoch whose manifest isn't committed
    # yet (the ckpt.promote -> store.commit window), leaving a committed
    # manifest pointing at missing data.
    with FileJobLock(os.path.join(lake_dir, "_locks")):
        return _vacuum_keep_locked(lake_dir, keep_manifests)


def _vacuum_keep_locked(lake_dir: str, keep_manifests: int) -> dict:
    from . import refs

    store = ckpt.CheckpointStore(lake_dir)
    epochs = store.committed_epochs()
    # tagged manifests are PINNED outside the newest-K window (Iceberg
    # refs-block-expiration semantics)
    pinned = refs.tagged_epochs(lake_dir)
    kept_epochs = sorted(set(epochs[-keep_manifests:])
                         | (pinned & set(epochs)))
    keep_files: set[str] = set()
    for e in kept_epochs:
        mf = store.load(e)
        for s in mf.buckets.values():
            keep_files.update(ckpt.bucket_files(lake_dir, s))
    removed_files = ckpt.sweep_unreferenced(lake_dir, keep_files)
    removed_manifests = 0
    for e in epochs:
        if e not in kept_epochs:
            os.remove(store._path(e))
            removed_manifests += 1
    return {
        "kept_epochs": kept_epochs,
        "removed_files": removed_files,
        "removed_manifests": removed_manifests,
    }


def rollback_to(lake_dir: str, epoch: int) -> dict:
    """Roll the lake back to committed manifest ``epoch`` (the Iceberg
    snapshot-rollback analog): verify every data file that manifest
    references still exists (rollback is only legal inside the vacuum /
    manifest-retention window), then delete all LATER manifests and every
    data file referenced by NO remaining manifest. Exactly-once replay
    invariance makes this safe: the next ``run`` resumes from ``epoch``'s
    high_seq and re-applies the later log span, converging to the same
    state byte-for-byte (pinned by test_rollback_then_rerun_converges).

    Takes the job lock — rolling back under a live driver would race its
    in-flight promotes."""
    from .locks import FileJobLock

    with FileJobLock(os.path.join(lake_dir, "_locks")):
        store = ckpt.CheckpointStore(lake_dir)
        epochs = store.committed_epochs()
        if epoch not in epochs:
            raise ValueError(
                f"epoch {epoch} is not a committed manifest (have {epochs})"
            )
        from . import refs

        blocking = {n: e for n, e in refs.list_tags(lake_dir).items()
                    if e > epoch}
        if blocking:
            raise ValueError(
                f"cannot roll back to epoch {epoch}: tags pin later "
                f"epochs {blocking}; drop them first (Iceberg refs block "
                "snapshot expiration)"
            )
        target = store.load(epoch)
        missing = [
            p for s in target.buckets.values()
            for p in ckpt.bucket_files(lake_dir, s) if not os.path.exists(p)
        ]
        if missing:
            raise FileNotFoundError(
                f"cannot roll back to epoch {epoch}: {len(missing)} data "
                f"files were vacuumed (first: {missing[0]}); keep a wider "
                "manifest window (vacuum --keep-manifests)"
            )
        keep_files: set[str] = set()
        for e in epochs:
            if e <= epoch:
                for s in store.load(e).buckets.values():
                    keep_files.update(ckpt.bucket_files(lake_dir, s))
        removed_manifests = 0
        for e in epochs:
            if e > epoch:
                os.remove(store._path(e))
                removed_manifests += 1
        removed_files = ckpt.sweep_unreferenced(lake_dir, keep_files)
        return {
            "rolled_back_to": epoch,
            "high_seq": target.high_seq,
            "removed_manifests": removed_manifests,
            "removed_files": removed_files,
        }
