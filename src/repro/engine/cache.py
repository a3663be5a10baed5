"""Persistence layer: content-addressed on-disk result cache.

Each entry is one JSON file named by :meth:`RunSpec.key` — a stable hash
over the complete spec (including seed and ``REPRO_SCALE``), so a cached
result can only ever be served to the exact simulation that produced it.
An entry (format 2) holds ``format``, ``spec_version``, ``key``, the
spec's :meth:`~RunSpec.label` (so a listing of the directory still says
what each entry is) and ``stats``: about 1.1 KB at 1 to 4 threads.  It
holds no spec: the sweep JSON and the job records carry each run's spec,
and a 4-thread spec would make an entry 19 KB for every hit to parse and
every put to serialize.  A corrupt or unreadable entry, and one of
another format (format 1 embedded the spec), is treated as a miss and
overwritten on the next put.

Writes are atomic (temp file + ``os.replace``) so parallel workers and an
interrupted ``figure all`` never leave half-written entries behind.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path

from repro.engine.spec import SPEC_VERSION, RunSpec
from repro.stats.counters import SimStats

#: overrides the default cache location
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: standard base-directory override honored by :func:`default_cache_dir`
XDG_CACHE_ENV = "XDG_CACHE_HOME"

#: bump when the on-disk entry layout changes
CACHE_FORMAT = 2

#: ``*.tmp`` files older than this are orphans from killed workers and
#: are swept on the next write; a live writer holds its temp file only
#: for one ``json.dump``, so anything this stale is garbage
ORPHAN_TMP_AGE_S = 3600.0


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` > ``$XDG_CACHE_HOME/repro-sim`` >
    ``~/.cache/repro-sim``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get(XDG_CACHE_ENV)
    if xdg:
        return Path(xdg).expanduser() / "repro-sim"
    return Path.home() / ".cache" / "repro-sim"


def _write_atomic(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via temp file + ``os.replace``, so a
    reader never sees a half-written file: cache entries, snapshots and
    job records.

    The temp file is created 0666 and the kernel masks that with the
    process umask, so the file gets the mode a plain ``open()`` would
    give it.  ``mkstemp``'s 0600 would survive ``os.replace``: in a
    cache directory shared across users (CI runners, a job server's
    workers) every other reader would get permission-denied, which
    :meth:`ResultCache.get` reads as a miss, so the same runs would
    re-simulate forever.  Re-moding the file instead would need the
    umask, which can only be read by setting it; the job server's
    threads write concurrently, and two of them could leave each
    other's files 0600, or the process umask at the value set to read
    it.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Maps :class:`RunSpec` -> :class:`SimStats` on disk."""

    def __init__(self, root: str | os.PathLike | None = None):
        self.root = Path(root).expanduser() if root else default_cache_dir()
        self._swept_orphans = False

    def _sweep_orphans(self) -> None:
        """Remove stale ``*.tmp`` droppings left by killed workers.

        Runs once per cache instance, before its first write.  Only
        files older than :data:`ORPHAN_TMP_AGE_S` go: a fresh ``.tmp``
        belongs to a concurrent writer that is about to ``os.replace``
        it into place.
        """
        if self._swept_orphans:
            return
        self._swept_orphans = True
        cutoff = time.time() - ORPHAN_TMP_AGE_S
        try:
            candidates = list(self.root.glob("*.tmp"))
        except OSError:
            return
        for tmp in candidates:
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                pass  # raced another sweeper, or the writer came back

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.key()}.json"

    def get(self, spec: RunSpec) -> SimStats | None:
        """The cached result, or ``None`` on a miss.

        Any unreadable entry — missing file, truncated or invalid JSON, a
        JSON document whose root is not an object (``AttributeError`` from
        ``entry.get``), an entry of another :data:`CACHE_FORMAT`, or a
        malformed ``stats`` payload — reads as a miss; the next ``put``
        simply overwrites it.

        Entries also embed the :data:`~repro.engine.spec.SPEC_VERSION`
        that produced them, and a mismatch (or its absence, for entries
        written before it was recorded) is a miss.  The version is already
        part of the hashed filename, so this is belt-and-braces: it
        catches entries whose key collided across a version bump or whose
        payload was copied between cache directories by hand.
        """
        path = self.path_for(spec)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
            if not isinstance(entry, dict) or entry.get("format") != CACHE_FORMAT:
                return None
            if entry.get("spec_version") != SPEC_VERSION:
                return None
            return SimStats.from_dict(entry["stats"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def put(self, spec: RunSpec, stats: SimStats) -> Path:
        """Store one result atomically; returns the entry path."""
        path = self.path_for(spec)
        entry = {
            "format": CACHE_FORMAT,
            "spec_version": SPEC_VERSION,
            "key": spec.key(),
            "label": spec.label(),
            "stats": stats.to_dict(),
        }
        self._sweep_orphans()
        _write_atomic(path, json.dumps(entry, sort_keys=True).encode("utf-8"))
        return path

    # -- warm-up snapshots --------------------------------------------------------
    # Snapshots live beside the result entries, addressed by the specs'
    # shared warmup_key and stored with a ``.snap`` suffix so ``__len__``
    # (which counts ``*.json``) and result lookups never see them.

    def snapshot_path(self, warmup_key: str) -> Path:
        return self.root / f"{warmup_key}.snap"

    def get_snapshot(self, warmup_key: str) -> bytes | None:
        """The serialized snapshot for ``warmup_key``, or ``None``.

        Returns raw bytes; the caller validates through
        :meth:`repro.engine.snapshot.Snapshot.from_bytes`, which rejects
        stale formats/spec versions — callers treat that as a miss too.
        """
        try:
            return self.snapshot_path(warmup_key).read_bytes()
        except OSError:
            return None

    def put_snapshot(self, warmup_key: str, data: bytes) -> Path:
        """Store one serialized snapshot atomically."""
        path = self.snapshot_path(warmup_key)
        self._sweep_orphans()
        _write_atomic(path, data)
        return path

    def __contains__(self, spec: RunSpec) -> bool:
        return self.path_for(spec).is_file()

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root.glob("*.json"))
        except OSError:
            return 0

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r})"
