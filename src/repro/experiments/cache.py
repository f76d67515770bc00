"""Content-addressed run cache: never recompute a finished grid cell.

A *cell* is one :class:`~repro.experiments.spec.RunPoint`, and its
result is a pure function of what the cell *is* and of the code that
ran it — never where it sits in the grid or when it executes.
:func:`cache_key` hashes exactly that: the canonical cell (spec,
workload, scenario, sorted params, repeat, seed, settings), the
telemetry flag and :func:`package_fingerprint`.  :class:`CampaignCache`
stores one JSON entry per key on disk.

Key contract (property-tested in ``tests/test_campaign_cache.py``,
differentially in ``tests/test_cache_code_key.py``):

* identical cells produce identical keys regardless of param-dict
  insertion order, process, run or where the package is installed;
* distinct cells never collide — the serialisation is injective and
  SHA-256 does the rest.  The grid index is left out, so re-running a
  *grown* sweep (new axis values, extra repeats) computes only the new
  cells;
* editing any module of the package retires every cached cell, so a
  result is only ever replayed by the code that produced it.  The one
  exception is the bundled spec table (``experiments/specs.py``):
  every spec field that can change a result already enters the key by
  value, so growing a bundled sweep keeps its old cells.  Code outside
  the package (a workload or scenario a test or script registers) is
  not hashed: run edits to such code into a fresh cache.

Entries are written atomically (temp file + ``os.replace``) so a crash
mid-``put`` leaves either the old entry or none — never a torn one; a
corrupt entry reads as a miss.  The cell's grid index is *not* stored
canonically: callers re-stamp ``record["run"]`` (and the telemetry
rows' ``run`` tags) at retrieval, because the same cell may sit at a
different index in a grown grid.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import typing

from repro.experiments.spec import RunPoint

KEY_SCHEMA = 2

#: Left out of :func:`package_fingerprint` (see the module docstring).
_SPEC_TABLE = "experiments/specs.py"


@functools.cache
def package_fingerprint() -> str:
    """SHA-256 hex digest of the imported ``repro`` package's source.

    Hashes the sorted relative POSIX paths and bytes of every ``*.py``
    under the package directory (the parent of this module's
    subpackage) except the spec table, once per process.  Relative
    paths keep the digest independent of where the package lives.
    """
    root = pathlib.Path(__file__).parent.parent
    digest = hashlib.sha256()
    for rel, path in sorted((path.relative_to(root).as_posix(), path)
                            for path in root.rglob("*.py")):
        if rel == _SPEC_TABLE:
            continue
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def cache_key(point: RunPoint, *, telemetry: bool = False) -> str:
    """SHA-256 hex digest of ``point``'s identity under the current code.

    ``telemetry`` enters the key because a telemetry-bearing entry
    carries rows a bare one lacks.
    """
    identity = point.as_dict()
    del identity["index"]           # positional: re-stamped on adoption
    identity.update(schema=KEY_SCHEMA, telemetry=bool(telemetry),
                    code=package_fingerprint())
    payload = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class CampaignCache:
    """Filesystem store: key → ``{"record": …, "telemetry": […]}``.

    Layout is ``root/<key[:2]>/<key[2:]>.json`` (two-level fan-out so a
    million-cell campaign never piles one directory).  ``get`` returns
    the stored entry or ``None``; ``put`` is atomic and last-writer-wins
    (identical keys imply identical payloads, so races are benign).
    """

    def __init__(self, root: str | pathlib.Path):
        self.root = pathlib.Path(root)

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key[2:]}.json"

    def get(self, key: str) -> dict | None:
        """The stored entry for ``key``, or ``None`` (corrupt = miss)."""
        try:
            entry = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(entry, dict) or "record" not in entry:
            return None
        return entry

    def put(self, key: str, entry: typing.Mapping[str, object]) -> None:
        """Store ``entry`` under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload + "\n", encoding="utf-8")
        os.replace(tmp, path)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()
