"""Atomic, byte-reproducible artifact writing.

Every artifact is written to a temporary file in the destination directory
and renamed into place, so readers never observe partial output.  Floats are
serialised with repr (shortest round-trip form) and JSON keys are sorted;
re-running with the same inputs reproduces every byte.  No artifact embeds a
timestamp.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

__all__ = [
    "atomic_write_text",
    "sidecar_path",
    "write_json",
    "canonical_json",
    "json_safe",
    "config_sha256",
    "write_eta_samples",
]


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write text via a temp file + rename in the destination directory.

    ``text`` is one string or an iterable of str pieces, written in order;
    if the iterable raises, neither the temp file nor the target is left.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sidecar_path(path) -> Path:
    """Metadata sidecar convention: append .meta.json to the artifact name."""
    p = Path(path)
    return p.with_name(p.name + ".meta.json")


def json_safe(obj):
    """Copy of a JSON-ish tree with non-finite floats replaced by strings."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    atomic_write_text(path, canonical_json(obj))


def config_sha256(obj) -> str:
    """Hash of the compact canonical JSON form of a config object."""
    compact = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode()).hexdigest()


_ETA_BLOCK_ROWS = 1 << 14  # rows of eta.csv formatted at a time


def _eta_csv_blocks(values) -> Iterator[str]:
    yield "trajectory_id,eta_value\n"
    for lo in range(0, len(values), _ETA_BLOCK_ROWS):
        yield "".join([f"{i},{v!r}\n" for i, v in enumerate(values[lo : lo + _ETA_BLOCK_ROWS].tolist(), lo)])


def write_eta_samples(samples, metadata: dict, path) -> None:
    """Persist regulator samples as CSV (trajectory_id,eta_value) + sidecar.

    ``samples`` is the record array from ``simulate_eta``; its values go
    through ``tolist`` so each is written as a plain float repr.  The CSV is
    streamed in blocks of ``_ETA_BLOCK_ROWS`` rows, so the text of the whole
    file is never held at once.
    """
    atomic_write_text(path, _eta_csv_blocks(samples.value))
    write_json(sidecar_path(path), metadata)
