"""Reproducible run manifests.

A manifest records the command, the full parameter set, the tool and Python
versions, a UTC timestamp and the SHA-256 of every input and output file.
All computations are deterministic, so re-running a command with the
manifest's parameters must reproduce the recorded output digests bit for
bit.  A command may add records that vary from run to run, such as verify's
per-check wall seconds; they stay out of the output files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(path, command, parameters, inputs, outputs, **extra) -> None:
    """Write a run's manifest to path.  inputs and outputs are file paths, recorded
    by name and SHA-256; extra holds more top-level records (verify's seconds)."""
    record = {
        "command": command,
        "parameters": parameters,
        "version": __version__,
        "python": sys.version.split()[0],
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "inputs": {Path(p).name: sha256_of(p) for p in inputs},
        "outputs": {Path(p).name: sha256_of(p) for p in outputs},
        **extra,
    }
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
