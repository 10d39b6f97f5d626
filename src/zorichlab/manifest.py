"""Reproducible run manifests.

A manifest records the command, the full parameter set, the tool version and
SHA-256 digests of every input and output file.  All computations are
deterministic, so re-running a command with the manifest's parameters must
reproduce the recorded output digests bit for bit.  A command may add records
that vary from run to run, such as verify's per-check wall seconds; they stay
out of the output files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__


def sha256_of(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    parameters: dict
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)  # more top-level records, e.g. verify's seconds

    def add_input(self, path) -> None:
        self.inputs[Path(path).name] = sha256_of(path)

    def add_output(self, path) -> None:
        self.outputs[Path(path).name] = sha256_of(path)

    def write(self, path) -> None:
        record = {
            "command": self.command,
            "parameters": self.parameters,
            "version": __version__,
            "python": sys.version.split()[0],
            "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "inputs": self.inputs,
            "outputs": self.outputs,
            **self.extra,
        }
        Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
