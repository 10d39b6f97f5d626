"""Print the SHA-256 of every output of a fixed list of default commands.

    python3 scripts/output_digests.py

Runs each command below as ``python -m zorichlab`` on the ``src`` tree next
to this script, in a temporary directory, and prints one ``sha256  name``
line per data file and per manifest ``parameters`` block (as JSON with
sorted keys).  The manifests' other records (timestamp, versions, verify's
seconds) are left out, since they vary from run to run.  Checking that a
change keeps every output byte-identical is then a diff of this script's
output before and after the change, on one machine.  It stores no hashes.

A command that exits non-zero stops the script with its stderr.  The whole
list takes about a minute on a 2-core Xeon VM; the full verify run peaks near
700 MB.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# (name, argv): each command writes into its own directory, named after it
COMMANDS = [
    ("trace", ["trace"]),
    ("coverage", ["coverage"]),
    ("density", ["density"]),
    ("cone", ["cone"]),
    ("distortion", ["distortion"]),
    ("eval", ["eval", "--x", "0.3,-0.2,1.5"]),
    ("verify-quick", ["verify", "--level", "quick"]),
    ("verify-full", ["verify", "--level", "full"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            out = Path(tmp) / name
            run = subprocess.run(
                [sys.executable, "-m", "zorichlab", *argv, "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                print(f"{name}: exit {run.returncode}", file=sys.stderr)
                return 1
            for path in sorted(out.iterdir()):
                if path.name.endswith("_manifest.json"):
                    params = json.loads(path.read_text())["parameters"]
                    data = json.dumps(params, sort_keys=True).encode()
                    print(f"{_sha256(data)}  {name}/{path.name}:parameters")
                else:
                    print(f"{_sha256(path.read_bytes())}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
