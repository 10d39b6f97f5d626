"""Print the SHA-256 of every output of a fixed list of default commands.

    python3 scripts/output_digests.py

Runs each command below as ``python -m zorichlab`` on the ``src`` tree next
to this script, in a temporary directory that also holds the config file
``run.cfg`` (``CONFIG`` below), and prints one ``sha256  name``
line per data file and per manifest ``parameters`` block (as JSON with
sorted keys).  The manifests' other records (timestamp, versions, verify's
seconds) are left out, since they vary from run to run.  Checking that a
change keeps every output byte-identical is then a diff of this script's
output before and after the change, on one machine.  It stores no hashes.

A command that exits non-zero stops the script with its stderr.  The whole
list takes about a minute on a 2-core Xeon VM; the full verify run peaks near
490 MB.
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

# (name, argv): each command writes into its own directory, named after it.
# The defaults first, then the non-default paths: a horizontal line, a base
# point off the origin, an explicit ball, a rung of long lines, a rung of many
# lines, three coverage budgets and config keys.
COMMANDS = [
    ("trace", ["trace"]),
    ("coverage", ["coverage"]),
    ("density", ["density"]),
    ("trace-direction", ["trace", "--direction", "1,0.4,0"]),
    ("trace-off-origin", ["trace", "--p", "0.3,-0.2,0.1", "--u2=-0.5", "--u3", "0.2"]),
    ("density-ball", ["density", "--q", "1.2,0.4,0.9", "--ball-r", "0.3", "--grid-n", "4",
                      "--rungs", "1"]),
    # 28k kept points a line: each hit scan crosses a walk block edge
    ("density-long", ["density", "--u3", "0.002", "--delta", "0.0005", "--grid-n", "2",
                      "--budget", "40000", "--rungs", "1"]),
    # the density_ladder benchmark's rung: 64 lines, the last of their groups partial
    ("density-rung", ["density", "--grid-n", "8", "--budget", "20000", "--rungs", "1"]),
    # the quick verify level's coverage budget, COVERAGE_BUDGET_QUICK
    ("coverage-quick", ["coverage", "--budget", "1000000"]),
    # past three checkpoints over many walk blocks, and a budget-bound line
    ("coverage-200k", ["coverage", "--budget", "200000"]),
    ("coverage-budget-bound", ["coverage", "--u3", "0.002", "--budget", "6000"]),
    ("trace-config", ["trace", "--config", "run.cfg"]),
    ("cone", ["cone"]),
    # 32,768 triangles: eight triangle-writer blocks (the default cone fits in one)
    ("cone-large", ["cone", "--n-height", "128", "--n-width", "32"]),
    ("distortion", ["distortion"]),
    # 48 directions: 341 points a relative_distortion block, the last one partial
    ("distortion-blocks", ["distortion", "--dirs", "48", "--samples", "700", "--grid-n", "96"]),
    ("eval", ["eval", "--x", "0.3,-0.2,1.5"]),
    ("invert", ["invert", "--y", "0.3,-0.2,1.5"]),
    ("invert-odd", ["invert", "--y=0.3,-0.2,-1.5", "--beam", "1,0"]),
    ("verify-quick", ["verify", "--level", "quick"]),
    ("verify-full", ["verify", "--level", "full"]),
    # a horizontal line at x3 = 35: 498 samples dropped unresolvable, 502 as overflows
    ("trace-unresolvable", ["trace", "--p", "0,0,35", "--direction", "1,0.3,0", "--budget", "3000"]),
    # 256 lines in one packed group, 32 of them budget-bound: per-line truncation in a group
    ("density-group", ["density", "--grid-n", "16", "--budget", "2000", "--rungs", "1"]),
]
CONFIG = "face=-x2\nu2=-0.5\nu3=0.001\nbudget=2000\n"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "run.cfg").write_text(CONFIG)
        for name, argv in COMMANDS:
            out = Path(tmp) / name
            run = subprocess.run(
                [sys.executable, "-m", "zorichlab", *argv, "--out", str(out)],
                env=env, capture_output=True, text=True, cwd=tmp,
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
