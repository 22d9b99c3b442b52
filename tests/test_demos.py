"""Every demo script runs cleanly as a standalone program, and prints the
bytes it printed when ``demo_digests.json`` was recorded.

The output does not depend on ``PYTHONHASHSEED``, so a mismatch means the
program's output changed, which is a bug in the change, not a reason to
re-record.  To record the digests of the current tree (only when a demo
is meant to print something else, e.g. a new demo):

    PYTHONPATH=src python tests/test_demos.py
"""

import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
DIGESTS = pathlib.Path(__file__).with_name("demo_digests.json")


def run(script: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run(script)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.strip()
    want = json.loads(DIGESTS.read_text())[script.name]
    assert hashlib.sha256(proc.stdout).hexdigest() == want, "the demo's output changed"


if __name__ == "__main__":
    digests = {p.name: hashlib.sha256(run(p).stdout).hexdigest() for p in DEMOS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
