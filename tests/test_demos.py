"""The demos that print only exact values print the same bytes on every change.

Demos 01, 02 and 04 print rationals, bools and reprs, so their stdout does not
depend on the platform; a refactor of the exact layer that changes one byte of
it changes a result.  Demos 03 and 05 print floats and are not pinned.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# SHA-256 of each demo's stdout
DIGESTS = {
    "01_exact_profiles.py": "5637e5987fde308a87f856ecbb2ae13cf5efd9309faceeef007ed58b4c5b54e5",
    "02_class_s.py": "a338989a796bf5dd01fc08229f334ad3213e1149d27c72bc398f8a87ba6d0e5a",
    "04_series_analog.py": "879cad9924dca3d0923b083a6c9b73f99d73e6b24e7527f524a292778b1afd7e",
}


@pytest.mark.parametrize("demo", sorted(DIGESTS))
def test_exact_demo_output_is_pinned(demo):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[demo], proc.stdout.decode()
