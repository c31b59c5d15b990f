"""Each demo prints exactly the bytes recorded in tests/golden/demos/.

The demos are run as scripts in fresh processes, the way a reader runs
them, so the test also covers their imports from the public API.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()


def test_every_demo_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == \
        [d.stem for d in DEMOS]
