"""The demo scripts run and print exactly the recorded bytes.

Each script in demos/ runs in its own interpreter with src/ first on the
import path; the sha256 of its stdout is pinned.  A change that moves a demo's
output must update the digest here and say which lines moved and why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA = {
    "01_code_parameters.py": "d3fedbf61ffd754bea0df23871220fa71d6e5bd22d2ed8c70502a10eb70e7843",
    "02_cover_relations.py": "922f8b3e77914ad8dc371948cdc3810d8ffb4416ed767ce98484f40d3d3bb9bf",
    "03_enumerating_covers.py": "bd17400239af6a20e702e9cc272de85defbe716fb34c03c1d566c9fdcc71a332",
    "04_lifting_logical_operators.py": "d586dea67d3f4c8b73041fe703ec910ee86dc058b673e40246ce402118ee635f",
    "05_automorphisms.py": "f1392af8b131f43a05c8e7b20c9c1f63a925c9aa8c0ed36a3fba0893676c4740",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA)


@pytest.mark.parametrize("script", sorted(DEMO_STDOUT_SHA))
def test_demo_stdout_is_golden(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA[script], proc.stdout
