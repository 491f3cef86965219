"""The demo scripts run to completion and print what they printed before.

Each script runs in its own interpreter with this tree's ``src`` first on the
import path. The digests are sha256 of stdout, recorded before orbits came
from the refinement search; a change to a demo's text needs a new digest.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

DEMO_DIGESTS = {
    "01_quantum_predictions.py": "b63282e1b5fa232a87857860d604d8eb3f1b5b55d4b966dfbd4bbb51113b4b4c",
    "02_hidden_variable_protocol.py": "76801bc5a0440459924d376e741731039364c343a713e058efd1edf2f3756f20",
    "03_ring_distance_bound.py": "8e088238ae85b52dde264b6de5742cce2a2f91b133ed164592f9f70e77641896",
    "04_site_invariance.py": "e67c6e6b8ccc06fb18dc41115f7fdc08ccd0cee07a7979f1ce6cd34a05957f13",
    "05_chain_sentences.py": "4d4c01019d73b07fa4cec3b96f196063e92285f74cac9ce57e67393dce02b657",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_stdout_is_unchanged(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
