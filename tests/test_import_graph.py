"""The package's entry points import no scipy or networkx.

The attack path (the Section VII stream, the DQN inference) needs
neither, so ``scipy.stats`` (Fig. 9's KDE), ``scipy.optimize`` (the NLP
stand-ins) and ``networkx`` (the wash-trading detector) are imported
where they are used.  Each check runs in a fresh interpreter, since this
test process has long since imported all three.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
HEAVY = ("scipy.stats", "scipy.optimize", "networkx")


def _heavy_modules_after(code: str) -> list:
    """Which of ``HEAVY`` a fresh interpreter holds after running ``code``."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "statement",
    [
        "import repro",
        "import repro.cli",
        "from repro.streaming import run_stream",
        "from repro.matrix import run_matrix",
        "from repro.experiments import run_all",
    ],
)
def test_entry_point_imports_no_heavy_module(statement):
    assert _heavy_modules_after(statement) == []


def test_nlp_stand_in_imports_scipy_optimize_when_constructed():
    """Fig. 11's profiled region starts after the import, at the solve."""
    loaded = _heavy_modules_after(
        "from repro.solvers import ApoptLikeSolver\nApoptLikeSolver()"
    )
    assert "scipy.optimize" in loaded
