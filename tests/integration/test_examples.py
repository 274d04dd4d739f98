"""Smoke tests: every shipped example must run to completion.

Examples are the first thing a new user executes; these tests import
each example module and call its ``main()`` so a refactor that breaks
an example fails CI rather than the user's first five minutes.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = (
    "quickstart",
    "rollup_pipeline",
    "marketplace_study",
    "defense_demo",
    "attack_campaign",
    "market_replay_attack",
    "wash_trading_demo",
)


def _load(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"


def test_train_full_dqn_quick_mode(capsys):
    module = _load("train_full_dqn")
    module.main(quick=True)
    out = capsys.readouterr().out
    assert "profit" in out
