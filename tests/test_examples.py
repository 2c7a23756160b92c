"""Smoke tests: every example script must run to completion via its main()."""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = [
    "quickstart.py",
    "office_floor_tour.py",
    "highway_restaurants.py",
    "commuter_stock_ticker.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_to_completion(script, capsys):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"example {script} produced no output"


def test_examples_directory_contents():
    """The examples directory contains at least the quickstart plus two domain scenarios."""
    scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    assert "quickstart.py" in scripts
    assert len(scripts) >= 3
