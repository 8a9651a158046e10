"""Smoke tests keeping the examples runnable.

Each example module must import cleanly, expose ``main``, and run end to
end: the examples are reachers in ``tests/test_surface_census.py``, and
most import their attack/viz names inside ``main()``.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def _load(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesImportable:
    def test_expected_examples_present(self):
        assert set(ALL_EXAMPLES) >= {
            "quickstart.py",
            "distributed_analysis.py",
            "privacy_utility_tradeoff.py",
            "deanonymization_attack.py",
            "social_graph.py",
            "semantic_trajectories.py",
            "paper_walkthrough.py",
        }

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_imports_and_has_main(self, name):
        module = _load(name)
        assert callable(getattr(module, "main", None)), f"{name} lacks main()"
        assert module.__doc__, f"{name} lacks a module docstring"


class TestExamplesRun:
    """Every example's ``main()`` runs: the five here, two more below."""

    @pytest.mark.parametrize(
        "name", sorted(set(ALL_EXAMPLES) - {"semantic_trajectories.py", "social_graph.py"})
    )
    def test_main_runs(self, name, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", [name])
        _load(name).main()
        assert capsys.readouterr().out


class TestFastExamplesRun:
    def test_semantic_trajectories_runs(self, capsys):
        _load("semantic_trajectories.py").main()
        out = capsys.readouterr().out
        assert "Semantic trail" in out
        assert "Pi_max" in out

    def test_social_graph_runs(self, capsys):
        _load("social_graph.py").main()
        out = capsys.readouterr().out
        assert "recall of planted edges" in out
