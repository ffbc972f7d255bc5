"""The benchmark ``report`` fixture: full runs persist, quick smokes only print."""

import importlib.util
import pathlib
import types

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
_spec = importlib.util.spec_from_file_location("bench_conftest", _PATH)
bench_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_conftest)


@pytest.fixture
def reports(tmp_path, monkeypatch):
    where = tmp_path / "reports"
    monkeypatch.setattr(bench_conftest, "REPORTS", where)
    return where


def _fixture_for(quick):
    """What the ``report`` fixture gives a module whose QUICK is *quick*
    (None: a module without QUICK)."""
    module = types.ModuleType("bench_module")
    if quick is not None:
        module.QUICK = quick
    return bench_conftest.report.__wrapped__(types.SimpleNamespace(module=module))


@pytest.mark.parametrize("quick", [False, None])
def test_a_full_run_prints_and_persists(reports, capsys, quick):
    assert _fixture_for(quick)("E99_demo", "a | b") == "a | b"
    assert (reports / "E99_demo.txt").read_text() == "a | b\n"
    assert "=== E99_demo ===" in capsys.readouterr().out


def test_a_quick_smoke_prints_and_writes_nothing(reports, capsys):
    _fixture_for(True)("E99_demo", "a | b")
    assert not reports.exists()
    assert "=== E99_demo ===" in capsys.readouterr().out
