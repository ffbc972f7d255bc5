"""Shared fixtures for the experiment harness.

Every benchmark prints a paper-shaped report table and, on a full run,
also writes it to ``benchmarks/reports/<name>.txt`` so results survive
pytest's output capture.  A quick smoke (a module whose ``QUICK`` is
true, e.g. ``E17_QUICK=1``) only prints, so it leaves the committed
full-mode reports as they are.  EXPERIMENTS.md summarizes paper-claim
vs. measured for each.
"""

import pathlib

import pytest

REPORTS = pathlib.Path(__file__).parent / "reports"


def make_report(quick: bool):
    """report(name, text): print one experiment report, and persist it
    under ``REPORTS`` unless *quick*."""

    def emit(name: str, text: str) -> str:
        if not quick:
            REPORTS.mkdir(exist_ok=True)
            (REPORTS / f"{name}.txt").write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")
        return text

    return emit


@pytest.fixture
def report(request):
    """report(name, text) for the calling module, quick if its ``QUICK`` is."""
    return make_report(bool(getattr(request.module, "QUICK", False)))
