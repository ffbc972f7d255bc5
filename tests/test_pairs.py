"""The paired-comparison runner's summariser, on canned gridbench result lines."""

import importlib.util
import json
import pathlib
import sys

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "server_cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "search_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "goodput_rps", "unit": "1/s", "better": "higher", "bound": 0.02},
]


def line(cpu, p50, goodput, failed=0):
    """One run's stdout: progress noise, then gridbench's result line."""
    metrics = {
        "server_cpu_ms_per_op": {"value": cpu, "unit": "ms"},
        "search_p50_ms": {"value": p50, "unit": "ms"},
        "goodput_rps": {"value": goodput, "unit": "1/s"},
    }
    result = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": metrics}
    return "gridbench: warming up\n" + json.dumps(result) + "\n"


def rows_by_metric(canned):
    runs = [(pairs.parse_result(p), pairs.parse_result(c)) for p, c in canned]
    return {row["metric"]: row for row in pairs.summarise(runs, END_TO_END)}


def test_verdicts_follow_wins_spread_and_bounds():
    canned = [
        (
            line(0.40 + 0.01 * (i % 3), 1.00 + 0.01 * i, 300.0),
            line(0.30 + 0.01 * (i % 3), 1.00 + 0.01 * ((i + 5) % 10), 290.0),
        )
        for i in range(10)
    ]
    rows = rows_by_metric(canned)
    cpu = rows["server_cpu_ms_per_op"]
    assert (cpu["verdict"], cpu["wins"], cpu["pairs"]) == ("gain", 10, 10)
    assert cpu["delta"] == pytest.approx(-0.25, abs=0.01)
    p50 = rows["search_p50_ms"]
    assert p50["verdict"] == "no regression"  # same values, shuffled: no gain
    assert p50["change"][1] == pytest.approx(p50["parent"][1])
    goodput = rows["goodput_rps"]
    assert (goodput["verdict"], goodput["wins"]) == ("worse", 0)  # -3.3% past a 2% bound


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_spread():
    eight_of_ten = [(line(1.0, 1.0, 300.0), line(0.5 if i < 8 else 1.1, 1.0, 300.0)) for i in range(10)]
    assert rows_by_metric(eight_of_ten)["server_cpu_ms_per_op"]["verdict"] == "no regression"
    # Every pair won, but by less than the parent's inter-quartile distance.
    narrow = [(line(1.0 + 0.1 * i, 1.0, 300.0), line(0.99 + 0.1 * i, 1.0, 300.0)) for i in range(10)]
    row = rows_by_metric(narrow)["server_cpu_ms_per_op"]
    assert row["wins"] == 10 and row["verdict"] == "no regression"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    """Bimodal parent runs: q1-q3 spans more than 25% of the median.  The
    row says so, and keeps its verdict and the exit status."""
    canned = [
        (line(1.0, 1.0 if i % 2 else 2.0, 300.0), line(1.0, 1.0 if i % 2 else 2.0, 300.0))
        for i in range(10)
    ]
    rows = rows_by_metric(canned)
    p50 = rows["search_p50_ms"]
    assert p50["unresolved"] and p50["verdict"] == "no regression"
    assert not rows["server_cpu_ms_per_op"]["unresolved"]
    text = pairs.format_rows(rows.values()).splitlines()
    assert text[2].endswith("no regression, unresolved")
    assert text[1].endswith("no regression")
    # A regression past the bound still reads worse, marked or not.
    worse = [(p, line(1.0, 3.0, 300.0)) for p, _ in canned]
    p50 = rows_by_metric(worse)["search_p50_ms"]
    assert (p50["verdict"], p50["unresolved"]) == ("worse", True)


def test_failed_and_missing_runs():
    assert pairs.failed(pairs.parse_result(line(1.0, 1.0, 300.0, failed=2)))
    assert not pairs.failed(pairs.parse_result(line(1.0, 1.0, 300.0)))
    assert pairs.parse_result("Traceback (most recent call last):\n  boom\n") is None
    # A run with no result line drops out of that metric's pairs.
    canned = [(line(1.0, 1.0, 300.0), line(0.9, 1.0, 300.0))] * 3
    runs = [(pairs.parse_result(p), pairs.parse_result(c)) for p, c in canned]
    runs.append((runs[0][0], {"correct": False, "metrics": {}}))
    rows = pairs.summarise(runs, END_TO_END)
    assert {row["pairs"] for row in rows} == {3}
    assert "worse" not in pairs.format_rows(rows)


def _stub_runs(monkeypatch, canned):
    """Replace the gridbench run with *canned*[(workload, side)] records;
    returns the (workload, side, seed) calls made."""
    calls = []

    def run_once(checkout, command, workload, seed):
        side = pathlib.Path(checkout).name
        calls.append((workload, side, seed))
        return pairs.parse_result(canned[workload, side])

    monkeypatch.setattr(pairs, "run_once", run_once)
    monkeypatch.setattr(pairs, "preflight", lambda checkout, command: None)
    return calls


def _main(*workloads):
    argv = ["--parent", "parent", "--change", "change", "--pairs", "2", "--seed", "7"]
    for workload in workloads:
        argv += ["--workload", workload]
    return pairs.main(argv)


def test_several_workloads_run_in_turn_one_table_each(monkeypatch, capsys):
    canned = {
        ("gris_host", "parent"): line(0.40, 1.0, 300.0),
        ("gris_host", "change"): line(0.30, 1.0, 300.0),
        ("giis_chained", "parent"): line(2.0, 2.0, 100.0),
        ("giis_chained", "change"): line(2.0, 2.0, 100.0),
    }
    calls = _stub_runs(monkeypatch, canned)
    assert _main("gris_host", "giis_chained") == 0
    assert [c[0] for c in calls] == ["gris_host"] * 4 + ["giis_chained"] * 4
    assert [c[1:] for c in calls[:4]] == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8)
    ]
    out = capsys.readouterr().out
    assert out.count("workload ") == 2 and out.count("server_cpu_ms_per_op") == 2
    assert out.index("workload gris_host") < out.index("workload giis_chained")


def test_any_workload_worse_or_failed_fails_the_whole_run(monkeypatch, capsys):
    ok = line(1.0, 1.0, 300.0)
    canned = {
        ("gris_host", "parent"): ok,
        ("gris_host", "change"): ok,
        ("giis_chained", "parent"): ok,
        ("giis_chained", "change"): line(1.5, 1.0, 300.0),  # CPU +50%
    }
    _stub_runs(monkeypatch, canned)
    assert _main("gris_host", "giis_chained") == 1
    assert "NOT OK giis_chained" in capsys.readouterr().err
    canned["giis_chained", "change"] = line(1.0, 1.0, 300.0, failed=1)
    assert _main("gris_host", "giis_chained") == 1
    canned["giis_chained", "change"] = ok
    assert _main("gris_host", "giis_chained") == 0


def test_all_means_every_benchmark_workload(monkeypatch):
    bench = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ok = line(1.0, 1.0, 300.0)
    calls = _stub_runs(monkeypatch, {(n, s): ok for n in names for s in ("parent", "change")})
    assert _main("all") == 0
    assert list(dict.fromkeys(c[0] for c in calls)) == names


def _stub_command(tmp_path, code):
    """A stand-in for the benchmark command: records its arguments, then runs *code*."""
    script = tmp_path / "bench.py"
    script.write_text(
        "import pathlib, sys\n"
        "pathlib.Path('argv.json').write_text(__import__('json').dumps(sys.argv[1:]))\n"
        + code
    )
    return [sys.executable, str(script)]


def test_preflight_runs_the_benchmark_command_once_quick(tmp_path):
    command = _stub_command(tmp_path, "print('ok')\n")
    assert pairs.preflight(tmp_path, command) is None
    assert json.loads((tmp_path / "argv.json").read_text()) == ["--quick"]


def test_a_failed_preflight_stops_before_any_pair(tmp_path, monkeypatch, capsys):
    command = _stub_command(
        tmp_path,
        "for i in range(40): print(f'trace line {i}', file=sys.stderr)\n"
        "print(\"AttributeError: type object 'DIT' has no attribute 'candidates'\", file=sys.stderr)\n"
        "sys.exit(3)\n",
    )
    error = pairs.preflight(tmp_path, command)
    assert error.splitlines()[-2:] == [
        "AttributeError: type object 'DIT' has no attribute 'candidates'", "exit 3"]
    assert "trace line 0" not in error and "trace line 39" in error

    bench = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())
    bench["command"] = command
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    calls = []
    monkeypatch.setattr(pairs, "run_once", lambda *args: calls.append(args))
    assert pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                       "--workload", "all"]) == 1
    assert calls == []
    err = capsys.readouterr().err
    assert "NOT OK pre-flight" in err and "has no attribute 'candidates'" in err
