"""Smoke test of gridbench; run explicitly, it is outside tier-1's testpaths:

    python -m pytest benchmarks/gridbench/tests/test_smoke.py -q

``--quick`` (3 s windows) must emit every named metric for every
workload, on one schema that BENCHMARK.json repeats, and leave no
server process behind.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parents[1]
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _servers_alive():
    alive = []
    for cmdline in pathlib.Path("/proc").glob("[0-9]*/cmdline"):
        try:
            text = cmdline.read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # the process ended while we looked
        if "grid_info_server" in text or "traced_server.py" in text:
            alive.append(text)
    return alive


def test_benchmark_json_repeats_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] \
        == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] \
        == [(name, cls.why) for name, cls in WORKLOADS.items()]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_emits_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--quick", "--trace", trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert not _servers_alive()
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m[0]: m[1] for m in (PER_LAYER if trace == "1" else END_TO_END)}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # One seed, one schedule: this process and the runner's agree.
    printed = re.search(r"schedule sha256=([0-9a-f]{64})", done.stdout).group(1)
    assert printed == WORKLOADS[workload](7).schedule_hash(3.0)
    # Every metric is printed by name with its unit and sample count.
    for name, unit in expected.items():
        assert re.search(rf"^{workload}\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+$",
                         done.stdout, re.M), name


def test_wrong_answer_fails_the_run():
    """The oracle, not the server, decides: a request whose expectation
    disagrees with the dataset must fail its verdict."""
    from loadgen import Req, Sample

    req = Req("probe", "o=Grid", expect=frozenset(["hn=a, o=grid"]))
    right = Sample(req, due=0.0, done=0.1, code=0, dns=["hn=a, o=Grid"])
    wrong = Sample(req, due=0.0, done=0.1, code=0, dns=["hn=b, o=Grid"])
    busy = Sample(req, due=0.0, done=0.1, code=51, dns=[])
    assert right.verdict() == ""
    assert "entries differ" in wrong.verdict()
    assert "result code 51" in busy.verdict()
    assert Sample(req, due=0.0).verdict() == "no answer"


def test_stripped_checkout_exits_nonzero(tmp_path):
    """Where only BENCHMARK.json and the benchmark's paths exist there is
    no product to measure: fail fast, print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    script = tmp_path / SPEC["command"][1]
    done = _run("--workload", "gris_host", "--seed", "1", "--seconds", "3", "--trace", "0",
                cwd=tmp_path, script=script)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
