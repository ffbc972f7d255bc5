"""Paired, interleaved comparison of two checkouts on gridbench workloads.

    python3 benchmarks/pairs.py --parent DIR --change DIR --workload W
        [--workload W2 ...] [--pairs 10] [--seed N]

``--workload`` repeats, and ``--workload all`` names every workload of
``BENCHMARK.json``; the workloads run one after another, each with its
own pairs and its own table.

First, a pre-flight: the change checkout runs the benchmark command of
``BENCHMARK.json`` once as it stands plus ``--quick`` (every workload,
untraced and traced).  If that run exits non-zero, nothing is paired:
the tail of its stderr is shown and the exit status is 1.

Then it implements the method of gridbench's "Comparing two commits": pair *i*
runs the benchmark command of ``BENCHMARK.json`` (beside this file's
directory) with ``--trace 0`` and seed ``N + i`` in both checkouts, the
parent first on even pairs and the change first on odd ones.  Then, per
end-to-end metric, it prints each side's median and quartiles
(``statistics.quantiles(values, n=4)``), the change's wins (ties count
for neither side) and a verdict:

* ``gain`` -- the change wins at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's own
  inter-quartile distance;
* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's ``bound`` (a fraction of the parent's median);
* ``no regression`` -- neither.

A row is also marked ``unresolved`` when the parent's own inter-quartile
distance is wider than the metric's bound: the runs spread too widely
for these pairs to tell a regression of that size from noise.  The mark
changes neither the verdict nor the exit status.

The exit status is non-zero when any run of any workload failed
(non-zero exit, no result line, or ``failed`` > 0) or any metric is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys
from typing import List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600  # one gridbench run takes about 30 s; this only stops a hang
PREFLIGHT_TIMEOUT_S = 1800  # every workload, both passes, 3 s windows
PREFLIGHT_TAIL = 20  # stderr lines shown when the pre-flight run fails
GAIN_SHARE = 0.9  # of the pairs the change must win to claim a gain


def parse_result(stdout: str) -> Optional[dict]:
    """The last JSON object line of a gridbench run's output, or None."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                return None
    return None


def run_once(checkout: pathlib.Path, command: Sequence[str], workload: str, seed: int) -> dict:
    """One untraced run in *checkout*: its result object, with ``error``
    (the last line of stderr) when the run failed."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    try:
        proc = subprocess.run(
            argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"correct": False, "metrics": {}, "error": "timeout"}
    record = parse_result(proc.stdout) or {"correct": False, "metrics": {}}
    if proc.returncode != 0 or failed(record):
        record["error"] = (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
        record["correct"] = False
    return record


def preflight(checkout: pathlib.Path, command: Sequence[str]) -> Optional[str]:
    """Run *command* with ``--quick`` once in *checkout*: None when it
    exits 0, else the tail of its stderr (or what stopped it)."""
    try:
        proc = subprocess.run(
            [*command, "--quick"], cwd=checkout, capture_output=True, text=True,
            timeout=PREFLIGHT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"timeout after {PREFLIGHT_TIMEOUT_S} s"
    if proc.returncode == 0:
        return None
    tail = proc.stderr.strip().splitlines()[-PREFLIGHT_TAIL:]
    return "\n".join(tail + [f"exit {proc.returncode}"])


def failed(record: dict) -> bool:
    """A run that gave a wrong answer, failed operations or no result."""
    return not record.get("correct", False) or int(record.get("failed", 0)) > 0


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:  # statistics.quantiles needs two points
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarise(pairs: Sequence[Tuple[dict, dict]], end_to_end: Sequence[dict]) -> List[dict]:
    """One row per end-to-end metric both sides of every pair reported.

    *pairs* holds ``(parent_record, change_record)`` result objects;
    *end_to_end* is the ``end_to_end`` list of ``BENCHMARK.json``.
    """
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        values = [
            (p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs
            if name in p["metrics"] and name in c["metrics"]
        ]
        if not values:
            continue
        parent = _quartiles([p for p, _ in values])
        change = _quartiles([c for _, c in values])
        wins = sum((c < p) if lower else (c > p) for p, c in values)
        gained = (parent[1] - change[1]) if lower else (change[1] - parent[1])
        bound = parent[1] * spec["bound"]
        if wins >= math.ceil(GAIN_SHARE * len(values)) and gained > parent[2] - parent[0]:
            verdict = "gain"
        elif -gained > bound:
            verdict = "worse"
        else:
            verdict = "no regression"
        rows.append(
            {
                "metric": name,
                "unit": spec["unit"],
                "parent": parent,
                "change": change,
                "delta": (change[1] - parent[1]) / parent[1],
                "wins": wins,
                "pairs": len(values),
                "verdict": verdict,
                "unresolved": parent[2] - parent[0] > bound,
            }
        )
    return rows


def format_rows(rows: Sequence[dict]) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        f"{'metric':<22} {'unit':<4} {'parent median [q1, q3]':<28} "
        f"{'change median [q1, q3]':<28} {'delta':>7} {'wins':>6}  verdict"
    ]
    for r in rows:
        lines.append(
            f"{r['metric']:<22} {r['unit']:<4} {side(r['parent']):<28} {side(r['change']):<28} "
            f"{r['delta']:>+7.1%} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']}"
            + (", unresolved" if r["unresolved"] else "")
        )
    return "\n".join(lines)


def compare(
    bench: dict, sides: dict, workload: str, n_pairs: int, first_seed: int
) -> Tuple[List[dict], bool]:
    """Run *n_pairs* interleaved pairs of one workload; returns the summary
    rows and whether any run failed."""
    pairs: List[Tuple[dict, dict]] = []
    any_failed = False
    for i in range(n_pairs):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for which in order:
            got[which] = run_once(sides[which], bench["command"], workload, seed)
            status = "FAILED " + got[which].get("error", "") if failed(got[which]) else "ok"
            print(f"{workload} pair {i + 1}/{n_pairs} seed {seed} {which}: {status}", file=sys.stderr)
            any_failed |= failed(got[which])
        pairs.append((got["parent"], got["change"]))
    return summarise(pairs, bench["end_to_end"]), any_failed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=pathlib.Path, help="change checkout")
    parser.add_argument(
        "--workload", required=True, action="append",
        help="repeatable; 'all' means every workload of BENCHMARK.json",
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = []
    for name in args.workload:
        workloads += [w["name"] for w in bench["workloads"]] if name == "all" else [name]
    sides = {"parent": args.parent, "change": args.change}
    error = preflight(args.change, bench["command"])
    if error is not None:
        print(f"NOT OK pre-flight: {' '.join(bench['command'])} --quick failed in {args.change}:",
              file=sys.stderr)
        print(error, file=sys.stderr)
        return 1
    not_ok = []
    for workload in workloads:
        rows, any_failed = compare(bench, sides, workload, args.pairs, args.seed)
        print(f"workload {workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}")
        print(format_rows(rows), flush=True)
        worse = [r["metric"] for r in rows if r["verdict"] == "worse"]
        if any_failed or worse:
            not_ok.append(f"{workload}: failed runs {any_failed}, worse {worse}")
    for line in not_ok:
        print(f"NOT OK {line}", file=sys.stderr)
    return 1 if not_ok else 0


if __name__ == "__main__":
    raise SystemExit(main())
