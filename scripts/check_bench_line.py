#!/usr/bin/env python3
"""Check the result line of a benchmark run read from standard input.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 1 --trace 0 \\
        | python3 scripts/check_bench_line.py

The last line must be the run's JSON result and nothing may follow it.  It
is parsed with NaN and Infinity rejected, and it must report ``correct``
true, ``failed`` 0 and a finite number for every metric ``BENCHMARK.json``
names: the end-to-end metrics of an untraced run, or the per-layer metrics
of a traced one (each under its workload's prefix in a ``--workload all``
line).  Exits 0 when all hold, else 1 with one line per problem.
"""

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _reject(constant: str):
    raise ValueError(f"non-finite number {constant}")


def parse_result(line: str) -> dict:
    result = json.loads(line, parse_constant=_reject)
    if not isinstance(result, dict):
        raise ValueError("not a JSON object")
    return result


def expected_metrics(metrics: dict, bench: dict) -> list[str]:
    """The names the line must carry: one metric list per workload prefix it uses."""
    kinds = [[m["name"] for m in bench[k]] for k in ("end_to_end", "per_layer")]
    names = []
    for prefix in ["", *(f"{w['name']}." for w in bench["workloads"])]:
        for kind in kinds:
            if any(prefix + n in metrics for n in kind):
                names += [prefix + n for n in kind]
                break
    return names


def problems(stdout: str, bench: dict) -> list[str]:
    lines = stdout[:-1].split("\n") if stdout.endswith("\n") else stdout.split("\n")
    try:
        result = parse_result(lines[-1])
    except ValueError as e:
        for i in range(len(lines) - 2, -1, -1):
            try:
                parse_result(lines[i])
            except ValueError:
                continue
            return [f"{len(lines) - 1 - i} line(s) follow the result line"]
        return [f"the last line is not a JSON result: {e}"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        found.append(f"failed is {result.get('failed')!r}, not 0")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return found + ["no metrics object"]
    names = expected_metrics(metrics, bench)
    if not names:
        found.append("none of the metrics BENCHMARK.json names")
    for name in names:
        metric = metrics.get(name)
        metric = metric if isinstance(metric, dict) else {}
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            why = f" ({metric['missing']})" if "missing" in metric else ""
            found.append(f"metric {name} is {value!r}, not a finite number{why}")
    return found


def main() -> int:
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    found = problems(sys.stdin.read(), bench)
    for p in found:
        print(f"error: {p}")
    if not found:
        print("ok: the result line is well formed, correct and complete")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
