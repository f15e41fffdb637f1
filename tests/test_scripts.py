"""Smoke runs of the scripts under scripts/, each in a fresh interpreter, and a
check that every function the benchmark traces still exists."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def _run_script(name, *args, stdin=None, env=()):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **dict(env)},
    )


def test_compile_golden_prints_the_cli_report_and_writes_dot(tmp_path):
    out = _run_script("compile_golden.py", "--dot-dir", str(tmp_path / "dot"))
    assert out.returncode == 0, out.stderr
    for line in [
        "elimination: l j k i h a c d D4 g D3 D2 f e D1 b",
        "  C1: D1, b, d, e, f (root)",
        "  C16: D4, i, l -> C8 [sep: D4, i]",
        "policy D4 (clique C8, domain: D2, g)",
        "fill-ins: 9",
    ]:
        assert line + "\n" in out.stdout, line
    assert "\nMEU " in out.stdout
    for name in ("moral", "triangulated", "tree"):
        assert (tmp_path / "dot" / f"{name}.dot").read_text().rstrip().endswith("}")


def test_oracle_sweep_agrees_on_five_models():
    out = _run_script("oracle_sweep.py", "--models", "5")
    assert out.returncode == 0, out.stderr
    assert "models: 5  heuristic: min-fill" in out.stdout
    assert out.stdout.endswith("agreement\n")


def test_report_digest_is_the_same_under_two_hash_seeds():
    lines = []
    for seed in ("0", "1"):
        out = _run_script("report_digest.py", "--count", "20", env={"PYTHONHASHSEED": seed})
        assert out.returncode == 0, out.stderr
        lines.append(out.stdout)
    models, mutants = lines[0].splitlines()
    assert models.startswith("models: 22  sha256: ") and lines[0].count("\n") == 2
    assert mutants.startswith("mutants: 40  sha256: ")
    assert lines[0] == lines[1]


def test_every_traced_benchmark_target_resolves():
    # a renamed function would silently drop its per-layer benchmark metric
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, span in tracing.TARGETS:
        assert hasattr(importlib.import_module(module_name), attr), span


def _bench_output(metrics):
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
    return f"wide seed 1: 2 models\n  pass_s 0.4 s\n{line}\n"


def test_check_bench_line_accepts_a_complete_result_and_rejects_broken_ones():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    good = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in bench["end_to_end"]}
    out = _run_script("check_bench_line.py", stdin=_bench_output(good))
    assert out.returncode == 0, out.stdout
    null = {**good, "total_cells": {"value": None, "unit": "cells", "missing": "no report"}}
    nan = _bench_output(good).replace('"pass_s": {"value": 1.5', '"pass_s": {"value": NaN')
    cases = [
        (_bench_output(null), "error: metric total_cells is None, not a finite number (no report)\n"),
        (nan, "error: the last line is not a JSON result: non-finite number NaN\n"),
        (_bench_output(good) + "done\n", "error: 1 line(s) follow the result line\n"),
    ]
    for stdin, message in cases:
        out = _run_script("check_bench_line.py", stdin=stdin)
        assert (out.returncode, out.stdout) == (1, message)


def test_committed_benchmark_results_are_well_formed():
    # each committed trajectory line must pass the same check as a fresh run's stdout
    spec = importlib.util.spec_from_file_location("check", ROOT / "scripts" / "check_bench_line.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        runs = json.loads(path.read_text())["runs"]
        assert runs, path.name
        for k, run in enumerate(runs):
            assert check.problems(json.dumps(run["result"]) + "\n", bench) == [], (path.name, k)
