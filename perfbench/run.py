#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of idjt on three seeded workloads.

One process, one thread, a closed loop: each model file goes through
``idjt.cli.run(RunConfig(path, stats=True))`` only after the previous one
returned.  The untraced run (``--trace 0``) reports the end-to-end metrics;
the traced run (``--trace 1``) wraps the layers' functions from outside the
package and reports the per-layer metrics.  The untraced run scales its times
to a reference host speed (see ``HostSpeed``).  Every MEU is checked against an
independent reference (see ``workloads.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Usage, from the repository root::

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

START = perf_counter()  # as near to process start as this file can see
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".benchwork"
FINGERPRINTS = HERE / "fingerprints.json"
MODEL_TIME_LIMIT_S = 15.0  # a model still running after this counts as failed
REL_TOL = 1e-9
SETUP_REPEATS = 3  # generate-and-write repeats per untraced run
CHILD_TIMEOUT_S = 170  # per workload under --workload all
CALIBRATE_EVERY_S = 0.5  # longest stretch of timed models between two calibrations
REFERENCE_CALIBRATION_S = 0.05  # the calibration block's time on the reference host
CALIBRATION_STREAMS = 30  # in-place passes over the calibration array
WORKLOAD_NAMES = ("sweep", "chain", "wide")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- attempting one model ------------------------------------------------------


class ModelTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ModelTimeout(f"over the {MODEL_TIME_LIMIT_S:g} s per-model limit")


@dataclass
class Outcome:
    seconds: float
    meu: float | None = None
    max_cells: int | None = None
    total_cells: int | None = None
    error: str | None = None  # set for an exception, exit code, timeout or wrong MEU
    scale: float = 1.0  # host-speed factor, set by the untraced run

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def read_report(report: str) -> tuple[float, int, int]:
    """MEU, max clique state-space size and total table cells from a --stats report."""
    found = {}
    for line in report.splitlines():
        for key, prefix in (("meu", "MEU "), ("max", "max clique state-space size: "),
                            ("total", "total table cells: ")):
            if line.startswith(prefix):
                found[key] = line[len(prefix):]
    if len(found) != 3:
        raise ValueError(f"report lacks {sorted({'meu', 'max', 'total'} - set(found))}")
    return float(found["meu"]), int(found["max"]), int(found["total"])


def attempt(call, path: Path) -> Outcome:
    """One ``call(path) -> (exit code, report)`` under the per-model alarm."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, MODEL_TIME_LIMIT_S)
        try:
            code, report = call(path)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start
        if code != 0:
            return Outcome(seconds, error=f"exit code {code}: {report.strip()[:200]}")
        return Outcome(seconds, *read_report(report))
    except Exception as e:  # the program under test crashed; count it and go on
        return Outcome(perf_counter() - start, error=f"{type(e).__name__}: {str(e)[:200]}")


class Log:
    """Every attempt of the run, per model, in order."""

    def __init__(self, names: list[str]):
        self.outcomes: dict[str, list[Outcome]] = {n: [] for n in names}

    def run_pass(self, call, paths: dict[str, Path], names: list[str], on_model=None) -> float:
        start = perf_counter()
        for name in names:
            if on_model is not None:
                on_model(name)
            self.outcomes[name].append(attempt(call, paths[name]))
        return perf_counter() - start

    def check(self, references: dict[str, float]) -> int:
        """Mark every MEU off its reference as failed; returns the mismatch count."""
        wrong = 0
        for name, outs in self.outcomes.items():
            ref = references[name]
            for o in outs:
                if o.error is not None:
                    continue
                if not abs(o.meu - ref) <= REL_TOL * max(abs(ref), abs(o.meu), 1.0):  # nan fails
                    o.error = f"MEU {o.meu!r} differs from the reference {ref!r}"
                    wrong += 1
        return wrong

    def counts(self) -> tuple[int, int]:
        """Models attempted and models with a failed attempt.

        Counted per model, not per attempt: how many passes fit in a run
        depends on the machine's speed, so a per-attempt failure share would
        move with it while the set of failing models does not."""
        return len(self.outcomes), sum(any(o.error for o in v) for v in self.outcomes.values())

    def failures(self) -> dict[str, str]:
        return {n: next(o.error for o in v if o.error) for n, v in self.outcomes.items()
                if any(o.error for o in v)}


# -- host speed --------------------------------------------------------------------


class HostSpeed:
    """A fixed calibration block, timed between timed models; it runs no idjt code.

    The host's speed drifts by tens of percent in phases that last from
    seconds to minutes, and the drift is shared by every workload.  Each timed
    model is scaled by REFERENCE_CALIBRATION_S over the mean of the samples
    taken just before and just after it, so its time reads as seconds on a
    host where the block takes REFERENCE_CALIBRATION_S.  The block has two
    halves of about equal time: set, dict and tuple work in the interpreter,
    and in-place numpy passes over an 8 MiB array, larger than a core's L2
    cache, because the workloads range from interpreter-bound (``sweep``,
    ``chain``) to bandwidth-bound (``wide``).  The array is allocated once and
    adds a constant 8 MiB to ``peak_rss_mb``.
    """

    def __init__(self):
        import random

        import numpy as np

        rng = random.Random(7)
        self.adj = {i: set() for i in range(300)}
        for _ in range(900):
            a, b = rng.randrange(300), rng.randrange(300)
            if a != b:
                self.adj[a].add(b)
                self.adj[b].add(a)
        self.array = np.random.default_rng(7).random(1 << 20)
        self.np = np
        self.samples: list[float] = []
        self.last = float("-inf")

    def calibrate(self) -> None:
        start = perf_counter()
        for v in range(0, len(self.adj), 2):
            reach, frontier = {v}, [v]
            while frontier:
                for w in self.adj[frontier.pop()]:
                    if w not in reach:
                        reach.add(w)
                        frontier.append(w)
        counts = {}
        for i in range(20000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + i
        for _ in range(CALIBRATION_STREAMS):
            self.np.negative(self.array, out=self.array)
            self.array.sum()
        self.samples.append(perf_counter() - start)
        self.last = perf_counter()

    def index(self) -> int:
        """The index of the latest sample, calibrating first if it is too old."""
        if perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.calibrate()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """The factor for a model timed between samples ``index`` and ``index + 1``."""
        return REFERENCE_CALIBRATION_S / statistics.fmean(self.samples[index:index + 2])


# -- set-up, fingerprint, references ----------------------------------------------


def set_up(workloads, workload: str, seed: int, work: Path, repeats: int, imported: float,
           host: "HostSpeed | None"):
    """Generate the workload and write its model files, ``repeats`` times.

    ``import idjt`` happens once per process, so each sample is ``imported``,
    the time from the top of this file to the end of the imports, plus one
    generate-and-write.  With a ``host``, each sample is scaled by the
    calibrations around its generate-and-write.  The models of the last repeat
    are the ones timed and checked.
    """
    work.mkdir(parents=True)
    walls, indices = [], []
    for _ in range(repeats):
        if host is not None:
            host.calibrate()
            indices.append(len(host.samples) - 1)
        start = perf_counter()
        models = workloads.generate(workload, seed)
        for m in models:
            (work / f"{m.name}.idm").write_text(m.text, encoding="utf-8")
        walls.append(imported + perf_counter() - start)
    if host is None:
        return walls, [1.0] * repeats, models
    host.calibrate()
    return walls, [host.scale(i) for i in indices], models


def check_fingerprint(workloads, workload: str, seed: int, models) -> None:
    """Abort if the default-seed texts no longer match the recorded fingerprint."""
    default = models if seed == workloads.DEFAULT_SEED else \
        workloads.GENERATORS[workload](workloads.DEFAULT_SEED)
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))[workload]
    actual = workloads.fingerprint(default)
    if actual != expected:
        raise SystemExit(f"error: {workload} inputs changed: default-seed fingerprint {actual} "
                         f"!= recorded {expected}; the generators or write_model moved")


def references(models) -> tuple[dict[str, float], float]:
    start = perf_counter()
    refs = {m.name: m.reference() for m in models}
    return refs, perf_counter() - start


# -- metrics ---------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def solved_frac(log: Log) -> float:
    names = log.outcomes
    return sum(all(o.error is None for o in v) for v in names.values()) / len(names)


def end_to_end(log: Log, timed: list[str], setup_walls, setup_scales, passes, host,
               rss_mib) -> tuple[dict, list[str]]:
    """Latency percentiles are taken across models, over each model's median latency.

    Times are scaled to the reference host speed.  The cell counts cover
    every timed model, so a timed model that never returned a report makes
    them missing rather than smaller."""
    ok = {n: [o for o in log.outcomes[n] if o.error is None] for n in timed}
    ok = {n: v for n, v in ok.items() if v}
    if not ok:
        raise SystemExit("error: no timed model solved correctly")
    per_model = [statistics.median(o.scaled * 1e3 for o in v) for v in ok.values()]
    p50, p99 = statistics.quantiles(per_model, n=100, method="inclusive")[49::49] \
        if len(per_model) > 1 else per_model * 2
    reports = [next((o for o in log.outcomes[n] if o.max_cells is not None), None) for n in timed]
    if None in reports:
        cells = {"value": None, "unit": "cells", "missing": "a timed model returned no report"}
        max_cells = total_cells = cells
    else:
        max_cells = metric(max(o.max_cells for o in reports), "cells")
        total_cells = metric(sum(o.total_cells for o in reports), "cells")
    scaled = [sum(o.scaled for o in p) for p in passes]
    metrics = {
        "setup_s": metric(statistics.median(w * s for w, s in zip(setup_walls, setup_scales)), "s"),
        "pass_s": metric(statistics.median(scaled), "s"),
        "model_ms_p50": metric(p50, "ms"),
        "model_ms_p99": metric(p99, "ms"),
        "peak_rss_mb": metric(rss_mib, "MiB"),
        "max_clique_cells": max_cells,
        "total_cells": total_cells,
        "solved_frac": metric(solved_frac(log), "ratio"),
    }
    solves = sum(map(len, ok.values()))
    cal = host.samples
    notes = [
        f"host speed: {len(cal)} calibrations, median {statistics.median(cal) * 1e3:.2f} ms "
        f"(reference {REFERENCE_CALIBRATION_S * 1e3:g} ms), range "
        f"{min(cal) * 1e3:.2f}-{max(cal) * 1e3:.2f} ms",
        f"setup_s: import time plus the median of {len(setup_walls)} scaled generate-and-write "
        f"repeats, unscaled {_fmt_list(setup_walls)}",
        f"pass_s: median of {len(passes)} scaled passes {_fmt_list(scaled)}, "
        f"unscaled {_fmt_list(sum(o.seconds for o in p) for p in passes)}",
        f"model_ms_p50, model_ms_p99: across {len(per_model)} per-model medians "
        f"of {solves} successful solves",
    ]
    return metrics, notes


def _fmt_list(xs) -> str:
    return "[" + ", ".join(f"{x:.3f}" for x in xs) + "]"


# Per-layer metric -> (unit, the span it is read from).  "tables.*" is any table
# function; None marks values the benchmark measures itself.  A metric whose span
# no longer exists or never fired is reported as missing, never as 0.
PER_LAYER = {
    "model.parse_s": ("s", "model.parse"),
    "model.validate_s": ("s", "model.validate"),
    "model.validate_errors": ("count", "model.validate"),
    "compiler.moralize_s": ("s", "compiler.moralize"),
    "compiler.order_s": ("s", "compiler.order"),
    "compiler.triangulate_s": ("s", "compiler.triangulate"),
    "compiler.cliques_s": ("s", "compiler.cliques"),
    "compiler.build_tree_s": ("s", "compiler.build_tree"),
    "compiler.verify_s": ("s", "compiler.verify"),
    "compiler.fill_ins": ("count", "compiler.triangulate"),
    "compiler.cliques": ("count", "compiler.cliques"),
    "solver.initialize_s": ("s", "solver.initialize"),
    "solver.collect_s": ("s", "solver.collect"),
    "solver.extract_s": ("s", "solver.extract"),
    "solver.absorbs": ("count", "solver.absorb"),
    "solver.absorb_us_p50": ("us", "solver.absorb"),
    "solver.absorb_us_p99": ("us", "solver.absorb"),
    "solver.message_cells": ("cells", "solver.solve"),
    "solver.peak_alloc_mb": ("MiB", "solver.solve"),
    "solver.peak_buffers": ("buffers", "solver.solve"),
    "tables.calls": ("count", "tables.*"),
    "tables.s": ("s", "tables.*"),
    "tables.cells_out": ("cells", "tables.*"),
    "tables.computed_bytes": ("B", "tables.*"),
    "tables.ns_per_cell": ("ns", "tables.*"),
    "cli.self_s": ("s", None),
    "oracle.check_s": ("s", None),
    "trace.overhead": ("ratio", None),
}


def per_layer(totals: list[dict], tracer, extra: dict) -> dict:
    """Times are medians over the traced passes; counts repeat exactly, so the first
    pass gives them.  ``extra`` holds the values measured outside the traced passes."""
    first = totals[0]
    absorbs = [s * 1e6 for t in totals for s in t["absorb_s"]]
    cells_out = first["counts"].get("cells_out", 0)
    tables_s = statistics.median(t["tables_s"] for t in totals)
    values = {
        name: statistics.median(t["time"].get(span, 0.0) for t in totals)
        for name, (unit, span) in PER_LAYER.items() if unit == "s" and span != "tables.*" and span
    }
    values.update({
        "model.validate_errors": len(tracer.validate_errors),
        "compiler.fill_ins": first["counts"].get("fill_ins", 0),
        "compiler.cliques": first["counts"].get("cliques", 0),
        "solver.absorbs": first["calls"].get("solver.absorb", 0),
        "solver.message_cells": first["counts"].get("message_cells", 0),
        "tables.calls": sum(v for k, v in first["calls"].items()
                            if k.startswith("tables.") and k != "tables.marg_all"),
        "tables.s": tables_s,
        "tables.cells_out": cells_out,
        "tables.computed_bytes": 8 * cells_out,
        "tables.ns_per_cell": tables_s / cells_out * 1e9 if cells_out else None,
        "cli.self_s": statistics.median(t["self"].get("cli.run", 0.0) for t in totals),
    })
    if absorbs:
        values["solver.absorb_us_p50"] = statistics.median(absorbs)
        values["solver.absorb_us_p99"] = statistics.quantiles(
            absorbs * (2 if len(absorbs) == 1 else 1), n=100, method="inclusive")[98]
    values.update(extra)

    fired = set().union(*(t["calls"] for t in totals))
    out = {}
    for name, (unit, span) in PER_LAYER.items():
        why = tracer.missing.get(span) or tracer.missing.get(name)
        if why is None and span == "tables.*" and not any(f.startswith("tables.") for f in fired):
            why = "no table function fired"
        elif why is None and span not in (None, "tables.*") and span not in fired:
            why = f"span {span} never fired"
        elif why is None and values.get(name) is None:
            why = "not measured"
        out[name] = metric(values[name], unit) if why is None else \
            {"value": None, "unit": unit, "missing": why}
    return out


def share_table(totals: list[dict], pass_s: float, missing: dict[str, str]) -> list[str]:
    """Self and inclusive time of each span that partitions ``cli.run``, per traced pass."""
    from tracing import PARTITION

    def line(name, self_s, incl_s):
        return (f"  {name:24s} {self_s:9.4f} s {100 * self_s / pass_s:5.1f}%"
                f"  {incl_s:9.4f} s {100 * incl_s / pass_s:5.1f}%")

    lines = ["per-layer time per traced pass (medians): self, share; inclusive, share"]
    for name in PARTITION:
        if name in missing or not any(name in t["calls"] for t in totals):
            lines.append(f"  {name:24s} missing ({missing.get(name, 'never fired')})")
            continue
        lines.append(line(name, *(statistics.median(t[key].get(name, 0.0) for t in totals)
                                  for key in ("self", "time"))))
    tables_s = statistics.median(t["tables_s"] for t in totals)
    lines.append(line("tables (inside solver)", tables_s, tables_s))
    return lines


# -- the two runs ------------------------------------------------------------------


def caller(cli, run=None):
    """``path -> (exit code, report)`` through ``cli.run`` or a wrapped copy of it."""
    run = run or cli.run
    return lambda path: run(cli.RunConfig(str(path), stats=True))


def untraced_run(args, solve, timed, paths, host) -> tuple[Log, list[list[Outcome]]]:
    """Passes over the timed models for ``--seconds``, calibrating the host between models."""
    log = Log(list(paths))
    passes, marks = [], []  # marks: (outcome, index of the calibration before it)
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        passes.append([])
        for name in timed:
            index = host.index()
            outcome = attempt(solve, paths[name])
            log.outcomes[name].append(outcome)
            passes[-1].append(outcome)
            marks.append((outcome, index))
    host.calibrate()
    for outcome, index in marks:
        outcome.scale = host.scale(index)
    return log, passes


def traced_run(args, cli, timed, deep, paths):
    """Alternate untraced and traced passes, then one tracemalloc pass and the deep rungs."""
    from tracing import SolveMemory, Tracer

    log = Log(list(paths))
    tracer, memory = Tracer(), SolveMemory()
    solve, solve_traced = caller(cli), caller(cli, tracer.wrap("cli.run", cli.run))

    def on_model(name):
        tracer.model = memory.model = name

    untraced, traced, totals = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        untraced.append(log.run_pass(solve, paths, timed))
        tracer.new_pass()
        tracer.record = not traced
        tracer.install()
        try:
            traced.append(log.run_pass(solve_traced, paths, timed, on_model))
        finally:
            tracer.uninstall()
        totals.append(tracer.pass_totals())
    tracer.record = False

    with memory:
        log.run_pass(solve, paths, timed, on_model)

    tracer.new_pass()  # the deep rungs feed only model.validate_errors
    tracer.install()
    try:
        log.run_pass(solve_traced, paths, deep, on_model)
    finally:
        tracer.uninstall()
    return log, tracer, totals, untraced, traced, memory.peaks


def benchmark(args) -> int:
    sys.path.insert(0, str(HERE))
    import workloads  # imports idjt from this checkout's src, or exits

    from idjt import cli

    imported = perf_counter() - START
    signal.signal(signal.SIGALRM, _on_alarm)
    host = None if args.trace else HostSpeed()
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        walls, scales, models = set_up(workloads, args.workload, args.seed, work,
                                       1 if args.trace else SETUP_REPEATS, imported, host)
        check_fingerprint(workloads, args.workload, args.seed, models)
        paths = {m.name: work / f"{m.name}.idm" for m in models}
        timed = [m.name for m in models if not m.deep]
        deep = [m.name for m in models if m.deep]
        lines = [f"workload {args.workload}  seed {args.seed}  timed models {len(timed)}  "
                 f"deep models {len(deep)}  per-model limit {MODEL_TIME_LIMIT_S:g} s"]
        if args.trace:
            log, tracer, totals, untraced, traced, peaks = traced_run(args, cli, timed, deep, paths)
        else:
            solve = caller(cli)
            log, passes = untraced_run(args, solve, timed, paths, host)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            log.run_pass(solve, paths, deep)

        refs, check_s = references(models)
        wrong = log.check(refs)

        if args.trace:
            extra = {"oracle.check_s": check_s,
                     "trace.overhead": statistics.median(traced) / statistics.median(untraced) - 1}
            buffers = {}  # solve peak over 8 B x the model's largest clique
            for name, peak in peaks.items():
                cells = next((o.max_cells for o in log.outcomes[name] if o.error is None), None)
                buffers[name] = peak / (8 * cells) if cells else None
            if peaks:  # reported for the model with the largest solve peak
                worst = max(peaks, key=peaks.get)
                extra["solver.peak_alloc_mb"] = peaks[worst] / 2**20
                extra["solver.peak_buffers"] = buffers[worst]
                lines.append("largest solve peaks: " + ", ".join(
                    f"{n} {peaks[n] / 2**20:.3f} MiB"
                    + (f" ({buffers[n]:.2f} buffers)" if buffers[n] else "")
                    for n in sorted(peaks, key=peaks.get, reverse=True)[:3]))
            metrics = per_layer(totals, tracer, extra)
            lines += share_table(totals, statistics.median(traced), tracer.missing)
            lines.append(f"passes: {len(untraced)} untraced {_fmt_list(untraced)}, "
                         f"{len(traced)} traced {_fmt_list(traced)}")
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
            tracer.write_spans(spans)
            lines.append(f"spans of the first traced pass: {spans.relative_to(ROOT)}")
        else:
            metrics, notes = end_to_end(log, timed, walls, scales, passes, host, rss_mib)
            lines += notes
        for name, error in log.failures().items():
            lines.append(f"failed: {name}: {error}")
        attempted, failed = log.counts()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        shown = m["value"] if m["value"] is not None else f"missing ({m['missing']})"
        lines.append(f"  {name:24s} {shown} {m['unit']}")
    print("\n".join(lines))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            return proc.returncode
        *text, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(text))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else benchmark(args)


if __name__ == "__main__":
    raise SystemExit(main())
