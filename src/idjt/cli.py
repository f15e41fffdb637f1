"""Command-line entry point: parse, compile, solve, report.

Exit codes: 0 success, 1 validation failure, 2 syntax error, bad flag, or
unreadable input or unwritable DOT path, 3 internal invariant breach or
memory exhausted while compiling or solving, 4 oracle disagreement under
``--check``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import io
import itertools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args

from . import compiler, oracle, solver
from .model import ParseError, parse_model, validate

CHECK_TOL = 1e-9
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers
HEAP_SERVES = 64 << 20  # mmap threshold, above a 2^22-cell table's 32 MiB: the heap serves it
HEAP_KEEPS = 256 << 20  # trim threshold, above the tables a solve holds at once


@dataclass
class RunConfig:
    input_path: str
    order: list[str] | None = None  # explicit elimination sequence
    heuristic: str = "min-fill"
    dot: dict[str, str] = field(default_factory=dict)  # target -> output path
    policies: bool = False
    stats: bool = False
    check: bool = False


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _policy_lines(result: solver.SolveResult) -> list[str]:
    lines = []
    for pol in result.policies:
        dom = ", ".join(v.name for v in pol.domain)
        lines.append(f"policy {pol.decision.name} (clique C{result.policy_clique[pol.decision.name]},"
                     f" domain: {dom if dom else 'none'})")
        for idx in itertools.product(*(range(len(v.states)) for v in pol.domain)):
            cfg = " ".join(f"{v.name}={v.states[s]}" for v, s in zip(pol.domain, idx))
            pick = pol.decision.states[int(pol.choice.values[idx])]
            lines.append(f"  {cfg + ' ' if cfg else ''}-> {pick}")
    return lines


@functools.cache
def _fix_malloc_policy() -> None:
    """Serve large tables from glibc's heap and keep freed heap mapped, where mallopt exists.

    A solve frees each clique's tables once its parent has absorbed them, and the next
    are as large; in their own mappings, each is faulted in page by page and unmapped on
    free.  Both values are fixed, as glibc otherwise moves them with the blocks it frees
    and peak RSS moved by 30 MiB between processes.  If glibc rejects one, blocks of
    128 KiB or more get their own mapping.  Repeated ``run``s keep up to HEAP_KEEPS mapped.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        if not (mallopt(M_MMAP_THRESHOLD, HEAP_SERVES) and mallopt(M_TRIM_THRESHOLD, HEAP_KEEPS)):
            mallopt(M_MMAP_THRESHOLD, 128 * 1024)
    except (AttributeError, OSError, TypeError):
        pass


def run(config: RunConfig) -> tuple[int, str]:
    """Execute the pipeline; returns (exit code, report text)."""
    _fix_malloc_policy()
    out = io.StringIO()

    def emit(line: str = ""):
        out.write(line + "\n")

    try:
        text = Path(config.input_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        emit(f"error: cannot read {config.input_path}: {e}")
        return 2, out.getvalue()

    try:
        diagram = parse_model(text)
    except ParseError as e:
        emit(f"syntax error: {e}")
        return 2, out.getvalue()

    problems = validate(diagram)
    if problems:
        emit(f"invalid model ({len(problems)} violation(s)):")
        for p in problems:
            emit(f"  {p}")
        return 1, out.getvalue()

    try:
        given = None
        if config.order is not None:
            by_name = {v.name: v for v in diagram.variables}
            missing = [n for n in config.order if n not in by_name]
            if missing:
                emit(f"error: --order names unknown variables {missing}")
                return 2, out.getvalue()
            given = [by_name[n] for n in config.order]
        tree, order, fills, moral, tri = compiler.compile_diagram(
            diagram, heuristic=config.heuristic, given=given
        )
        result = solver.solve(tree, diagram)
    except (compiler.OrderError,) as e:
        emit(f"error: {e}")
        return 2, out.getvalue()
    except (compiler.CompileError, solver.InvariantError) as e:
        emit(f"internal invariant breach: {e}")
        return 3, out.getvalue()
    except MemoryError as e:
        emit(f"out of memory: {str(e) or 'a table could not be allocated'}")
        return 3, out.getvalue()

    emit(f"model: {config.input_path}")
    emit(f"variables: {len(diagram.variables)}  decisions: {len(diagram.decisions)}")
    emit(f"elimination: {' '.join(v.name for v in order.sequence)}")
    emit(f"cliques: {len(tree.cliques)}")
    for c in tree.cliques:
        if c.index in tree.parent:
            emit(f"  {c.label()} -> C{tree.parent[c.index]} [sep: {tree.separator_label(c.index)}]")
        else:
            emit(f"  {c.label()} (root)")
    emit(f"MEU {_fmt(result.meu)}")
    for pol in result.policies:
        emit(f"decision {pol.decision.name}: clique C{result.policy_clique[pol.decision.name]}")

    if config.policies:
        for line in _policy_lines(result):
            emit(line)

    if config.stats:
        emit(f"fill-ins: {len(fills)}")
        for a, b in compiler.sorted_edges(fills):
            emit(f"  {a} -- {b}")
        sizes = {c.index: c.weight for c in tree.cliques}
        emit(f"max clique state-space size: {max(sizes.values())}")
        for k in sorted(sizes):
            emit(f"  C{k}: {sizes[k]} cells")
        emit(f"total table cells: {sum(sizes.values())}")

    code = 0
    if config.check:
        try:
            ref = oracle.brute_force(diagram)
            achieved = oracle.rollout(diagram, list(result.policies))
        except oracle.OracleCapError as e:
            emit(f"check skipped: {e}")
        else:
            scale = max(abs(ref.meu), abs(result.meu), 1.0)
            pol_scale = max(abs(ref.meu), abs(achieved), 1.0)
            meu_ok = abs(ref.meu - result.meu) <= CHECK_TOL * scale
            pol_ok = abs(ref.meu - achieved) <= CHECK_TOL * pol_scale
            emit(f"check: oracle MEU {_fmt(ref.meu)}; policies achieve {_fmt(achieved)}")
            if meu_ok and pol_ok:
                emit("check: agreement")
            else:
                emit("check: MISMATCH")
                code = 4

    for target, path in sorted(config.dot.items()):
        if target == "moral":
            content = compiler.moral_to_dot(moral)
        elif target == "tri":
            content = compiler.triangulated_to_dot(tri, fills)
        else:
            content = compiler.tree_to_dot(tree)
        try:
            Path(path).write_text(content, encoding="utf-8")
        except OSError as e:
            emit(f"error: cannot write {path}: {e}")
            return 2, out.getvalue()
        emit(f"wrote {target} dot: {path}")

    return code, out.getvalue()


def _dot_spec(spec: str) -> tuple[str, str]:
    target, _, path = spec.partition("=")
    if target not in ("moral", "tri", "tree") or not path:
        raise argparse.ArgumentTypeError(
            f"bad --dot argument {spec!r} (want moral|tri|tree=PATH)"
        )
    return target, path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="idjt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("solve", help="compile and solve a model file")
    s.add_argument("file")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--order", help="comma-separated elimination sequence")
    group.add_argument("--heuristic", choices=get_args(compiler.Heuristic), default="min-fill")
    s.add_argument(
        "--dot",
        action="append",
        default=[],
        type=_dot_spec,
        metavar="TARGET=PATH",
        help="write DOT output; TARGET is moral, tri, or tree (repeatable)",
    )
    s.add_argument("--policies", action="store_true", help="print full policy tables")
    s.add_argument("--stats", action="store_true", help="print compilation statistics")
    s.add_argument("--check", action="store_true", help="compare against the brute-force oracle")
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(
        input_path=args.file,
        order=args.order.split(",") if args.order is not None else None,
        heuristic=args.heuristic,
        dot=dict(args.dot),
        policies=args.policies,
        stats=args.stats,
        check=args.check,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code, report = run(config_from_args(args))
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
