#!/usr/bin/env python3
"""Walk the four-decision golden model through the whole pipeline.

Prints the CLI report for the reference elimination sequence: the indexed
cliques with their tree links, the MEU, each decision's policy table, and
the fill-ins and table sizes.  Optionally dumps DOT files.
"""

import argparse
import sys
from pathlib import Path

from idjt.cli import RunConfig, run

SEQUENCE = ["l", "j", "k", "i", "h", "a", "c", "d", "D4", "g", "D3", "D2", "f", "e", "D1", "b"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--model", default=str(Path(__file__).parents[1] / "models" / "golden.idm")
    )
    parser.add_argument("--dot-dir", help="write moral/tri/tree DOT files here")
    args = parser.parse_args()

    dot = {}
    if args.dot_dir:
        out = Path(args.dot_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = {"moral": "moral.dot", "tri": "triangulated.dot", "tree": "tree.dot"}
        dot = {target: str(out / name) for target, name in files.items()}
    config = RunConfig(args.model, order=SEQUENCE, policies=True, stats=True, dot=dot)
    code, report = run(config)
    sys.stdout.write(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
