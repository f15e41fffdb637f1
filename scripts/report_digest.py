#!/usr/bin/env python3
"""Print one SHA-256 digest over the CLI reports of the seeded random models.

    PYTHONPATH=src python3 scripts/report_digest.py [--count N]

The models are ``models/golden.idm``, ``models/tiny.idm`` and
``random_model(i, structural_zeros=i % 2 == 1)`` for i < N (default 1000),
written with ``write_model``.  All of them go to a temporary directory and run
from there, by file name, through ``cli.run`` with ``--stats --policies``, so
no report names the directory; the exit code and the report of each go into
the digest in that order.  The one line printed is the model count and the
hex digest, so two checkouts, or two hash seeds, produce the same reports
exactly when they print the same line.
"""

import argparse
import hashlib
import os
import tempfile
from pathlib import Path

from idjt import cli
from idjt.model import write_model
from idjt.randmodels import random_model

MODELS = Path(__file__).resolve().parents[1] / "models"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=1000, help="random models to include")
    args = parser.parse_args()

    texts = {name: (MODELS / name).read_text(encoding="utf-8") for name in ("golden.idm", "tiny.idm")}
    for i in range(args.count):
        texts[f"random{i:04d}.idm"] = write_model(random_model(i, structural_zeros=i % 2 == 1))
    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in texts.items():
                Path(name).write_text(text, encoding="utf-8")
                code, report = cli.run(cli.RunConfig(name, stats=True, policies=True))
                digest.update(f"{code}\n{report}".encode())
        finally:
            os.chdir(cwd)
    print(f"models: {len(texts)}  sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
