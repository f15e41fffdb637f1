#!/usr/bin/env python3
"""Print SHA-256 digests over the CLI reports of the seeded random models and of invalid variants.

    PYTHONPATH=src python3 scripts/report_digest.py [--count N]

The models are ``models/golden.idm``, ``models/tiny.idm`` and
``random_model(i, structural_zeros=i % 2 == 1)`` for i < N (default 1000),
written with ``write_model``.  The first 200 random models also make two
invalid variants each: one with a cpt entry set to 2.0, -0.5 or nan, which
must exit 1, and one with a token dropped from a cpt or utility line, which
must exit 2; both choices rotate with i.  All texts go to a temporary
directory and run from there, by file name, through ``cli.run`` with
``--stats --policies``, so no report names the directory; the exit code and
the report of each go into a digest in that order.  Two lines are printed,
each a count and a hex digest: the models, then the variants.  Two
checkouts, or two hash seeds, produce the same reports and error output
exactly when they print the same lines.  A variant with another exit code
than its own stops the script with exit 1.
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
MUTATED_MODELS = 200  # random models that also run as two invalid variants


def _edit_line(text: str, i: int, heads: tuple[str, ...], edit) -> str:
    """text with ``edit`` applied to the tokens of its (i mod count)-th line starting with ``heads``."""
    lines = text.splitlines()
    picks = [n for n, line in enumerate(lines) if line.startswith(heads)]
    k = picks[i % len(picks)]
    tokens = lines[k].split()
    edit(tokens)
    lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _variants(i: int, text: str) -> list[tuple[str, int]]:
    """The broken-cpt variant (exit 1) and the dropped-token variant (exit 2) of model i."""

    def break_entry(tokens: list[str]) -> None:
        colon = tokens.index(":")
        tokens[colon + 1 + i % (len(tokens) - colon - 1)] = ("2.0", "-0.5", "nan")[i % 3]

    def drop_token(tokens: list[str]) -> None:
        del tokens[i % len(tokens)]

    return [
        (_edit_line(text, i, ("cpt ",), break_entry), 1),
        (_edit_line(text, i, ("cpt ", "utility "), drop_token), 2),
    ]


def _digest(texts: dict[str, str], codes: dict[str, int]) -> str:
    digest = hashlib.sha256()
    for name, text in texts.items():
        Path(name).write_text(text, encoding="utf-8")
        code, report = cli.run(cli.RunConfig(name, stats=True, policies=True))
        if name in codes and code != codes[name]:
            raise SystemExit(f"error: {name} exited {code}, not {codes[name]}")
        digest.update(f"{code}\n{report}".encode())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=1000, help="random models to include")
    args = parser.parse_args()

    texts = {name: (MODELS / name).read_text(encoding="utf-8") for name in ("golden.idm", "tiny.idm")}
    variants, codes = {}, {}
    for i in range(args.count):
        text = write_model(random_model(i, structural_zeros=i % 2 == 1))
        texts[f"random{i:04d}.idm"] = text
        if i < MUTATED_MODELS:
            for k, (variant, code) in enumerate(_variants(i, text)):
                name = f"variant{i:04d}_{k}.idm"
                variants[name], codes[name] = variant, code
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            models, mutants = _digest(texts, {}), _digest(variants, codes)
        finally:
            os.chdir(cwd)
    print(f"models: {len(texts)}  sha256: {models}")
    print(f"mutants: {len(variants)}  sha256: {mutants}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
