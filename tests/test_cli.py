"""End-to-end CLI behavior: pipeline, report content, exit codes, determinism."""

import functools
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from idjt import cli
from idjt.cli import RunConfig, build_parser, config_from_args, run
from idjt.model import write_model
from idjt.randmodels import random_model

from conftest import MODELS


def _solve_args(path, *extra):
    return config_from_args(build_parser().parse_args(["solve", str(path), *extra]))


def test_tiny_model_with_check(tmp_path):
    code, report = run(_solve_args(MODELS / "tiny.idm", "--check"))
    assert code == 0
    assert "MEU 6\n" in report
    assert "check: agreement" in report


def test_golden_report_lists_cliques_and_links():
    order = "l,j,k,i,h,a,c,d,D4,g,D3,D2,f,e,D1,b"
    code, report = run(_solve_args(MODELS / "golden.idm", "--order", order, "--stats"))
    assert code == 0
    for line in [
        "C1: D1, b, d, e, f (root)",
        "C5: D2, e, g -> C1",
        "C6: D3, f, h -> C1",
        "C8: D2, D4, g, i -> C5",
        "C10: b, c, d, e -> C1",
        "C11: a, b, c -> C10",
        "C14: D3, h, k -> C6",
        "C15: h, j, k -> C14",
        "C16: D4, i, l -> C8",
    ]:
        assert line in report, line
    assert "cliques: 9" in report
    assert "fill-ins: 9" in report
    assert "MEU " in report


def test_validation_failure_exits_one(tmp_path):
    bad = tmp_path / "bad.idm"
    bad.write_text(
        "chance y states 0 1 stage 1\ndecision D1 states u v index 1\n"
        "decision D2 states u v index 2\ncpt y given D2 : .5 .5 .5 .5\n"
    )
    code, report = run(_solve_args(bad))
    assert code == 1
    assert "temporal" in report and "'D2'" in report and "'y'" in report


def test_non_finite_cpt_exits_one(tmp_path):
    bad = tmp_path / "nan.idm"
    text = (MODELS / "tiny.idm").read_text()
    bad.write_text(text.replace("x given D : 0.8 0.2", "x given D : nan nan"))
    code, report = run(_solve_args(bad))
    assert code == 1
    assert "cpt: cpt of 'x' has non-finite entries" in report
    assert "MEU" not in report


def test_utility_overflow_exits_one(tmp_path):
    # each utility is finite, but their sum overflows to inf
    big = tmp_path / "overflow.idm"
    big.write_text(
        "chance x states 0 1 stage 0\ncpt x : 0.5 0.5\n"
        "utility u1 over x : 1e308 1e308\nutility u2 over x : 1e308 1e308\n"
    )
    code, report = run(_solve_args(big, "--check"))
    assert code == 1
    assert "utility: the utilities' largest magnitudes overflow when summed" in report
    assert "MEU" not in report and "MISMATCH" not in report


def test_model_without_variables_exits_one(tmp_path):
    empty = tmp_path / "empty.idm"
    empty.write_text("# nothing but a comment\n")
    code, report = run(_solve_args(empty))
    assert code == 1
    assert "model: the model declares no variables" in report
    assert "internal invariant breach" not in report


def test_syntax_error_exits_two(tmp_path):
    bad = tmp_path / "bad.idm"
    bad.write_text("chance a states stage 0\n")
    code, report = run(_solve_args(bad))
    assert code == 2
    assert "syntax error" in report


def test_table_with_more_axes_than_numpy_holds_exits_two(tmp_path):
    names = [f"v{i}" for i in range(70)]
    text = "".join(f"chance {n} states s stage 0\ncpt {n} : 1\n" for n in names)
    text += f"decision D states a b index 1\nutility u over {' '.join(names)} : 1\n"
    huge = tmp_path / "huge.idm"
    huge.write_text(text)
    code, report = run(_solve_args(huge))
    assert code == 2
    assert report.startswith("syntax error: line 142, column 9: utility 'u' cannot be stored as a table: ")
    assert report.count("\n") == 1
    cpt = tmp_path / "cpt.idm"
    text = text.replace("cpt v69 : 1", f"cpt v69 given {' '.join(names[:69])} : 1")
    cpt.write_text(text.replace(f"over {' '.join(names)} : 1", "over D : 1 2"))
    code, report = run(_solve_args(cpt))
    assert code == 2
    assert report.startswith("syntax error: line 140, column 5: cpt of 'v69' cannot be stored as a table: ")


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 8.00 TiB for an array"), "Unable to allocate 8.00 TiB for an array"),
        (MemoryError(), "a table could not be allocated"),
    ],
)
def test_memory_exhausted_in_compile_or_solve_exits_three(monkeypatch, error, line):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr("idjt.solver.solve", exhausted)
    code, report = run(_solve_args(MODELS / "tiny.idm"))
    assert (code, report) == (3, f"out of memory: {line}\n")
    monkeypatch.undo()
    monkeypatch.setattr("idjt.compiler.compile_diagram", exhausted)
    code, report = run(_solve_args(MODELS / "tiny.idm"))
    assert (code, report) == (3, f"out of memory: {line}\n")


class _Libc:
    """Stands in for the C library: records each mallopt call and accepts or rejects it."""

    def __init__(self, accept: bool):
        self.accept, self.calls = accept, []

    def mallopt(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return int(self.accept)


@pytest.mark.parametrize(
    "accept, calls",
    [
        (True, [(-3, 64 << 20), (-1, 256 << 20)]),  # glibc's M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        (False, [(-3, 64 << 20), (-3, 128 << 10)]),  # a rejected value: glibc's default threshold
    ],
)
def test_malloc_policy_sets_each_threshold_once(monkeypatch, accept, calls):
    # the fake library stands in for the real one, so this process's malloc policy is untouched
    libc = _Libc(accept)
    monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=lambda name: libc))
    cli._fix_malloc_policy.__wrapped__()
    assert libc.calls == calls


def _no_mallopt(name):
    return SimpleNamespace()


def _no_libc(name):
    raise OSError("cannot load the C library")


@pytest.mark.parametrize("cdll", [_no_mallopt, _no_libc])
def test_run_works_where_mallopt_is_missing(monkeypatch, cdll):
    loads = []
    monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=lambda name: loads.append(name) or cdll(name)))
    monkeypatch.setattr(cli, "_fix_malloc_policy", functools.cache(cli._fix_malloc_policy.__wrapped__))
    code, report = run(_solve_args(MODELS / "tiny.idm"))
    assert (code, loads) == (0, [None])
    assert "MEU 6\n" in report


def test_missing_file_exits_two(tmp_path):
    code, report = run(_solve_args(tmp_path / "nope.idm"))
    assert code == 2


def test_file_that_is_not_utf8_exits_two(tmp_path):
    bad = tmp_path / "latin.idm"
    bad.write_bytes((MODELS / "tiny.idm").read_bytes() + b"\xff\n")
    code, report = run(_solve_args(bad))
    assert code == 2
    assert report.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_empty_order_exits_two():
    code, report = run(_solve_args(MODELS / "tiny.idm", "--order", ""))
    assert code == 2
    assert report == "error: --order names unknown variables ['']\n"


def test_bad_given_order_exits_two(tmp_path):
    code, report = run(_solve_args(MODELS / "tiny.idm", "--order", "D,x"))
    assert code == 2
    assert "stage constraint" in report


def test_order_and_heuristic_mutually_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["solve", "m.idm", "--order", "a,b", "--heuristic", "min-fill"]
        )


def test_dot_files_written(tmp_path):
    targets = {
        "moral": tmp_path / "m.dot",
        "tri": tmp_path / "t.dot",
        "tree": tmp_path / "j.dot",
    }
    args = ["--dot", f"moral={targets['moral']}", "--dot", f"tri={targets['tri']}",
            "--dot", f"tree={targets['tree']}"]
    code, report = run(_solve_args(MODELS / "golden.idm", *args))
    assert code == 0
    assert targets["moral"].read_text().startswith("graph moral {")
    assert "style=dashed" in targets["tri"].read_text()
    assert targets["tree"].read_text().startswith("digraph junction_tree {")


def test_bad_dot_spec_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["solve", "m.idm", "--dot", "foo=x.dot"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "bad --dot argument 'foo=x.dot'" in err


def test_unwritable_dot_path_exits_two_after_the_report(tmp_path):
    path = tmp_path / "missing" / "x.dot"
    code, report = run(_solve_args(MODELS / "tiny.idm", "--dot", f"tree={path}"))
    assert code == 2
    assert "MEU 6\n" in report
    assert report.splitlines()[-1].startswith(f"error: cannot write {path}: ")


def test_policies_flag_prints_tables():
    code, report = run(_solve_args(MODELS / "tiny.idm", "--policies"))
    assert code == 0
    assert "policy D (clique C1, domain: none)" in report
    assert "-> d2" in report


def test_same_input_same_seed_byte_identical_report():
    args = _solve_args(MODELS / "golden.idm", "--policies", "--stats", "--check")
    code1, report1 = run(args)
    code2, report2 = run(args)
    assert (code1, report1) == (code2, report2)
    assert report1.encode() == report2.encode()


def test_report_independent_of_hash_seed(tmp_path):
    # D1 of this model is an exact tie between its two states, so its pick
    # follows the summation order within a stage, which must not be hash order
    path = tmp_path / "random114.idm"
    path.write_text(write_model(random_model(114)))
    reports = []
    for hash_seed in ("0", "2"):
        out = subprocess.run(
            [sys.executable, "-m", "idjt.cli", "solve", str(path), "--policies"],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert out.returncode == 0
        reports.append(out.stdout)
    assert reports[0] == reports[1]


def test_console_entry_point_round_trip():
    out = subprocess.run(
        [sys.executable, "-m", "idjt.cli", "solve", str(MODELS / "tiny.idm"), "--check"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "MEU 6" in out.stdout


def test_internal_invariant_breach_exits_three(monkeypatch):
    # force every constancy check to fail
    monkeypatch.setattr("idjt.solver.CONSTANCY_TOL", -1.0)
    code, report = run(_solve_args(MODELS / "tiny.idm"))
    assert code == 3
    assert "internal invariant breach" in report


def test_oracle_mismatch_exits_four(monkeypatch):
    import idjt.cli as cli_mod

    class FakeRef:
        meu = 12345.0
        policies = {}

    monkeypatch.setattr(cli_mod.oracle, "brute_force", lambda d: FakeRef())
    code, report = run(_solve_args(MODELS / "tiny.idm", "--check"))
    assert code == 4
    assert "MISMATCH" in report


def test_runconfig_defaults():
    cfg = RunConfig(input_path="x.idm")
    assert cfg.heuristic == "min-fill"
    assert cfg.order is None and not cfg.check
