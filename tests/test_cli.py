from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cisect import cli
from cisect.cli import main

from conftest import SRC_DIR, VARIETY_DIR, run_python


def var(name: str) -> str:
    return str(VARIETY_DIR / f"{name}.var")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, err = run(capsys, "count", var("cone13"))
    assert (code, out, err) == (0, "183\n", "")


def test_count_extension(capsys):
    code, out, _ = run(capsys, "count", var("cone5"), "--ext", "2")
    assert code == 0
    assert out == "651\n"  # 1 + (25+1)*25


DRIFT = (
    "cisect: warning: count 0 over order-2 field is far from the expectation 1"
    " for asserted dimension 0\n"
)


@pytest.mark.filterwarnings("always::cisect.errors.DimensionDriftWarning")
def test_drift_warning_prints_one_line(capsys):
    code, out, err = run(capsys, "count", var("empty2"))
    assert (code, out, err) == (0, "0\n", DRIFT)
    code, out, err = run(capsys, "verify", var("empty2"), "--betti", "0")
    assert (code, out.splitlines()[0], err) == (1, "N=0 p_r=1 deviation=1", DRIFT)


def test_eta(capsys):
    code, out, _ = run(capsys, "eta", "--q", "2", "--d", "1,1", "--n", "1,1")
    assert (code, out) == (0, "12\n")
    code, out, _ = run(capsys, "eta", "--q", "5", "--d", "2", "--n", "2")
    assert (code, out) == (0, "50\n")


def test_eta_with_forty_groups(capsys):
    ones = ",".join(["1"] * 40)
    code, out, _ = run(capsys, "eta", "--q", "3", "--d", ones, "--n", ones)
    assert (code, out) == (0, f"{3**40 * (3**40 - 2**40)}\n")


def test_eta_too_long_to_print_is_input_error(capsys):
    code, out, err = run(capsys, "eta", "--q", "10", "--d", "1", "--n", "5000")
    assert (code, out) == (2, "")
    assert err == "cisect: the zero cap has about 5001 digits, more than the 4300 Python prints\n"


def test_second_moment_line(capsys):
    code, out, _ = run(capsys, "second-moment", var("cone2"), "--s", "0")
    assert code == 0
    assert out == "computed=112 lemma=112 EQUAL\n"


def test_hooley_census_line(capsys):
    code, out, _ = run(capsys, "hooley-census", var("cone2"), "--s", "0")
    assert code == 0
    assert out == "satisfying=14 total=16 HALF-MASS\n"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", var("cone13"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N=183 p_r=183 deviation=0"
    assert lines[1] == "cmp: lhs=0 rhs=728 PASS"
    assert lines[5] == "trivial-projective: lhs=183 rhs=366 PASS"
    assert len(lines) == 6
    assert "hooley-katz: lhs=0 rhs=179.446673934444266391283703311708779 PASS" in lines


def test_verify_fail_exit_code(capsys):
    # forcing b' = 0 makes the nonsingular bound 0 while the deviation is 3
    code, out, _ = run(capsys, "verify", var("smooth_quadric3_nonsing"), "--betti", "0")
    assert code == 1
    assert "deligne: lhs=3 rhs=0 FAIL" in out


def test_verify_inapplicable_row(capsys):
    code, out, _ = run(capsys, "verify", var("cone5"))
    assert code == 0  # N-A rows never fail the run
    assert "hooley-katz: lhs=0" in out
    assert "N-A" in out


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", var("cone13"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimate,rhs,applicable,condition"
    assert len(lines) == 6
    assert lines[1] == "cmp,728,true,requires s = r-2 (normal complete intersection)"
    assert lines[3] == "hooley-katz,1.79446673934E+2,true,requires q > 2*(s+1)*6 = 12"


def test_verify_csv_output_file(capsys, tmp_path):
    out_path = tmp_path / "verify.csv"
    code, out, _ = run(capsys, "verify", var("cone13"), "-o", str(out_path))
    assert code == 0
    assert "N=183" in out  # the summary still goes to stdout
    raw = out_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "estimate,lhs,rhs,applicable,verdict"
    assert lines[1] == "cmp,0,728,true,PASS"
    assert lines[5] == "trivial-projective,183,366,true,PASS"


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "bertini-scan", var("cone2"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,name,value"
    summary = dict(
        (line.split(",")[1], line.split(",")[2])
        for line in lines[1:]
        if line.startswith("summary,")
    )
    assert summary["mode"] == "affine"
    assert summary["total"] == "16"
    assert summary["pass"] == "8"
    assert summary["rank_fail"] == "7"
    assert summary["degenerate"] == "1"
    assert summary["not_pass"] == "8"
    assert summary["floor_applicable"] == "false"
    assert int(summary["pass"]) + int(summary["not_pass"]) == int(summary["total"])
    witness_lines = [line for line in lines if line.startswith("witness,")]
    assert witness_lines[0] == 'witness,2,"gamma=(0,0,1,0) point=(0:0:0:1) ext=1"'
    assert len(witness_lines) == 7  # all rank failures fit under the cap of ten


def test_scan_worker_byte_identity(capsys):
    _, solo, _ = run(capsys, "bertini-scan", var("smooth_quadric3"), "--workers", "1")
    _, multi, _ = run(capsys, "bertini-scan", var("smooth_quadric3"), "--workers", "4")
    assert solo == multi
    _, psolo, _ = run(
        capsys, "bertini-scan", var("smooth_quadric3"), "--mode", "projective"
    )
    _, pmulti, _ = run(
        capsys,
        "bertini-scan",
        var("smooth_quadric3"),
        "--mode",
        "projective",
        "--workers",
        "3",
    )
    assert psolo == pmulti
    assert psolo != solo


def test_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, "count", "/nonexistent/path.var")
    assert code == 2
    assert out == ""
    assert err.startswith("cisect: ")


def test_closed_stdout_exits_141_silently():
    # the read end is closed before the child starts, so its first write
    # to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cisect", "bertini-scan", var("cone5")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_import_leaves_numpy_and_multiprocessing_unloaded():
    # no module of the package uses numpy or multiprocessing, so importing
    # the CLI must load neither
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = "import sys, cisect.cli; print(sorted({'numpy', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def _loaded_by(argv: list[str], watch: list[str], *more: list[str]) -> list[str]:
    """The modules of ``watch`` that running the CLI on ``argv``, then on each
    argument list of ``more``, loads in one fresh process; modules the
    interpreter loaded at start-up do not count."""
    proc = run_python(
        "import json, sys; before = set(sys.modules); from cisect.cli import main; "
        "codes = [main(argv) for argv in json.loads(sys.argv[2])]; sys.stdout.flush(); "
        "loaded = set(sys.argv[1].split(',')) & (set(sys.modules) - before); "
        "print(json.dumps([codes, sorted(loaded)]))",
        ",".join(watch), json.dumps([argv, *more]),
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * (1 + len(more))
    return loaded


def test_count_loads_no_scan_estimate_or_display_code():
    watch = ["cisect.sections", "cisect.bounds", "cisect.radicals", "dataclasses", "decimal",
             "cisect.variety"]
    assert _loaded_by(["count", var("cone2")], watch) == ["cisect.variety"]


def test_eta_loads_no_polynomial_or_display_code():
    watch = ["cisect.variety", "cisect.mpoly", "cisect.sections", "cisect.bounds", "decimal"]
    assert _loaded_by(["eta", "--q", "5", "--d", "2", "--n", "2"], watch) == ["cisect.bounds"]


SUBMODULES = sorted(
    f"cisect.{path.stem}" for path in (SRC_DIR / "cisect").glob("*.py") if path.stem[:2] != "__"
)


@pytest.mark.parametrize(
    "argv,modules",
    [
        (["count", var("cone13")], "ffield mpoly points space variety"),
        (["count", var("cone13"), "--ext", "2"], "extfield ffield mpoly points space variety"),
        (["verify", var("cone13")], "bounds ffield mpoly points radicals space variety"),
        (["bounds", var("cone13")], "bounds ffield mpoly radicals space variety"),
        (["bertini-scan", var("cone5"), "--mode", "projective"],
         "bounds ffield linalg mpoly points sections space variety"),
        (["bertini-scan", var("cone5"), "--max-ext", "2"],
         "bounds extfield ffield linalg mpoly points sections space variety"),
        (["second-moment", var("cone2"), "--s", "1"], "census ffield mpoly points space variety"),
        (["hooley-census", var("cone5"), "--s", "0"], "census ffield mpoly points space variety"),
        (["eta", "--q", "5", "--d", "2", "--n", "2"], "bounds"),
    ],
    ids=["count", "count-ext2", "verify", "bounds", "scan", "scan-ext2", "moment", "census", "eta"],
)
def test_each_subcommand_loads_only_its_own_modules(argv, modules):
    """The README's start-up table: besides cli, errors and _record, a run
    loads only what it executes.  So prime-field runs leave extfield out,
    bounds leaves the point walker out, a moment or census loads neither
    bounds, radicals nor the scan, a scan leaves census out, eta leaves every
    field and polynomial module out, and polytools loads for no subcommand."""
    expect = sorted(f"cisect.{m}" for m in ["_record", "cli", "errors", *modules.split()])
    assert _loaded_by(argv, SUBMODULES) == expect


@pytest.mark.parametrize("command", ["count", "verify", "bounds"])
def test_prime_field_corpus_loads_no_extension_field_code(command):
    # the estimates on these files need b' passed in (index 0 and 2)
    betti = {"point2": "0", "empty2": "1", "smooth_quadric3_nonsing": "1"}
    runs = []
    for path in sorted(VARIETY_DIR.glob("*.var")):
        extra = ["--betti", betti[path.stem]] if command != "count" and path.stem in betti else []
        runs.append([command, str(path), *extra])
    assert _loaded_by(runs[0], ["cisect.extfield"], *runs[1:]) == []


def test_bare_package_import_loads_no_submodule():
    proc = run_python("import sys, cisect; print(sorted(m for m in sys.modules if 'cisect.' in m))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_malformed_variety_file(capsys, tmp_path):
    bad = tmp_path / "bad.var"
    bad.write_text("garbage\n", encoding="utf-8")
    code, _, err = run(capsys, "count", str(bad))
    assert code == 2
    assert "line 1" in err


def test_negative_s_rejected(capsys):
    code, _, err = run(capsys, "second-moment", var("cone2"), "--s", "-1")
    assert code == 2
    assert "--s" in err


def test_budget_exhaustion_is_input_error(capsys):
    code, _, err = run(capsys, "second-moment", var("cone13"), "--s", "1")
    assert code == 2
    assert "2^26" in err


TOO_LONG = " digits, more than the 4300 Python prints\n"


@pytest.mark.parametrize("argv, err", [
    (["bertini-scan"], "cisect: the section tuple count has about 4817" + TOO_LONG),
    (["bertini-scan", "--mode", "projective"], "cisect: the section tuple count has about 4811" + TOO_LONG),
    (["second-moment", "--s", "0"], "cisect: the covector tuple count has about 4817" + TOO_LONG),
    (["hooley-census", "--s", "0"], "cisect: the covector tuple count has about 4817" + TOO_LONG),
    (["bounds", "--betti", "1"], "cisect: an exact bound has about 4805" + TOO_LONG),
    (["verify", "--betti", "1"],
     "cisect: enumerating P^799 over a field of order 1048576 exceeds the 2^26 cap\n"),
], ids=["scan-affine", "scan-projective", "second-moment", "hooley-census", "bounds", "verify"])
def test_counts_too_long_to_print_are_input_errors(capsys, tmp_path, argv, err):
    # over F_(2^20) with 800 coordinates, (2^20)^800 tuples and the trivial
    # bound 1 + 2^20 + ... + 2^15960 pass Python's 4300-digit limit
    path = tmp_path / "wide.var"
    one = ";".join(["1"] + ["0"] * 19)
    path.write_text(
        "[field]\np = 2\nk = 20\n[variety]\nnvars = 800\ndim = 798\nsingdim = 0\n"
        f"poly = {one}:1{',0' * 799}\n"
    )
    code, out, got = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, got) == (2, "", err)


def test_decimal_keeps_every_number_python_prints():
    from cisect.errors import BudgetExceeded, _decimal

    assert _decimal(10**4300 - 1, "n") == "9" * 4300
    assert _decimal(-(10**4300 - 1), "n") == "-" + "9" * 4300
    with pytest.raises(BudgetExceeded, match="^n has about 4301 digits, more than the 4300"):
        _decimal(10**4300, "n")
    with pytest.raises(BudgetExceeded, match="^n has about 6021 digits"):
        _decimal(-(2**20000), "n")


def test_huge_extension_degree_exits_two_at_once(capsys):
    code, out, err = run(capsys, "count", var("cone13"), "--ext", "100000000")
    assert (code, out, err) == (2, "", "cisect: field order 13^100000000 exceeds the cap 2^20\n")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


_CURVE = "[variety]\nnvars = 3\ndim = 1\nsingdim = -1\npoly = {coeff}:1,0,1 + 1;0:0,2,0\n"


@pytest.mark.parametrize(
    "content,message",
    [
        # make_field's own ValueErrors: a bad modulus length or range, k = 0,
        # and a modulus given with k = 1
        ("[field]\np = 2\nk = 2\nmod = 1,1\n" + _CURVE, "modulus must have 3 coefficients, got 2"),
        ("[field]\np = 2\nk = 2\nmod = 1,2,1\n" + _CURVE, "modulus coefficients must lie in [0, p)"),
        ("[field]\np = 2\nk = 0\n" + _CURVE, "extension degree must be >= 1, got 0"),
        ("[field]\np = 2\nmod = 1,1\n" + _CURVE, "for k = 1 the modulus is fixed"),
        # text int() refuses although isdigit() admits it
        ("[field]\np = 2\nk = 2\n" + _CURVE.replace("{coeff}", "²;0"), "got '²'"),
    ],
)
def test_bad_field_and_number_text_is_input_error(capsys, tmp_path, content, message):
    bad = tmp_path / "bad.var"
    bad.write_text(content.replace("{coeff}", "1;0"), encoding="utf-8")
    code, out, err = run(capsys, "count", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("cisect: ") and message in err and err.count("\n") == 1


def test_undecodable_variety_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.var"
    bad.write_bytes(b"# \xff\n[field]\np = 2\n")
    code, out, err = run(capsys, "count", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("cisect: 'utf-8' codec can't decode byte 0xff")


def test_internal_value_error_is_not_input_error(monkeypatch):
    # a ValueError from a bug must surface with its traceback, not exit 2
    def broken(args):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "_cmd_count", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["count", var("cone2")])
