import contextlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from rankforge.cli import main
from rankforge.errors import (
    BadPrime,
    CompositeCharacteristic,
    InternalIdentityFailure,
    InvalidArgument,
    NotKnownIrreducible,
    RankforgeError,
    ReducibleModulus,
    RepeatedRoot,
    ZeroAlpha,
    ZeroRoot,
)
from rankforge.finite_field import FqField

FIELD_Q = {"min_poly": "0,1"}
FIELD_SQRT5 = {"min_poly": "-1,-1,1"}
FAMILY_Q = {
    "field": FIELD_Q,
    "rho": ["1", "2", "3", "4", "5", "6"],
    "alpha": "1",
}
# for a CLI run in a subprocess: this checkout's sources
SRC_ENV = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


class Runner:
    """invoke(main, args) runs main(args) with stdout and stderr captured
    together, in the order they were written. exit_code is the code of the
    SystemExit that main raised (0 if it returned, 1 for any other
    exception); exception is what ended a failed run, else None."""

    def invoke(self, main, args):
        output, exit_code, exception = io.StringIO(), 0, None
        with contextlib.redirect_stdout(output), \
                contextlib.redirect_stderr(output):
            try:
                main(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return types.SimpleNamespace(exit_code=exit_code,
                                     output=output.getvalue(),
                                     exception=exception)


@pytest.fixture
def runner():
    return Runner()


@pytest.fixture
def field_file(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(FIELD_Q))
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(FAMILY_Q))
    return str(path)


def test_field_info(runner):
    res = runner.invoke(main, ["field", "info", "--p", "3",
                               "--modulus", "1,0,1"])
    assert res.exit_code == 0
    assert "q = 9" in res.output
    assert "code,coeffs,chi" in res.output


def test_field_info_large_q_builds_no_tables(runner, monkeypatch):
    # only the 32 printed rows are decoded; chi comes from Euler's criterion
    def refuse(self):
        raise AssertionError("field info must not build O(q) tables")

    monkeypatch.setattr(FqField, "elements", refuse)
    monkeypatch.setattr(FqField, "chi_table", refuse)
    res = runner.invoke(main, ["field", "info", "--p", "1000003",
                               "--modulus", "0,1"])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "q = 1000003 (p = 1000003, r = 1)"
    assert lines[1:4] == ["code,coeffs,chi", "0,0,0", "1,1,1"]
    assert len(lines) == 2 + 32


def test_field_info_bad_modulus(runner):
    res = runner.invoke(main, ["field", "info", "--p", "5",
                               "--modulus", "-1,0,1"])
    assert res.exit_code != 0


def test_ideals_list(runner, tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({"min_poly": "1,0,1"}))
    res = runner.invoke(main, ["ideals", "list", "--field", str(path),
                               "--max-norm", "10"])
    assert res.exit_code == 0
    lines = [l for l in res.output.strip().splitlines()
             if not l.startswith("excluded")]
    assert lines[0] == "norm,p,f,e,factor"
    assert [l.split(",")[0] for l in lines[1:4]] == ["5", "5", "9"]
    assert "excluded rational primes skipped: [2]" in res.output


# x^2 + 3: disc(m) = -12, and Z[theta] is not maximal at 2, where Dedekind
# reads (x + 1)^2 as a ramified prime of norm 2 although 2 is inert in
# Z[(1 + sqrt -3)/2]; at 3 it is maximal, and (3, theta) is right. The
# second parameter is the primes of disc(m) that the list leaves out.
@pytest.mark.parametrize("excluded, warned", [
    ([], "2, 3"), ([2], "3"), ([2, 3], None), (None, None)])
def test_excluded_primes_leaving_out_disc_primes_warns(runner, tmp_path,
                                                       excluded, warned):
    spec = {"min_poly": "3,0,1"}
    if excluded is not None:
        spec["excluded_primes"] = excluded
    path, out = tmp_path / "field.json", tmp_path / "ideals.csv"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["ideals", "list", "--field", str(path),
                               "--max-norm", "10", "--out", str(out)])
    if warned is not None and "2" in warned.split(", "):
        # Dedekind's criterion fails at 2 alone: one line, exit 2, no table
        assert res.exit_code == 2
        assert res.output.splitlines() == [
            "Error: excluded_primes leaves out 2, where Z[theta] is not "
            "maximal (Dedekind's criterion; disc(m) = -12)"]
        assert not out.exists()
        return
    assert res.exit_code == 0
    skipped = [2, 3] if excluded is None else excluded
    rows = out.read_text().splitlines()
    assert ('3,3,1,2,"0,1"' in rows) == (3 not in skipped)
    assert not any(row.startswith("2,2,") for row in rows)
    # with the table in a file, the output holds only the stderr lines
    assert "warning" not in res.output and "Error" not in res.output


def test_landau(runner, field_file):
    res = runner.invoke(main, ["landau", "--field", field_file,
                               "--max-norm", "100"])
    assert res.exit_code == 0
    assert "sum = 83.7283903991" in res.output
    assert "count = 25" in res.output


def test_legendre_verify_pass(runner):
    res = runner.invoke(main, ["legendre", "verify", "--max-q", "9",
                               "--exhaustive-max-q", "9"])
    assert res.exit_code == 0
    assert "pass" in res.output and "FAIL" not in res.output


def test_legendre_verify_fail_rows_exit_1(runner, broken_chi):
    res = runner.invoke(main, ["legendre", "verify", "--max-q", "9",
                               "--exhaustive-max-q", "9"])
    assert res.exit_code == 1
    rows = res.output.strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["3", "5", "7", "9"]
    assert all(row.endswith(",FAIL") for row in rows)


def test_family_construct(runner, family_file, tmp_path):
    out = tmp_path / "fam.json"
    res = runner.invoke(main, ["family", "construct", "--spec", family_file,
                               "--out", str(out)])
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["coefficients"]["c"] == "720"
    assert doc["coefficients"]["A"] == "1"
    assert doc["coefficients"]["b"] == "-5369/10"
    assert doc["D_T"][0] == "518400"


def test_family_badprimes(runner, family_file):
    res = runner.invoke(main, ["family", "badprimes", "--family", family_file,
                               "--max-p", "20"])
    assert res.exit_code == 0
    listed = {int(l.split(":")[0]) for l in res.output.strip().splitlines()}
    assert listed == {2, 3, 5, 7, 11}


@pytest.mark.parametrize("spec, max_p, line", [
    ({**FAMILY_Q, "alpha": "3"}, "13", "3: alpha vanishes mod 3"),
    ({**FAMILY_Q, "field": FIELD_SQRT5}, "7",
     "5: excluded (Dedekind enumeration)"),
])
def test_family_badprimes_reasons(runner, tmp_path, spec, max_p, line):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["family", "badprimes", "--family", str(path),
                               "--max-p", max_p])
    assert res.exit_code == 0
    assert line in res.output.splitlines()


def test_nagao_ap_good(runner, family_file):
    res = runner.invoke(main, ["nagao", "ap", "--family", family_file,
                               "--p", "37", "--method", "both"])
    assert res.exit_code == 0
    assert res.output.count("A_p=-6") == 2


def test_nagao_ap_both_fails_where_the_methods_disagree(runner, family_file,
                                                      monkeypatch, capsys):
    # both lines print, then the run ends with one error line naming the
    # ideal and both sums, through the console entry point as well
    from rankforge import cli, nagao
    from rankforge.errors import InternalIdentityFailure

    real = nagao.average_A_p_direct

    def off_by_one(fam, P):  # A_p is read from the sum, so it follows
        res = real(fam, P)
        return res._replace(sum_a_t=res.sum_a_t + 1)

    monkeypatch.setattr(nagao, "average_A_p_direct", off_by_one)
    args = ["nagao", "ap", "--family", family_file, "--p", "37",
            "--method", "both"]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, InternalIdentityFailure)
    assert res.output == (
        "(37, 0,1): norm=37 method=direct sum_a_t=-221 A_p=-221/37 good=True\n"
        "(37, 0,1): norm=37 method=analytic sum_a_t=-222 A_p=-6 good=True\n")
    monkeypatch.setattr(cli.gc, "freeze", lambda: None)
    monkeypatch.setattr(cli.sys, "argv", ["rankforge", *args])
    with pytest.raises(SystemExit) as exit_:
        cli.entrypoint()
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out == res.output
    assert err == ("error: (37, 0,1): direct sum_a_t=-221 but "
                   "analytic sum_a_t=-222\n")


def test_nagao_ap_large_prime_analytic(runner, family_file, monkeypatch):
    # q near 10^6: the analytic count needs no O(q) tables
    def refuse(self):
        raise AssertionError("the analytic method must not build tables")

    monkeypatch.setattr(FqField, "tables", refuse)
    res = runner.invoke(main, ["nagao", "ap", "--family", family_file,
                               "--p", "1000003"])
    assert res.exit_code == 0, res.output
    assert res.output == ("(1000003, 0,1): norm=1000003 method=analytic "
                          "sum_a_t=-6000018 A_p=-6 good=True\n")


def test_nagao_ap_bad_prime_exits_1(runner, family_file):
    res = runner.invoke(main, ["nagao", "ap", "--family", family_file,
                               "--p", "3"])
    assert res.exit_code == 1
    assert "bad prime" in res.output


def test_nagao_ap_even_prime_exits_1(runner, family_file):
    res = runner.invoke(main, ["nagao", "ap", "--family", family_file,
                               "--p", "2"])
    assert res.exit_code == 1
    assert "bad prime: even residue characteristic 2" in res.output


def test_nagao_ap_excluded_prime_exits_1(runner, tmp_path):
    path = tmp_path / "s5.json"
    path.write_text(json.dumps({**FAMILY_Q, "field": FIELD_SQRT5}))
    res = runner.invoke(main, ["nagao", "ap", "--family", str(path),
                               "--p", "5"])
    assert res.exit_code == 1
    assert res.output == "bad prime: 5 is excluded from Dedekind enumeration\n"


def test_identity_failure_is_not_a_usage_error(runner, family_file,
                                               monkeypatch):
    from rankforge import family
    from rankforge.errors import InternalIdentityFailure

    monkeypatch.setattr(family, "expand_from_roots",
                        lambda roots, lead: family.Poly([lead]))
    res = runner.invoke(main, ["rank", "--family", family_file,
                               "--max-norm", "100"])
    assert res.exit_code == 1
    assert isinstance(res.exception, InternalIdentityFailure)


def test_nagao_series_deterministic(runner, family_file, tmp_path):
    args = ["nagao", "series", "--family", family_file,
            "--max-norm", "300", "--checkpoints", "100,300"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "X,partial_sum,ideals_used,ideals_skipped"
    assert len(lines) == 3


def test_rank_command(runner, family_file):
    res = runner.invoke(main, ["rank", "--family", family_file,
                               "--max-norm", "600"])
    assert res.exit_code == 0
    assert "rank estimate: 6" in res.output


def test_rank_without_good_primes_is_low_confidence(runner, family_file):
    # every prime up to 11 is bad for the reference family
    res = runner.invoke(main, ["rank", "--family", family_file,
                               "--max-norm", "11"])
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == (
        "rank estimate: 0 (low confidence: no good primes in range)")


def test_usage_error_exit_code(runner):
    res = runner.invoke(main, ["rank", "--max-norm", "10"])
    assert res.exit_code == 2


def test_rank_sqrt5_reference_output(runner, tmp_path):
    path = tmp_path / "s5.json"
    path.write_text(json.dumps({**FAMILY_Q, "field": FIELD_SQRT5}))
    res = runner.invoke(main, ["rank", "--family", str(path),
                               "--max-norm", "2000"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "partial_sum = 5.75469318947"
    assert lines[1] == "theta_good = 1918.23106316"
    # the residual is float noise by construction: bound it, never pin it
    assert abs(float(lines[2].removeprefix("residual = "))) < 1e-9
    assert lines[3:] == ["rank estimate: 6"]


def _without(key):
    return {k: v for k, v in FAMILY_Q.items() if k != key}


# (family spec, extra CLI arguments); the family spec, as JSON or as raw
# text, goes to --family, or --spec for "family construct"; {tmp} in an
# argument is a fresh empty directory
MALFORMED = {
    "checkpoint above max-norm": (
        FAMILY_Q, ["nagao", "series", "--max-norm", "100",
                   "--checkpoints", "50,100000"]),
    "checkpoint zero": (
        FAMILY_Q, ["nagao", "series", "--max-norm", "100",
                   "--checkpoints", "0,50"]),
    "checkpoint not an integer": (
        FAMILY_Q, ["nagao", "series", "--max-norm", "100",
                   "--checkpoints", "50,abc"]),
    "series max-norm zero": (
        FAMILY_Q, ["nagao", "series", "--max-norm", "0"]),
    "direct above its cap": (
        FAMILY_Q, ["nagao", "series", "--max-norm", "5000",
                   "--method", "direct"]),
    "rank max-norm negative": (FAMILY_Q, ["rank", "--max-norm", "-5"]),
    "rank direct above its cap": (
        FAMILY_Q, ["rank", "--max-norm", "1001", "--method", "direct"]),
    "landau max-norm zero": (None, ["landau", "--max-norm", "0"]),
    "ideals max-norm zero": (None, ["ideals", "list", "--max-norm", "0"]),
    "missing rho": (_without("rho"), ["rank", "--max-norm", "100"]),
    "missing alpha": (_without("alpha"), ["rank", "--max-norm", "100"]),
    "missing field": (_without("field"), ["rank", "--max-norm", "100"]),
    "missing min_poly": (
        {**FAMILY_Q, "field": {}}, ["rank", "--max-norm", "100"]),
    "five rho": (
        {**FAMILY_Q, "rho": ["1", "2", "3", "4", "5"]},
        ["rank", "--max-norm", "100"]),
    "rho not a number": (
        {**FAMILY_Q, "rho": ["1", "2", "3", "4", "5", "x"]},
        ["rank", "--max-norm", "100"]),
    "construct missing rho": (_without("rho"), ["family", "construct"]),
    "min_poly not monic": (
        {**FAMILY_Q, "field": {"min_poly": "0,2"}}, ["rank", "--max-norm", "100"]),
    "min_poly with a rational root": (
        {**FAMILY_Q, "field": {"min_poly": "-4,0,1"}},
        ["rank", "--max-norm", "100"]),
    "min_poly with a huge rational root": (
        {**FAMILY_Q, "field": {"min_poly": f"{-2 ** 61},1,{-2 ** 61},1"}},
        ["rank", "--max-norm", "100"]),
    "min_poly not squarefree": (
        {**FAMILY_Q, "field": {"min_poly": "1,2,1"}},
        ["rank", "--max-norm", "100"]),
    "min_poly not known irreducible": (
        {**FAMILY_Q, "field": {"min_poly": "1,0,0,0,1"}},
        ["rank", "--max-norm", "100"]),
    "min_poly not integral": (
        {**FAMILY_Q, "field": {"min_poly": "3/2,0,1"}},
        ["rank", "--max-norm", "100"]),
    # an empty part used to be dropped: "-2,,0,1" ran as x^2 - 2
    "min_poly with an empty coefficient": (
        {**FAMILY_Q, "field": {"min_poly": "-2,,0,1"}},
        ["rank", "--max-norm", "100"]),
    "rho with an empty coordinate": (
        {"field": {"min_poly": "-2,0,0,1"},
         "rho": ["1", "2", "0,1", "1,,1", "0,0,1", "2,1"], "alpha": "1"},
        ["rank", "--max-norm", "100"]),
    # any truthy value used to skip the irreducibility certificate
    "assert_irreducible not a boolean": (
        {**FAMILY_Q, "field": {"min_poly": "1,0,0,0,1",
                               "assert_irreducible": "no"}},
        ["rank", "--max-norm", "100"]),
    "excluded_primes not integers": (
        {**FAMILY_Q, "field": {"min_poly": "-1,-1,1", "excluded_primes": ["a"]}},
        ["rank", "--max-norm", "100"]),
    "excluded_primes not a list": (
        {**FAMILY_Q, "field": {"min_poly": "-1,-1,1", "excluded_primes": 5}},
        ["rank", "--max-norm", "100"]),
    "excluded_primes negative": (
        {**FAMILY_Q, "field": {"min_poly": "-1,-1,1", "excluded_primes": [-3]}},
        ["rank", "--max-norm", "100"]),
    "excluded_primes a bool": (
        {**FAMILY_Q, "field": {"min_poly": "-1,-1,1", "excluded_primes": [True]}},
        ["rank", "--max-norm", "100"]),
    "excluded_primes composite": (
        {**FAMILY_Q, "field": {"min_poly": "-1,-1,1", "excluded_primes": [4]}},
        ["rank", "--max-norm", "100"]),
    "repeated root": (
        {**FAMILY_Q, "rho": ["1", "2", "3", "4", "5", "-5"]},
        ["rank", "--max-norm", "100"]),
    "zero rho": (
        {**FAMILY_Q, "rho": ["1", "2", "0", "4", "5", "6"]},
        ["rank", "--max-norm", "100"]),
    "zero alpha": ({**FAMILY_Q, "alpha": "0"}, ["rank", "--max-norm", "100"]),
    "construct zero alpha": ({**FAMILY_Q, "alpha": "0"}, ["family", "construct"]),
    "field info modulus does not parse": (
        None, ["field", "info", "--p", "3", "--modulus", "abc"]),
    "field info p not a prime": (
        None, ["field", "info", "--p", "4", "--modulus", "0,1"]),
    "field info reducible modulus": (
        None, ["field", "info", "--p", "5", "--modulus", "-1,0,1"]),
    "nagao ap p zero": (
        {**FAMILY_Q, "field": FIELD_SQRT5}, ["nagao", "ap", "--p", "0"]),
    "nagao ap p composite": (FAMILY_Q, ["nagao", "ap", "--p", "9"]),
    "nagao ap direct above its cap": (
        FAMILY_Q, ["nagao", "ap", "--p", "100003", "--method", "direct"]),
    "nagao ap both above its cap": (
        FAMILY_Q, ["nagao", "ap", "--p", "1009", "--method", "both"]),
    "nagao ap direct at an inert ideal above its cap": (
        {**FAMILY_Q, "field": FIELD_SQRT5},
        ["nagao", "ap", "--p", "37", "--method", "direct"]),
    "badprimes max-p negative": (
        FAMILY_Q, ["family", "badprimes", "--max-p", "-5"]),
    "family not JSON": ('{"field":', ["rank", "--max-norm", "10"]),
    "family is a directory": (
        None, ["rank", "--family", "{tmp}", "--max-norm", "10"]),
    "legendre out in a missing directory": (
        None, ["legendre", "verify", "--max-q", "9",
               "--out", "{tmp}/missing/x.csv"]),
    "legendre out is a directory": (
        None, ["legendre", "verify", "--max-q", "9", "--out", "{tmp}"]),
    "field info out in a missing directory": (
        None, ["field", "info", "--p", "3", "--modulus", "1,0,1",
               "--out", "{tmp}/missing/x.csv"]),
    "ideals out in a missing directory": (
        None, ["ideals", "list", "--max-norm", "10",
               "--out", "{tmp}/missing/x.csv"]),
    "construct out in a missing directory": (
        FAMILY_Q, ["family", "construct", "--out", "{tmp}/missing/x.json"]),
    # refused before the series starts, not after it
    "series out in a missing directory": (
        FAMILY_Q, ["nagao", "series", "--max-norm", "1000000",
                   "--out", "{tmp}/missing/x.csv"]),
    "legendre max-q 2": (None, ["legendre", "verify", "--max-q", "2"]),
    "legendre max-q zero": (None, ["legendre", "verify", "--max-q", "0"]),
    "legendre max-q negative": (
        None, ["legendre", "verify", "--max-q", "-5"]),
    "legendre max-q above its cap": (
        None, ["legendre", "verify", "--max-q", "5000"]),
    "legendre exhaustive-max-q above its cap": (
        None, ["legendre", "verify", "--exhaustive-max-q", "128"]),
    # the parser's own errors
    "max-norm not an integer": (FAMILY_Q, ["rank", "--max-norm", "abc"]),
    "method not a choice": (
        FAMILY_Q, ["rank", "--max-norm", "10", "--method", "bogus"]),
    "family path does not exist": (
        None, ["rank", "--family", "{tmp}/missing.json", "--max-norm", "10"]),
    "required option missing": (FAMILY_Q, ["rank"]),
    "unknown subcommand": (None, ["bogus"]),
    # parsed by the main group itself, before any subcommand runs
    "unknown top-level option": (None, ["--bogus"]),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exits_2(runner, tmp_path, field_file, case):
    spec, args = MALFORMED[case]
    empty = tmp_path / "empty"
    empty.mkdir()
    args = [a.replace("{tmp}", str(empty)) for a in args]
    if args[0] in ("landau", "ideals"):
        args = args + ["--field", field_file]
    elif spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
        flag = "--spec" if args[:2] == ["family", "construct"] else "--family"
        args = args + [flag, str(path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert not isinstance(res.exception, (RankforgeError, ValueError, KeyError))
    assert len(res.output.strip().splitlines()) == 1
    assert res.output.startswith("Error: ")


def test_input_errors_are_invalid_arguments():
    # the class hierarchy alone decides the exit code: 2 for these, 1 for
    # a failed identity or a bad prime
    for cls in (CompositeCharacteristic, ReducibleModulus, NotKnownIrreducible,
                RepeatedRoot, ZeroRoot, ZeroAlpha):
        assert issubclass(cls, InvalidArgument)
    for cls in (InternalIdentityFailure, BadPrime):
        assert issubclass(cls, RankforgeError)
        assert not issubclass(cls, InvalidArgument)


def test_group_without_subcommand_shows_its_help(runner):
    # a usage error, but its message is the group's help, not "Error:"
    res = runner.invoke(main, ["nagao"])
    assert res.output.startswith("usage: rankforge nagao")
    assert "Commands:" in res.output and "Error" not in res.output


@pytest.mark.parametrize("args, usage", [
    ([], "usage: rankforge [--help] COMMAND ..."),
    (["nagao"], "usage: rankforge nagao [--help] COMMAND ...")],
    ids=["rankforge", "nagao"])
def test_bare_command_prints_help_on_stderr_and_exits_2(capsys, args, usage):
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(usage + "\n")


def test_help_goes_to_stdout_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["rank", "--help"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: rankforge rank ") and err == ""


# each error line names what was wrong: the option and its value, the
# missing file, the unknown subcommand or option
NAMED = {
    "max-norm not an integer": (
        ["rank", "--family", "{family}", "--max-norm", "abc"],
        ["--max-norm", "'abc'"]),
    "method not a choice": (
        ["rank", "--family", "{family}", "--max-norm", "10",
         "--method", "bogus"], ["--method", "'bogus'"]),
    "family path does not exist": (
        ["rank", "--family", "{tmp}/missing.json", "--max-norm", "10"],
        ["{tmp}/missing.json"]),
    "unknown subcommand": (["bogus"], ["'bogus'"]),
    "unknown top-level option": (["--bogus"], ["--bogus"]),
}


@pytest.mark.parametrize("case", list(NAMED))
def test_error_line_names_the_offending_token(runner, tmp_path, family_file,
                                              case):
    args, tokens = NAMED[case]

    def fill(text):
        return text.format(family=family_file, tmp=tmp_path)

    res = runner.invoke(main, [fill(a) for a in args])
    assert res.exit_code == 2
    [line] = res.output.splitlines()
    assert line.startswith("Error: ")
    for token in tokens:
        assert fill(token) in line


@pytest.mark.parametrize("args", [
    ["rank", "--max-norm", "abc"], ["legendre", "verify", "--max-q", "abc"]])
def test_a_bounded_integer_option_is_an_int_to_the_parser(runner, args):
    # the message names the type, not the function that checks it
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert f"{args[-2]}: invalid int value: 'abc'" in res.output


def test_options_take_no_abbreviation(runner, family_file):
    res = runner.invoke(main, ["rank", "--family", family_file,
                               "--max", "10"])
    assert res.exit_code == 2
    assert res.output.startswith("Error: ")


def test_modulus_with_a_negative_coefficient_is_a_value(runner):
    # "-2,0,1" starts with "-" but is x^2 - 2, irreducible over F_5
    res = runner.invoke(main, ["field", "info", "--p", "5",
                               "--modulus", "-2,0,1"])
    assert res.exit_code == 0, res.output
    assert res.output.startswith("q = 25 (p = 5, r = 2)\n")


def test_reader_gone_exits_1_without_a_traceback(field_file):
    # about 200 kB of CSV: more than a pipe holds, so the writer is still
    # writing when the reader closes its end after the header
    proc = subprocess.Popen(
        [sys.executable, "-m", "rankforge.cli", "ideals", "list",
         "--field", field_file, "--max-norm", "100000"],
        env=SRC_ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"norm,p,f,e,factor\r\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_cli_imports_only_the_standard_library():
    # modules the interpreter loads before the import (site hooks) are not
    # the CLI's: count only what importing rankforge.cli adds
    code = ("import sys; before = set(sys.modules); import rankforge.cli; "
            "print(*sorted({m.partition('.')[0] for m in sys.modules} "
            "- {m.partition('.')[0] for m in before}))")
    res = subprocess.run([sys.executable, "-c", code], env=SRC_ENV,
                         capture_output=True, text=True, check=True)
    loaded = res.stdout.split()
    assert "rankforge" in loaded
    assert [m for m in loaded if m != "rankforge"
            and m not in sys.stdlib_module_names] == []


def test_sqrt5_family_via_cli(runner, tmp_path):
    spec = {"field": FIELD_SQRT5,
            "rho": ["1,0", "2,0", "3,0", "4,0", "5,0", "6,0"],
            "alpha": "1,0"}
    path = tmp_path / "s5.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["nagao", "ap", "--family", str(path),
                               "--p", "13"])
    assert res.exit_code == 0
    assert "norm=169" in res.output and "A_p=-6" in res.output


def test_out_that_cannot_be_opened_exits_2(runner, tmp_path):
    # a dangling link passes the early --out check; the open then fails
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "missing" / "x.csv")
    res = runner.invoke(main, ["legendre", "verify", "--max-q", "9",
                               "--out", str(link)])
    assert res.exit_code == 2
    assert not isinstance(res.exception, OSError)
    assert res.output == f"Error: cannot write {link}: No such file or directory\n"
