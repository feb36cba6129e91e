"""The command-line interface: report schemas, exit codes, determinism."""

import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import yverma.cli as cli
import yverma.recurrence as recurrence
from yverma.rational import format_rat


def run_cli(argv, monkeypatch=None, env=None, timeout=None):
    """Invoke the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    full_env = dict(os.environ)
    full_env.pop("VERMA_WORKERS", None)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "yverma", *argv],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def call_main(capsys, argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReportContract:
    def test_expand_canonical_bytes(self):
        code, out, err = run_cli(["expand", "--mu", "(u+2)/(u+1)", "--order", "4"])
        assert code == 0 and err == ""
        assert out == (
            '{"coeffs":["1","1","-1","1","-1"],"exact":false,'
            '"mu":"(u+2)/(u+1)","order":4,"schema":"verma/1"}\n'
        )

    def test_detect_witness(self):
        code, out, _ = run_cli(
            ["detect", "--coeffs", "1,-1,1,-1,1,-1,1,-1", "--max-order", "2"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["rational"] == "(u+2)/(u+1)"
        assert obj["witness"] == {"N": 1, "c": ["1", "1"]}

    def test_singular_report(self, capsys):
        code, out, _ = call_main(
            capsys,
            ["singular", "--mu", "(u+2)/(u+1)", "--level", "1", "--degree", "1"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["basis"] == [
            {"terms": [{"coef": "1", "mono": [0]}, {"coef": "1", "mono": [1]}]}
        ]
        assert obj["pbw"] == [{"terms": [{"coef": "1", "mono": [2]}]}]
        assert obj["relation_budget"] == 5
        assert obj["stabilized"] is True

    def test_gram_and_character_agree(self, capsys):
        code_g, out_g, _ = call_main(
            capsys, ["gram", "--mu", "(u+3)/(u+1)", "--max-level", "3"]
        )
        code_c, out_c, _ = call_main(
            capsys, ["character", "--mu", "(u+3)/(u+1)", "--max-level", "3"]
        )
        assert code_g == 0 and code_c == 0
        ranks = [lvl["rank"] for lvl in json.loads(out_g)["levels"]]
        assert ranks == json.loads(out_c)["dims"] == [1, 1, 1, 0]

    def test_gram_past_the_default_recursion_limit(self, capsys):
        # levels run upward over one cache, so no level recurses more than
        # a few frames below the one before it
        code, out, err = call_main(
            capsys, ["gram", "--mu", "(u+2)/(u+1)", "--max-level", "1100"]
        )
        assert code == 0 and err == ""
        assert [lvl["rank"] for lvl in json.loads(out)["levels"]] == [1, 1] + [0] * 1099

    def test_character_report_shape(self, capsys):
        code, out, _ = call_main(
            capsys, ["character", "--mu", "(u+3)/(u+1)", "--max-level", "3"]
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["dims"] == [1, 1, 1, 0] and obj["l"] == 1

    def test_roots_label_and_matrix(self, capsys):
        code_a, out_a, _ = call_main(capsys, ["roots", "--cartan", "B2"])
        code_b, out_b, _ = call_main(
            capsys, ["roots", "--cartan", "[[2,-1],[-2,2]]"]
        )
        assert code_a == code_b == 0
        assert out_a == out_b
        obj = json.loads(out_a)
        assert obj["count"] == 4 and obj["highest"] == [1, 2] and obj["d"] == [2, 1]

    @pytest.mark.parametrize("matrix, positive", [
        ("[[2,0],[0,2]]", [[0, 1], [1, 0]]),
        ("[[2,-1,0,0],[-1,2,0,0],[0,0,2,-1],[0,0,-1,2]]",
         [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0]]),
    ])
    def test_roots_of_a_disconnected_diagram_have_no_highest(self, capsys, matrix, positive):
        code, out, _ = call_main(capsys, ["roots", "--cartan", matrix])
        assert code == 0
        obj = json.loads(out)
        assert obj["positive"] == positive and obj["highest"] is None

    def test_act_creation_generator(self, capsys):
        code, out, _ = call_main(
            capsys,
            ["act", "--mu", "(u+2)/(u+1)", "--gen", "t21", "--r", "2"],
        )
        assert code == 0
        assert json.loads(out)["vector"] == {"terms": [{"coef": "1", "mono": [2]}]}

    def test_act_annihilates_highest(self, capsys):
        code, out, _ = call_main(
            capsys, ["act", "--mu", "(u+2)/(u+1)", "--gen", "e", "--r", "0"]
        )
        assert code == 0
        assert json.loads(out)["vector"] == {"terms": []}

    def test_verdict_exact_weight(self, capsys):
        code, out, _ = call_main(
            capsys,
            ["verdict", "--mu", "(u+2)/(u+1)", "--cartan", "A1", "--budget", "2"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["reducible"] == "reducible"
        assert obj["weight_finiteness"] == "finite"
        assert obj["finite_dimensional"] is True

    def test_verdict_multi_component(self, capsys):
        code, out, _ = call_main(
            capsys,
            [
                "verdict",
                "--mu", "(u+2)/u",
                "--mu", "(u+1)/u",
                "--cartan", "B2",
                "--budget", "1",
            ],
        )
        assert code == 0
        assert json.loads(out)["finite_dimensional"] is True

    def test_verdict_detects_each_series_component_once(self, capsys, monkeypatch):
        calls = []
        inner = recurrence.detect_recurrence

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(recurrence, "detect_recurrence", counting)
        code, out, _ = call_main(
            capsys,
            [
                "verdict",
                "--mu", "series:1,1,1,1,1,1,1,1",
                "--mu", "(u+2)/(u+1)",
                "--mu", "series:1,2,6,24,120,720,5040,40320",
                "--budget", "2",
            ],
        )
        assert code == 0
        obj = json.loads(out)
        assert (obj["reducible"], obj["weight_finiteness"]) == (
            "reducible",
            "not_finite_up_to_budget",
        )
        # the rational component needs no detection; each series needs one
        assert len(calls) == 2

    #: --mu, --cartan -> the input error, raised before any rationality work
    VERDICT_INPUT_ERRORS = {
        ("window", "[[2,-1],[-2,1]]"): "diagonal entry A[1][1] must be 2",
        ("window", "A2"): "weight tuple has 1 components for rank 2",
        ("window", "[[2,-1],[-1,2.5]]"): "cartan matrix rows must be lists of integers",
        ("series:", "[[2,-1],[-2,1]]"): "series weight needs at least one coefficient",
    }

    @pytest.mark.parametrize("mu, cartan", VERDICT_INPUT_ERRORS, ids=lambda x: str(x))
    def test_verdict_checks_cartan_before_classify(self, capsys, monkeypatch, mu, cartan):
        message = self.VERDICT_INPUT_ERRORS[(mu, cartan)]
        calls = []
        monkeypatch.setattr(cli, "classify", lambda *args: calls.append(args))
        if mu == "window":  # 60 coefficients: a budget-20 pass is real work
            mu = "series:" + ",".join(str(k * k % 11 + 1) for k in range(60))
        argv = ["verdict", "--mu", mu, "--cartan", cartan, "--budget", "20"]
        code, out, err = call_main(capsys, argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"code": "input", "message": message}
        assert calls == []

    def test_series_weight_syntax(self, capsys):
        code, out, _ = call_main(
            capsys,
            ["act", "--mu", "series:1,-1,1,-1,1,-1", "--gen", "f", "--r", "0"],
        )
        assert code == 0
        assert json.loads(out)["vector"] == {"terms": [{"coef": "1", "mono": [1]}]}

    def test_json_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = call_main(
            capsys,
            [
                "expand", "--mu", "(u+2)/(u+1)", "--order", "3",
                "--json", str(target),
            ],
        )
        assert code == 0 and out == ""
        obj = json.loads(target.read_text())
        assert obj["coeffs"] == ["1", "1", "-1", "1"]

    def test_reports_are_single_canonical_lines(self, capsys):
        for argv in (
            ["expand", "--mu", "(u+2)/(u+1)", "--order", "5"],
            ["roots", "--cartan", "A2"],
            ["character", "--mu", "(u+2)/(u+1)", "--max-level", "2"],
        ):
            _, out, _ = call_main(capsys, argv)
            assert out.endswith("\n") and out.count("\n") == 1
            obj = json.loads(out)
            assert out == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


class TestExitCodes:
    def test_bad_weight_is_input_error(self, capsys):
        code, out, err = call_main(
            capsys, ["expand", "--mu", "u +", "--order", "3"]
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "input"

    def test_series_weight_where_rational_required(self, capsys):
        code, _, err = call_main(
            capsys, ["gram", "--mu", "series:1,1", "--max-level", "2"]
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == "input"

    def test_truncation_is_data_exit(self, capsys):
        code, out, err = call_main(
            capsys, ["act", "--mu", "series:1", "--gen", "h", "--r", "5"]
        )
        assert code == 3 and err == ""
        obj = json.loads(out)
        assert obj["error"]["code"] == "truncation"
        assert isinstance(obj["error"]["needed"], int)

    def test_insufficient_data_exit(self, capsys):
        code, out, _ = call_main(
            capsys, ["detect", "--coeffs", "1,2,3", "--max-order", "2"]
        )
        assert code == 3
        assert json.loads(out)["error"]["code"] == "insufficient_data"

    def test_no_recurrence_within_budget_is_success(self, capsys):
        # A budget-qualified negative is an answer, not an error.
        code, out, _ = call_main(
            capsys,
            ["detect", "--coeffs", "1,2,6,24,120,720,5040,40320", "--max-order", "2"],
        )
        assert code == 0
        assert json.loads(out)["witness"] is None

    def test_undetermined_verdict_exits_three(self, capsys):
        code, out, _ = call_main(
            capsys,
            ["verdict", "--mu", "series:1,1,1", "--cartan", "A1", "--budget", "2"],
        )
        assert code == 3
        assert json.loads(out)["reducible"] == "undetermined"

    def test_internal_error_exit(self, capsys, monkeypatch):
        def boom(params):
            raise RuntimeError("invariant breached")

        roots = cli._COMMANDS["roots"]._replace(runner=boom)
        monkeypatch.setitem(cli._COMMANDS, "roots", roots)
        code, out, err = call_main(capsys, ["roots", "--cartan", "A1"])
        assert code == 4 and out == ""
        assert json.loads(err)["error"]["code"] == "internal"

    DEEP_ACT = {"mu": "(u+2)/(u+1)", "gen": "e", "r": 1, "mono": ",".join(["1"] * 1500)}

    def test_too_deep_monomial_is_input_error(self, capsys):
        p = self.DEEP_ACT
        code, out, err = call_main(
            capsys,
            ["act", "--mu", p["mu"], "--gen", p["gen"], "--r", "1", "--mono", p["mono"]],
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "input" and "too deep" in error["message"]

    def test_too_deep_monomial_in_job_is_input_error(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"command": "act", "parameters": self.DEEP_ACT}))
        code, out, err = call_main(capsys, ["job", str(job)])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "input" and "too deep" in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--mu", "(u+2)/(u+1)", "--order", "3"],
            # the truncation error report is the one that cannot be written
            ["act", "--mu", "series:1,2", "--gen", "e", "--r", "5", "--mono", "1"],
        ],
    )
    def test_unwritable_json_path_is_input_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = call_main(capsys, argv + ["--json", str(target)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "input"
        assert not (tmp_path / "missing").exists()

    def test_json_write_replaces_whole_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("stale and much longer than any report of this command " * 9)
        code, _, _ = call_main(
            capsys, ["roots", "--cartan", "A1", "--json", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["count"] == 1
        assert [f.name for f in tmp_path.iterdir()] == ["report.json"]
        # a directory in place of the report: nothing written, no temp file left
        (tmp_path / "sub").mkdir()
        code, _, err = call_main(
            capsys, ["roots", "--cartan", "A1", "--json", str(tmp_path / "sub")]
        )
        assert code == 2 and json.loads(err)["error"]["code"] == "input"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["report.json", "sub"]

    def test_json_to_devnull_writes_through(self, capsys):
        before = os.stat(os.devnull)
        code, out, err = call_main(
            capsys, ["roots", "--cartan", "A1", "--json", os.devnull]
        )
        assert code == 0 and out == "" and err == ""
        after = os.stat(os.devnull)
        assert stat.S_ISCHR(after.st_mode) and after.st_rdev == before.st_rdev
        parent = os.path.dirname(os.devnull)
        assert not [f for f in os.listdir(parent) if f.startswith(".verma-")]

    def test_json_through_symlink_keeps_the_link(self, capsys, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("stale")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        code, _, _ = call_main(capsys, ["roots", "--cartan", "A1", "--json", str(link)])
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert json.loads(real.read_text())["count"] == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["link.json", "real.json"]

    def test_unserializable_report_is_internal_error(self, capsys, monkeypatch):
        roots = cli._COMMANDS["roots"]._replace(
            runner=lambda params: ({"bad": object()}, cli.EXIT_OK)
        )
        monkeypatch.setitem(cli._COMMANDS, "roots", roots)
        code, out, err = call_main(capsys, ["roots", "--cartan", "A1"])
        assert code == 4 and out == ""
        assert json.loads(err)["error"]["code"] == "internal"

    def test_stdout_write_failure_names_stdout(self, capsys, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(cli.sys, "stdout", ClosedPipe())
        code = cli.main(["roots", "--cartan", "A1"])
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 2 and err["code"] == "input"
        assert err["message"] == "cannot write report to stdout: Broken pipe"

    def test_parser_is_built_once_and_env_read_per_call(self, capsys, monkeypatch):
        assert cli._build_parser() is cli._build_parser()
        assert call_main(capsys, ["roots", "--cartan", "A1"])[0] == 0
        monkeypatch.setenv("VERMA_WORKERS", "zero")
        code, _, err = call_main(capsys, ["roots", "--cartan", "A1"])
        assert code == 2 and json.loads(err)["error"]["code"] == "input"

    def test_unknown_generator_rejected(self, capsys):
        code, out, err = call_main(
            capsys, ["act", "--mu", "(u+2)/(u+1)", "--gen", "t13", "--r", "1"]
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "input"

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--mu", "(u+²)/(u+1)", "--order", "3"],
            ["expand", "--mu", "(u+1)^²/(u+2)^²", "--order", "3"],
            ["roots", "--cartan", "A²"],
        ],
        ids=["digit", "exponent", "cartan-label"],
    )
    def test_superscript_digits_are_input_errors(self, argv):
        # str.isdigit accepts "²", which int() rejects
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "input"

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--mu", f"(u+{'7' * 4400})/(u+1)", "--order", "3"],
            ["expand", "--mu", f"(u+1)^{'7' * 4400}/(u+2)^2", "--order", "3"],
            ["expand", "--mu", "(u+2)/(u+1/1000000007)", "--order", "500"],
            ["roots", "--cartan", f"A{'7' * 4400}"],
            ["roots", "--cartan", f"[[{'7' * 4400}]]"],
        ],
        ids=["literal", "exponent", "report-coefficient", "cartan-rank", "cartan-json"],
    )
    def test_integers_past_the_str_digit_limit_are_input_errors(self, argv):
        # Python refuses int/str conversions of more than 4300 digits
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "input"
        assert "4300 digits" in error["message"]

    def test_job_file_integer_past_the_str_digit_limit(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(
            '{"command":"expand","parameters":{"mu":"u/u","order":%s}}' % ("7" * 4400)
        )
        code, out, err = run_cli(["job", str(job)])
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "input" and "4300 digits" in error["message"]

    @pytest.mark.parametrize("exponent", ["100000000", "-100000000", "4301"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--coeffs", "1e{},1", "--max-order", "0"],
            ["verdict", "--mu", "series:1,2E{},3", "--budget", "0"],
        ],
        ids=["detect", "series-weight"],
    )
    def test_exponent_literals_past_the_str_digit_limit(self, argv, exponent):
        # Fraction("1e100000000") builds 10**100000000 before anything else
        argv = [a.format(exponent) for a in argv]
        start = time.perf_counter()
        code, out, err = run_cli(argv, timeout=60)
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "input" and "4300 digits" in error["message"]

    def test_job_file_exponent_literal_past_the_str_digit_limit(self, tmp_path):
        job = tmp_path / "job.json"
        params = {"coeffs": "1e-100000000,1", "max_order": 0}
        job.write_text(json.dumps({"command": "detect", "parameters": params}))
        start = time.perf_counter()
        code, out, err = run_cli(["job", str(job)], timeout=60)
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "input" and "4300 digits" in error["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--coeffs", f"{'7' * 4400},1", "--max-order", "0"],
            ["detect", "--coeffs", f"1/{'7' * 4400},1", "--max-order", "0"],
            ["detect", "--coeffs", f"{chr(0x667) * 4400},1", "--max-order", "0"],
            ["act", "--mu", f"series:{'7' * 4400}", "--gen", "h", "--r", "2", "--mono", "1"],
        ],
        ids=["detect", "detect-denominator", "detect-arabic-indic-digits", "series-weight"],
    )
    def test_coefficient_literals_past_the_str_digit_limit(self, argv):
        # the message names the limit instead of echoing the 4400 digits
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert len(err.encode()) < 400
        error = json.loads(err)["error"]
        assert error["code"] == "input" and "4300 digits" in error["message"]

    def test_job_file_coefficient_literal_past_the_str_digit_limit(self, tmp_path):
        job = tmp_path / "job.json"
        params = {"coeffs": f"1,{'7' * 4400}", "max_order": 0}
        job.write_text(json.dumps({"command": "detect", "parameters": params}))
        code, out, err = run_cli(["job", str(job)])
        assert code == 2 and out == ""
        assert len(err.encode()) < 400
        error = json.loads(err)["error"]
        assert error["code"] == "input" and "4300 digits" in error["message"]

    @pytest.mark.parametrize("literal", ["abc", "1/0", "7" * 40 + "x"])
    def test_short_malformed_coefficients_keep_their_message(self, capsys, literal):
        argv = ["detect", "--coeffs", f"{literal},1", "--max-order", "0"]
        code, out, err = call_main(capsys, argv)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error == {
            "code": "input",
            "message": f"bad coefficient: not a rational number: {literal!r}",
        }

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ["act", "--mu", "series:1e3,0.5,-3/2,2.5E-1", "--gen", "h", "--r", "2",
                 "--mono", "1"],
                '{"gen":"h","mono":[1],"mu":"series:1e3,0.5,-3/2,2.5E-1","r":2,"schema":"verma/1",'
                '"vector":{"terms":[{"coef":"3991/2","mono":[1]},{"coef":"-1996","mono":[2]},'
                '{"coef":"-2","mono":[3]}]}}\n',
            ),
            (
                ["detect", "--coeffs", "5e-1,2.5e-1,1.25e-1,6.25e-2,3.125e-2,1.5625e-2",
                 "--max-order", "2"],
                '{"max_order":2,"rational":"(u)/(u-1/2)","schema":"verma/1",'
                '"witness":{"N":1,"c":["-1/2","1"]}}\n',
            ),
            (
                ["detect", "--coeffs", "1e3,0.5,-3/2,1e3,0.5,-3/2,1e3,0.5", "--max-order", "3"],
                '{"max_order":3,"rational":"(u^3+1000*u^2+1/2*u-5/2)/(u^3-1)","schema":"verma/1",'
                '"witness":{"N":1,"c":["-1","0","0","1"]}}\n',
            ),
        ],
        ids=["act-series", "detect-geometric", "detect-periodic"],
    )
    def test_small_exponents_decimals_and_fractions_keep_their_reports(self, capsys, argv, stdout):
        # pinned before the exponent check was added
        code, out, _ = call_main(capsys, argv)
        assert code == 0 and out == stdout


class TestEmptyListItems:
    """An empty comma item exits 2 and names its position; blank text means no items."""

    MU = "(u+2)/(u+1)"
    #: (command, parameters) -> message; the flags are the parameter names with dashes
    CASES = {
        ("detect", (("coeffs", "1,,-1,1,-1,1,-1,1,-1"), ("max_order", 2))):
            "bad coefficient: item 2 is empty",
        ("detect", (("coeffs", ",1,-1"), ("max_order", 0))): "bad coefficient: item 1 is empty",
        ("detect", (("coeffs", "1,-1, "), ("max_order", 0))): "bad coefficient: item 3 is empty",
        ("expand", (("mu", "series:1,,2"), ("order", 3))):
            "bad series coefficient: item 2 is empty",
        ("expand", (("mu", "series:1,2,"), ("order", 3))):
            "bad series coefficient: item 3 is empty",
        ("act", (("mu", MU), ("gen", "f"), ("r", 1), ("mono", "1,,2"))):
            "bad monomial index: item 2 is empty",
        ("act", (("mu", MU), ("gen", "f"), ("r", 1), ("mono", ","))):
            "bad monomial index: item 1 is empty",
        # whole-blank text keeps its own messages
        ("detect", (("coeffs", ""), ("max_order", 0))): "empty coefficient list",
        ("detect", (("coeffs", "  "), ("max_order", 0))): "empty coefficient list",
        ("expand", (("mu", "series:"), ("order", 3))):
            "series weight needs at least one coefficient",
    }

    @staticmethod
    def _argv(command, params):
        return [command, *(x for k, v in params for x in (f"--{k.replace('_', '-')}", str(v)))]

    @pytest.mark.parametrize("command, params", CASES, ids=lambda x: str(x))
    def test_flag(self, capsys, command, params):
        code, out, err = call_main(capsys, self._argv(command, params))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"code": "input", "message": self.CASES[command, params]}

    @pytest.mark.parametrize("command, params", CASES, ids=lambda x: str(x))
    def test_job_spec(self, tmp_path, capsys, command, params):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"command": command, "parameters": dict(params)}))
        code, out, err = call_main(capsys, ["job", str(job)])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"code": "input", "message": self.CASES[command, params]}

    @pytest.mark.parametrize("via_job", [False, True])
    def test_blank_mono_is_the_highest_vector(self, tmp_path, capsys, via_job):
        params = (("mu", self.MU), ("gen", "f"), ("r", 1))
        argv = self._argv("act", params)
        if via_job:
            job = tmp_path / "job.json"
            spec = {"command": "act", "parameters": {**dict(params), "mono": ""}}
            job.write_text(json.dumps(spec))
            argv = ["job", str(job)]
        code, out, _ = call_main(capsys, argv)
        assert code == 0 and json.loads(out)["mono"] == []


class TestJobMode:
    def test_job_file(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "command": "character",
                    "parameters": {"mu": "(u+3)/(u+1)", "max_level": 3},
                }
            )
        )
        code, out, _ = call_main(capsys, ["job", str(job)])
        assert code == 0
        assert json.loads(out)["dims"] == [1, 1, 1, 0]

    def test_job_output_field(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "command": "roots",
                    "parameters": {"cartan": [[2, -1], [-1, 2]]},
                    "output": str(target),
                }
            )
        )
        code, out, _ = call_main(capsys, ["job", str(job)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["count"] == 3

    def test_job_from_stdin(self):
        payload = json.dumps(
            {"command": "expand", "parameters": {"mu": "(u+2)/(u+1)", "order": 2}}
        )
        proc = subprocess.run(
            [sys.executable, "-m", "yverma", "job", "-"],
            input=payload,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["coeffs"] == ["1", "1", "-1"]

    def test_job_schema_violations(self, tmp_path, capsys):
        cases = [
            {"command": "nope", "parameters": {}},
            {"command": "expand", "parameters": {"mu": "(u+2)/(u+1)"}},
            {"command": "expand", "parameters": {"mu": "(u+2)/(u+1)", "order": "4"}},
            {"command": "expand", "parameters": {"mu": "(u+2)/(u+1)", "order": 4, "x": 1}},
            {"command": "expand", "parameters": {"mu": "(u+2)/(u+1)", "order": 4}, "extra": 1},
            {"parameters": {}},
        ]
        for i, case in enumerate(cases):
            job = tmp_path / f"job{i}.json"
            job.write_text(json.dumps(case))
            code, out, err = call_main(capsys, ["job", str(job)])
            assert code == 2, case
            assert json.loads(err)["error"]["code"] == "input"

    def test_job_truncation_report_goes_to_output_field(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "command": "act",
                    "parameters": {"mu": "series:1", "gen": "h", "r": 5},
                    "output": str(target),
                }
            )
        )
        code, out, err = call_main(capsys, ["job", str(job)])
        assert code == 3 and out == "" and err == ""
        assert json.loads(target.read_text())["error"]["code"] == "truncation"

    def test_job_unwritable_output_is_input_error(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {
                    "command": "roots",
                    "parameters": {"cartan": "A1"},
                    "output": str(tmp_path / "missing" / "out.json"),
                }
            )
        )
        code, out, err = call_main(capsys, ["job", str(job)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "input"

    def test_job_missing_file(self, capsys):
        code, _, err = call_main(capsys, ["job", "/nonexistent/job.json"])
        assert code == 2
        assert json.loads(err)["error"]["code"] == "input"


class TestDeterminism:
    def test_byte_identity_across_runs(self):
        argv = ["gram", "--mu", "(u+2)(u+4)/((u+1)(u+3))", "--max-level", "3"]
        runs = [run_cli(argv) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0

    def test_worker_count_never_echoed_or_effective(self):
        base = ["gram", "--mu", "(u+3)/(u+1)", "--max-level", "3"]
        one = run_cli(base + ["--workers", "1"])
        four = run_cli(base + ["--workers", "4"])
        assert one == four
        assert "workers" not in one[1]

    def test_env_override_beats_flag(self):
        base = ["singular", "--mu", "(u+2)/(u+1)", "--level", "1", "--degree", "2"]
        plain = run_cli(base + ["--workers", "1"])
        overridden = run_cli(base + ["--workers", "1"], env={"VERMA_WORKERS": "4"})
        assert plain == overridden
        assert plain[0] == 0

    def test_invalid_env_override_rejected(self):
        code, _, err = run_cli(
            ["roots", "--cartan", "A1"], env={"VERMA_WORKERS": "zero"}
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == "input"


class TestSelftestCommand:
    def test_selftest_passes(self):
        code, out, _ = run_cli(["selftest", "--seed", "0"])
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert all(entry["pass"] for entry in obj["properties"])

    def test_selftest_deterministic(self):
        a = run_cli(["selftest", "--seed", "2"])
        b = run_cli(["selftest", "--seed", "2"])
        assert a == b


INTEGRAL = "(u+3)(u+5)/((u+1)(u+2))"
HALF_INTEGRAL = "(u+7/2)(u+3)/((u+1)(u+2))"
SERIES = "series:1,-1/2,1/3,-1/4,1/5,-1/6,1/7,-1/8,1/9,-1/10,1/11,-1/12"
GENERATORS = ("t11", "t12", "t21", "t22", "e", "f", "h", "qdet")


def _no_float(text):
    raise AssertionError(f"float in report: {text}")


def _coefs(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "coef":
                yield value
            else:
                yield from _coefs(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from _coefs(item)


def _report_argvs():
    for mu in (INTEGRAL, HALF_INTEGRAL, SERIES):
        for gen in GENERATORS:
            yield ["act", "--gen", gen, "--r", "2", "--mono", "1,2", "--mu", mu]
        yield ["singular", "--mu", mu, "--level", "1", "--degree", "3"]
        yield ["verdict", "--mu", mu, "--budget", "4"]
    for mu in (INTEGRAL, HALF_INTEGRAL):
        yield ["gram", "--mu", mu, "--max-level", "3"]
        yield ["character", "--mu", mu, "--max-level", "3"]
    yield ["selftest", "--seed", "0"]


class TestExactReports:
    """Integral kernel values are ints internally; reports stay exact strings."""

    def test_reports_hold_no_floats_and_exact_coefs(self, capsys):
        seen = 0
        for argv in _report_argvs():
            code, out, _ = call_main(capsys, argv)
            assert code == 0, argv
            for coef in _coefs(json.loads(out, parse_float=_no_float)):
                assert format_rat(Fraction(coef)) == coef, (argv, coef)
                seen += 1
        assert seen > 50  # the 24 act reports alone carry 79

    def test_singular_level_4_report_matches_pinned_sha256(self, capsys):
        # pinned from the search that pulled every relation round up to r_start
        argv = ["singular", "--mu", "(u+2)/(u+1)", "--level", "4", "--degree", "8"]
        code, out, _ = call_main(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "92796ef2aff77738a2eb4e6911a0288fd17eeeecf979520776255b8bb37ce11b"
        )

    #: mu -> sha256 of its level-2 singular report, pinned from the search
    #: that eliminated Fraction rows; the Y_D search on integer rows must
    #: write the same bytes
    NON_INTEGRAL_SINGULAR_PINS = {
        ("(u+5/2)/(u+1)", "6"): "543604d1287c4a2b6e198379fd07039ee3eef697cea32993472d571aa01ce4d8",
        ("(u+5/3)(u+1/3)/((u+2/3)(u+4))", "6"): (
            "9d97bfc9f383f431fcef02ed61dfb46ec512382a48d81b4cbbb2177b50be85c8"
        ),
    }

    @pytest.mark.parametrize("mu, degree", NON_INTEGRAL_SINGULAR_PINS, ids=lambda x: str(x))
    def test_non_integral_singular_reports_match_pinned_sha256(self, capsys, mu, degree):
        argv = ["singular", "--mu", mu, "--level", "2", "--degree", degree]
        code, out, _ = call_main(capsys, argv)
        assert code == 0
        assert json.loads(out)["basis"]  # a nonempty kernel, mapped back from Y_D
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.NON_INTEGRAL_SINGULAR_PINS[(mu, degree)]

    #: (gen, r) -> (exit code, sha256 of the act report on mono 1,3 over an
    #: 8-coefficient series weight), pinned from the solve that built each
    #: Y_n by whole-vector subtraction; h(7) runs out and names coefficient 10
    ACT_PINS = {
        ("e", 3): (0, "ce89f559c4536512056ddbea08e162f3b92fee4243f87e73a304ec594cde5b74"),
        ("f", 3): (0, "44f4e9f40916dc3bbbc83eac41d3164622c8e59a9171a0f903307dc8d3cc7278"),
        ("h", 3): (0, "dd4f40accbca9f662ebeb8ee71ed51ffa64ba556ee557ff9bd9cf43830284c1a"),
        ("qdet", 3): (0, "1c52325e6b0f23f6d38ffb60cb28c1ee27bba90a5bea06457deceb512dde1b7e"),
        ("h", 7): (3, "782bcdad2b40cdef5027e13652cc23ec5e42d8452976c2ad039ce65603067b7c"),
    }

    @pytest.mark.parametrize("gen, r", ACT_PINS, ids=lambda x: str(x))
    def test_act_reports_match_pinned_sha256(self, capsys, gen, r):
        mu = "series:1,-1/2,1/3,-1/4,1/5,-1/6,1/7,-1/8"
        argv = ["act", "--gen", gen, "--r", str(r), "--mono", "1,3", "--mu", mu]
        code, out, _ = call_main(capsys, argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.ACT_PINS[gen, r]

    @pytest.mark.parametrize(
        "case",
        json.loads((Path(__file__).parent / "data" / "kernel_goldens.json").read_text()),
        ids=lambda case: " ".join(case["argv"][:3] + case["argv"][-1:]),
    )
    def test_kernel_reports_match_pinned_bytes(self, capsys, case):
        # the act cases were pinned from the Fraction-only kernel and the gram
        # cases of non-integral weights from the Gram route before it paired
        # in Y_D; the int kernel reproduces both
        code, out, _ = call_main(capsys, case["argv"])
        assert code == 0
        assert out == case["stdout"]

    @pytest.mark.parametrize(
        "case",
        json.loads((Path(__file__).parent / "data" / "rational_goldens.json").read_text()),
        ids=lambda case: " ".join(case["argv"][:3]),
    )
    def test_rational_layer_reports_match_pinned_bytes(self, capsys, case):
        # pinned from the Fraction parser and the Q-remainder Sturm chain and
        # gcd: fractional shifts, powers, shared factors, roots near 1e6 and
        # 1e18, verdicts and detect reconstructions
        code, out, _ = call_main(capsys, case["argv"])
        assert code == 0
        assert out == case["stdout"]
