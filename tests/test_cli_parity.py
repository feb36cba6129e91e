"""Flags and JobSpec files are two routes to one command table.

Every command gets one valid case, written both as argv and as JobSpec
parameters; the two routes must print the same bytes and exit alike, and
must reject an out-of-range or non-integer value alike, with a JSON error
on stderr.
"""

import json
import subprocess
import sys

import pytest

import yverma.cli as cli

# command -> (argv after the command name, the same call as JobSpec parameters)
CASES = {
    "expand": (
        ["--mu", "(u+2)/(u+1)", "--order", "4"],
        {"mu": "(u+2)/(u+1)", "order": 4},
    ),
    "detect": (
        ["--coeffs", "1,-1,1,-1,1,-1,1,-1", "--max-order", "2"],
        {"coeffs": "1,-1,1,-1,1,-1,1,-1", "max_order": 2},
    ),
    "act": (
        ["--gen", "t21", "--r", "2", "--mono", "1", "--mu", "(u+2)/(u+1)"],
        {"gen": "t21", "r": 2, "mono": "1", "mu": "(u+2)/(u+1)"},
    ),
    "singular": (
        ["--mu", "(u+2)/(u+1)", "--level", "1", "--degree", "1"],
        {"mu": "(u+2)/(u+1)", "level": 1, "degree": 1},
    ),
    "gram": (
        ["--mu", "(u+3)/(u+1)", "--max-level", "3"],
        {"mu": "(u+3)/(u+1)", "max_level": 3},
    ),
    "character": (
        ["--mu", "(u+3)/(u+1)", "--max-level", "3"],
        {"mu": "(u+3)/(u+1)", "max_level": 3},
    ),
    "roots": (["--cartan", "B2"], {"cartan": "B2"}),
    "verdict": (
        ["--mu", "(u+2)/u", "--mu", "(u+1)/u", "--cartan", "B2", "--budget", "1"],
        {"mu": ["(u+2)/u", "(u+1)/u"], "cartan": "B2", "budget": 1},
    ),
    "selftest": (["--seed", "0"], {"seed": 0}),
}

INT_PARAMS = [
    (command, param)
    for command, spec in cli._COMMANDS.items()
    for param in spec.params
    if param.kind == "int"
]


def run_both(capsys, tmp_path, command, argv, params):
    """(exit code, stdout, stderr) from the flag route and the JobSpec route."""
    code = cli.main([command, *argv])
    flag = (code, *capsys.readouterr())
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": command, "parameters": params}))
    code = cli.main(["job", str(job)])
    return flag, (code, *capsys.readouterr())


def with_value(argv, name, value):
    """argv with the value of parameter ``name`` replaced."""
    i = argv.index("--" + name.replace("_", "-"))
    return [*argv[: i + 1], value, *argv[i + 2 :]]


def assert_input_error(result):
    code, out, err = result
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "input"


def test_cases_cover_the_table():
    assert set(CASES) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(CASES))
def test_flags_and_jobspec_report_the_same_bytes(capsys, tmp_path, command):
    flag, job = run_both(capsys, tmp_path, command, *CASES[command])
    assert flag == job
    assert flag[0] == 0 and flag[1].endswith("\n") and flag[2] == ""


@pytest.mark.parametrize(
    "command,param",
    [(c, p) for c, p in INT_PARAMS if p.minimum is not None],
    ids=lambda x: getattr(x, "name", x),
)
def test_value_below_minimum_is_input_error_on_both_routes(
    capsys, tmp_path, command, param
):
    argv, params = CASES[command]
    low = param.minimum - 1
    flag, job = run_both(
        capsys,
        tmp_path,
        command,
        with_value(argv, param.name, str(low)),
        {**params, param.name: low},
    )
    assert_input_error(flag)
    assert_input_error(job)
    assert json.loads(flag[2]) == json.loads(job[2])
    assert json.loads(job[2])["error"]["message"] == f"{param.name} must be >= {param.minimum}"


@pytest.mark.parametrize("command,param", INT_PARAMS, ids=lambda x: getattr(x, "name", x))
def test_non_integer_is_input_error_on_both_routes(capsys, tmp_path, command, param):
    argv, params = CASES[command]
    flag, job = run_both(
        capsys,
        tmp_path,
        command,
        with_value(argv, param.name, "1.5"),
        {**params, param.name: 1.5},
    )
    assert_input_error(flag)
    assert_input_error(job)


@pytest.mark.parametrize(
    "argv",
    [["expand", "--mu", "u"], ["expand", "--mu", "u", "--order", "1", "--bogus"], ["nope"], []],
    ids=["missing-flag", "unknown-flag", "unknown-command", "no-command"],
)
def test_usage_errors_are_json(capsys, argv):
    code = cli.main(argv)
    assert_input_error((code, *capsys.readouterr()))


@pytest.mark.parametrize("command", [*CASES, "job"])
def test_command_help_goes_to_stdout(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith(f"usage: verma {command} ") and err == ""


def test_top_level_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "yverma", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: verma ")
    for command in [*CASES, "job"]:
        assert command in proc.stdout
