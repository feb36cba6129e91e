"""Command-line front end: every analysis as a JSON-reporting subcommand.

Output contract
---------------
* Every report is a single canonical JSON object (sorted keys, no
  whitespace) tagged ``"schema": "verma/1"`` and terminated by one
  newline, written to stdout or to the ``--json`` path.  Identical
  inputs produce byte-identical output.
* All numbers that are not structurally integers (budgets, levels,
  counts, dimensions) are exact rational *strings*; floats never appear.
* Every report echoes the budgets it used (order, max_order, budget,
  relation_budget, max_level), so a negative answer is always qualified.

Exit codes
----------
* 0 — computed; includes budget-qualified negatives such as
  ``no_recurrence_up_to``.
* 2 — input/schema violation (a usage error such as an unknown flag or a
  non-integer value, a value below its minimum, a malformed weight or job
  file), an input too deep to evaluate within the interpreter's recursion
  limit, or a report that cannot be written to its ``--json``/``output``
  path; the error object goes to stderr, never argparse's usage text.
* 3 — the inputs ran out of data before the answer was determined
  (truncation, insufficient coefficients, undetermined verdicts); a
  machine-readable error or report goes to stdout.
* 4 — internal invariant breach (a bug, or a failing self-test).

Command table
-------------
``_COMMANDS`` declares every command and parameter once; the argparse tree
and JobSpec validation are both generated from it, so a flag and a JobSpec
parameter pass the same type and range checks.

Weight syntax
-------------
Rational weights are expressions in ``u`` such as ``(u+2)/(u+1)``;
truncated series weights are ``series:c1,c2,...`` listing the
coefficients of u^-1, u^-2, ... after the leading 1.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
import tempfile
from typing import Any, Callable, NamedTuple, NoReturn, Optional, Sequence, Union

from .character import character_formula, irreducible_weight_dims
from .errors import InputError, InsufficientDataError, TruncationError
from .gauss import act_e, act_f, act_h, as_gl2_weights
from .rational import RationalFn, format_rat, parse_rational_fn, rat
from .recurrence import detect_recurrence
from .rootsys import CartanData, cartan_matrix, positive_roots
from .selftest import run_selftest
from .series import SeriesU, expand_rational, series_from_tail
from .singular import find_singular
from .verdicts import HighestWeightTuple, classify, verdict_finite_dimensional
from .verma import ActionCache, ModuleVector, act_generator, act_quantum_det, monomial
from .verma import terms_to_obj

SCHEMA = "verma/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(obj: Any, path: Optional[str]) -> None:
    """Write the report to stdout, or to ``path``.

    A new file or an existing regular file is written under a temporary
    name in the same directory and renamed over ``path``, so a reader
    sees the old report or the whole new one.  Any other target (a
    symlink, a device such as /dev/null, a FIFO) is opened and written
    through in place.  OSError propagates to the caller.
    """
    text = _canonical_json(obj)
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".verma-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        # mkstemp creates the file 0600; give the report the mode open() would
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _parse_list(text: str, convert: Callable[[str], Any], noun: str) -> list:
    """The comma-separated items of ``text``, each through ``convert``; blank text has none.

    An empty item is an error named by its position, so a stray comma
    cannot shift the items after it."""
    items = [t.strip() for t in text.split(",")] if text.strip() else []
    if "" in items:
        raise InputError(f"bad {noun}: item {items.index('') + 1} is empty")
    try:
        return [convert(t) for t in items]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {noun}: {exc}") from exc


def _parse_weight(text: str) -> Union[RationalFn, SeriesU]:
    if text.startswith("series:"):
        tail = _parse_list(text[len("series:") :], rat, "series coefficient")
        if not tail:
            raise InputError("series weight needs at least one coefficient")
        return series_from_tail(tail)
    return parse_rational_fn(text)


def _parse_rational_weight(text: str) -> RationalFn:
    w = _parse_weight(text)
    if not isinstance(w, RationalFn):
        raise InputError("this command needs an exact rational weight, not a series")
    return w


def _parse_cartan(value: Union[str, list]) -> list[list[int]]:
    """A Cartan matrix from a type label ("B2") or a JSON array."""
    if isinstance(value, str):
        stripped = value.strip()
        if stripped.startswith("["):
            try:
                value = json.loads(stripped)
            except ValueError as exc:  # malformed, or an int past the digit limit
                raise InputError(f"bad cartan matrix JSON: {exc}") from exc
        else:
            return cartan_matrix(stripped)
    matrix = []
    for row in value:
        if not isinstance(row, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in row
        ):
            raise InputError("cartan matrix rows must be lists of integers")
        matrix.append([int(x) for x in row])
    return matrix


# ---------------------------------------------------------------------------
# Command runners.  Each takes a validated parameter record and returns
# (report object, exit code); ``main`` adds the schema tag.  Runners look
# library functions up by module-global name at call time, never through a
# table built at import, so a rebinding of those names (as bench/tracing.py
# does) reaches every command.


def _run_expand(params: dict) -> tuple[dict, int]:
    mu = _parse_rational_weight(params["mu"])
    order = params["order"]
    series = expand_rational(mu, order)
    return (
        {
            "mu": str(mu),
            "order": order,
            "exact": series.exact,
            "coeffs": [format_rat(series.coeff(r)) for r in range(order + 1)],
        },
        EXIT_OK,
    )


def _run_detect(params: dict) -> tuple[dict, int]:
    coeffs = _parse_list(params["coeffs"], rat, "coefficient")
    if not coeffs:
        raise InputError("empty coefficient list")
    max_order = params["max_order"]
    witness = detect_recurrence(coeffs, max_order)
    obj: dict = {"max_order": max_order}
    if witness is None:
        obj["witness"] = None
        obj["no_recurrence_up_to"] = max_order
    else:
        obj["witness"] = {
            "c": [format_rat(x) for x in witness.c],
            "N": witness.tail_start,
        }
        obj["rational"] = str(witness.recovered)
    return obj, EXIT_OK


#: Generator names ``act`` accepts: the four t_ij, then the Gauss-decomposition ones.
_ACT_GENERATORS = ("t11", "t12", "t21", "t22", "e", "f", "h", "qdet")


def _run_act(params: dict) -> tuple[dict, int]:
    gen = params["gen"]
    r = params["r"]
    mono = monomial(_parse_list(params.get("mono", ""), int, "monomial index"))
    hw = as_gl2_weights(_parse_weight(params["mu"]))
    cache = ActionCache(hw)
    vec = ModuleVector.basis(mono)
    # built per call, so that names rebound on this module are the ones called
    actions = dict(zip(_ACT_GENERATORS, (
        *(functools.partial(act_generator, i, j) for i in (1, 2) for j in (1, 2)),
        act_e, act_f, act_h, act_quantum_det,
    )))
    if gen not in actions:
        raise InputError(
            f"unknown generator {gen!r}; expected one of {', '.join(_ACT_GENERATORS)}"
        )
    out = actions[gen](r, vec, hw, cache)
    return (
        {
            "mu": params["mu"],
            "gen": gen,
            "r": r,
            "mono": list(mono),
            "vector": out.to_obj(),
        },
        EXIT_OK,
    )


def _run_singular(params: dict) -> tuple[dict, int]:
    mu = _parse_weight(params["mu"])
    res = find_singular(mu, params["level"], params["degree"])
    return (
        {
            "mu": params["mu"],
            "level": res.level,
            "degree_bound": res.degree_bound,
            "relation_budget": res.relation_bound,
            "stabilized": res.stabilized,
            "basis": [terms_to_obj(fv) for fv in res.fbasis],
            "pbw": [v.to_obj() for v in res.basis],
        },
        EXIT_OK,
    )


def _run_gram(params: dict) -> tuple[dict, int]:
    mu = _parse_rational_weight(params["mu"])
    reports = irreducible_weight_dims(mu, params["max_level"])
    return (
        {
            "mu": str(mu),
            "max_level": params["max_level"],
            "levels": [
                {"level": rep.level, "spanning": rep.spanning_size, "rank": rep.rank}
                for rep in reports
            ],
        },
        EXIT_OK,
    )


def _run_character(params: dict) -> tuple[dict, int]:
    mu = _parse_rational_weight(params["mu"])
    res = character_formula(mu, params["max_level"])
    return (
        {
            "mu": str(mu),
            "max_level": params["max_level"],
            "dims": list(res.dims),
            "l": res.integer_pair_count,
        },
        EXIT_OK,
    )


def _run_roots(params: dict) -> tuple[dict, int]:
    matrix = _parse_cartan(params["cartan"])
    system = positive_roots(matrix)
    return (
        {
            "cartan": matrix,
            "d": list(system.cartan.d),
            "count": system.count(),
            "positive": [list(root) for root in system.positive],
            "highest": system.highest(),
        },
        EXIT_OK,
    )


def _run_verdict(params: dict) -> tuple[dict, int]:
    mu_texts = params["mu"]
    if isinstance(mu_texts, str):  # a JobSpec may give one component bare
        mu_texts = [mu_texts]
    budget = params["budget"]
    weights = HighestWeightTuple([_parse_weight(t) for t in mu_texts])
    data = None
    if params.get("cartan") is not None:  # checked before the rationality pass
        data = CartanData.from_matrix(_parse_cartan(params["cartan"]))
        fd = verdict_finite_dimensional(weights, data)
    reducible, finiteness = classify(weights, budget)
    obj: dict = {
        "mu": list(mu_texts),
        "budget": budget,
        "components": [v.to_obj() for v in reducible.components],
        "reducible": reducible.kind,
        "weight_finiteness": finiteness.kind,
    }
    undetermined = "undetermined" in (reducible.kind, finiteness.kind)
    if data is not None:
        obj["d"] = list(data.d)
        obj["finite_dimensional"] = fd
        undetermined = undetermined or fd is None
    return obj, (EXIT_DATA if undetermined else EXIT_OK)


def _run_selftest(params: dict) -> tuple[dict, int]:
    report = run_selftest(seed=params.get("seed", 0))
    return report.to_obj(), (EXIT_OK if report.passed else EXIT_INTERNAL)


# ---------------------------------------------------------------------------
# The command table: the one declaration of every command and parameter.
# ``_build_parser`` generates the argparse tree from it, and
# ``_validate_params`` checks parsed flags and JobSpec parameters against it.


class _Param(NamedTuple):
    name: str  # JobSpec key; the flag is --name-with-dashes
    kind: str  # a key of _KINDS
    required: bool
    help: str
    minimum: Optional[int] = None  # ints only


class _Command(NamedTuple):
    runner: Callable[[dict], tuple[dict, int]]
    help: str
    params: tuple[_Param, ...]


# Parameter kind -> noun in its type error.
_KINDS: dict[str, str] = {
    "int": "integer",
    "rational": "rational weight string",
    "weight": "weight string",
    "weights": "weight string or list of weight strings",
    "rationals": "comma-separated rational list",
    "indices": "comma-separated indices",
    "generator": "generator name",
    "cartan": "type label or integer matrix",
}


def _accepts(kind: str, value: Any) -> bool:
    """Whether a JobSpec value has the JSON type of its kind."""
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "cartan":
        return isinstance(value, (str, list))
    if kind == "weights" and isinstance(value, list):
        return bool(value) and all(isinstance(t, str) for t in value)
    return isinstance(value, str)


_COMMANDS: dict[str, _Command] = {
    "expand": _Command(_run_expand, "Laurent coefficients of a rational weight", (
        _Param("mu", "rational", True, "rational weight, e.g. '(u+2)/(u+1)'"),
        _Param("order", "int", True, "last coefficient index", minimum=0),
    )),
    "detect": _Command(_run_detect, "find a linear recurrence in a coefficient tail", (
        _Param("coeffs", "rationals", True, "comma-separated rationals"),
        _Param("max_order", "int", True, "largest recurrence order tried", minimum=0),
    )),
    "act": _Command(_run_act, "apply one generator to a basis vector", (
        _Param("gen", "generator", True, f"one of {', '.join(_ACT_GENERATORS)}"),
        _Param("r", "int", True, "generator index", minimum=0),
        _Param("mono", "indices", False, "t21 indices of the target monomial, e.g. '1,2'"),
        _Param("mu", "weight", True, "weight: rational or series:c1,c2,..."),
    )),
    "singular": _Command(_run_singular, "singular vectors at a fixed level", (
        _Param("mu", "weight", True, "weight: rational or series:c1,c2,..."),
        _Param("level", "int", True, "PBW level searched", minimum=1),
        _Param("degree", "int", True, "degree bound for f-indices", minimum=0),
    )),
    "gram": _Command(_run_gram, "irreducible-quotient dims by Gram rank", (
        _Param("mu", "rational", True, "rational weight"),
        _Param("max_level", "int", True, "last level computed", minimum=0),
    )),
    "character": _Command(_run_character, "dims by the character product formula", (
        _Param("mu", "rational", True, "rational weight"),
        _Param("max_level", "int", True, "last level computed", minimum=0),
    )),
    "roots": _Command(_run_roots, "positive roots and symmetrizers", (
        _Param("cartan", "cartan", True, "type label like B2, or a JSON matrix"),
    )),
    "verdict": _Command(_run_verdict, "reducibility and finiteness verdicts", (
        _Param("mu", "weights", True, "weight component (repeat for higher rank)"),
        _Param("budget", "int", True, "recurrence-order budget", minimum=0),
        _Param("cartan", "cartan", False, "include the finite-dimensionality verdict"),
    )),
    "selftest": _Command(_run_selftest, "run the invariant suite", (
        _Param("seed", "int", False, "random seed (default 0)"),
    )),
}


def _validate_params(command: str, params: dict) -> dict:
    """Check parameters against the table; a value of None counts as absent."""
    spec = _COMMANDS[command].params
    unknown = sorted(set(params) - {p.name for p in spec})
    if unknown:
        raise InputError(f"unknown parameter(s) for {command}: {', '.join(unknown)}")
    out = {}
    for p in spec:
        value = params.get(p.name)
        if value is None:
            if p.required:
                raise InputError(f"{command} requires parameter {p.name!r}")
            continue
        if not _accepts(p.kind, value):
            raise InputError(f"parameter {p.name!r} must be a {_KINDS[p.kind]}")
        if p.minimum is not None and value < p.minimum:
            raise InputError(f"{p.name} must be >= {p.minimum}")
        out[p.name] = value
    return out


def _load_job(path: str, default_output: Optional[str]) -> tuple[str, dict, Optional[str]]:
    """Read one JobSpec file: {"command": ..., "parameters": {...}, "output": ...}.

    Returns the command, its validated parameters and the report path.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read job file: {exc}") from exc
    try:
        job = json.loads(text)
    except ValueError as exc:  # malformed, or an int past the digit limit
        raise InputError(f"job file is not valid JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise InputError("job file must contain a JSON object")
    unknown = sorted(set(job) - {"command", "parameters", "output"})
    if unknown:
        raise InputError(f"unknown job field(s): {', '.join(unknown)}")
    command = job.get("command")
    if command not in _COMMANDS:
        raise InputError(
            f"job command must be one of {', '.join(sorted(_COMMANDS))}; got {command!r}"
        )
    parameters = job.get("parameters", {})
    if not isinstance(parameters, dict):
        raise InputError("job parameters must be a JSON object")
    output = job.get("output")
    if output is not None and not isinstance(output, str):
        raise InputError("job output must be a path string")
    params = _validate_params(command, parameters)
    return command, params, output if output is not None else default_output


def _check_workers(flag_value: Optional[int]) -> None:
    """Validate ``--workers`` / ``VERMA_WORKERS``; both are accepted and unused."""
    env = os.environ.get("VERMA_WORKERS")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise InputError(f"VERMA_WORKERS must be an integer, got {env!r}")
    else:
        workers = flag_value if flag_value is not None else 1
    if workers < 1:
        raise InputError("workers must be >= 1")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise InputError instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise InputError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process from the command table."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", metavar="PATH", help="write the JSON report here instead of stdout"
    )
    common.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted for compatibility and has no effect; must be >= 1 "
        "(VERMA_WORKERS overrides)",
    )

    parser = _Parser(
        prog="verma",
        description="Exact computations in Verma modules over the Yangian of gl(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, spec in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=spec.help)
        for param in spec.params:
            kwargs: dict[str, Any] = {"required": param.required, "help": param.help}
            if param.kind == "int":
                kwargs["type"] = int
            elif param.kind == "weights":
                kwargs["action"] = "append"
            p.add_argument("--" + param.name.replace("_", "-"), **kwargs)

    p = sub.add_parser("job", parents=[common], help="run a JobSpec JSON file")
    p.add_argument("file", help="job file path, or - for stdin")

    return parser


def _fail(code: str, message: str, exit_code: int) -> int:
    """Write an error object to stderr and return the exit code."""
    sys.stderr.write(
        _canonical_json({"schema": SCHEMA, "error": {"code": code, "message": message}})
    )
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command, path = args.command, args.json
        _check_workers(args.workers)
        if command == "job":
            command, params, path = _load_job(args.file, args.json)
        else:
            flags = {p.name: getattr(args, p.name) for p in _COMMANDS[command].params}
            params = _validate_params(command, flags)
        obj, code = _COMMANDS[command].runner(params)
    except InputError as exc:
        return _fail("input", str(exc), EXIT_INPUT)
    except TruncationError as exc:
        obj = {
            "error": {
                "code": "truncation",
                "message": str(exc),
                "needed": exc.needed,
                "order": exc.order,
            },
        }
        code = EXIT_DATA
    except InsufficientDataError as exc:
        obj = {"error": {"code": "insufficient_data", "message": str(exc)}}
        code = EXIT_DATA
    except RecursionError:
        # the interpreter's stack limit, not a bug: e.g. a monomial with
        # thousands of indices recurses once per index
        return _fail("input", "input too deep to evaluate (recursion limit)", EXIT_INPUT)
    except Exception as exc:  # noqa: BLE001 -- map bugs to the breach exit code
        return _fail("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)
    try:
        _emit({"schema": SCHEMA, **obj}, path)
    except OSError as exc:
        target = "stdout" if path is None or path == "-" else repr(path)
        reason = exc.strerror or f"{type(exc).__name__}: {exc}"
        return _fail("input", f"cannot write report to {target}: {reason}", EXIT_INPUT)
    except Exception as exc:  # noqa: BLE001 -- e.g. a report json cannot serialize
        return _fail("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
