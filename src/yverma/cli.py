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
* 2 — input/schema violation (bad flags, malformed weight or job file),
  an input too deep to evaluate within the interpreter's recursion limit,
  or a report that cannot be written to its ``--json``/``output`` path;
  the error object goes to stderr.
* 3 — the inputs ran out of data before the answer was determined
  (truncation, insufficient coefficients, undetermined verdicts); a
  machine-readable error or report goes to stdout.
* 4 — internal invariant breach (a bug, or a failing self-test).

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
from typing import Any, Callable, Optional, Sequence, Union

from .character import character_formula, irreducible_weight_dims
from .errors import InputError, InsufficientDataError, TruncationError
from .gauss import act_e, act_f, act_h, as_gl2_weights
from .rational import RationalFn, format_rat, parse_rational_fn, rat
from .recurrence import detect_recurrence
from .rootsys import CartanData, cartan_matrix, positive_roots
from .selftest import run_selftest
from .series import SeriesU, expand_rational, series_from_tail
from .singular import find_singular, fvector_to_obj
from .verdicts import (
    HighestWeightTuple,
    verdict_finite_dimensional,
    verdict_reducible,
    verdict_weight_finiteness,
)
from .verma import ActionCache, ModuleVector, act_generator, act_quantum_det, monomial

SCHEMA = "verma/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

WeightLike = Union[RationalFn, SeriesU]


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


def _parse_weight(text: str) -> WeightLike:
    if not isinstance(text, str):
        raise InputError(f"weight must be a string, got {type(text).__name__}")
    if text.startswith("series:"):
        body = text[len("series:") :]
        toks = [t.strip() for t in body.split(",") if t.strip()]
        if not toks:
            raise InputError("series weight needs at least one coefficient")
        try:
            tail = [rat(t) for t in toks]
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad series coefficient: {exc}") from exc
        return series_from_tail(tail)
    return parse_rational_fn(text)


def _parse_rational_weight(text: str) -> RationalFn:
    w = _parse_weight(text)
    if not isinstance(w, RationalFn):
        raise InputError("this command needs an exact rational weight, not a series")
    return w


def _parse_coeff_list(text: str) -> list:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise InputError("empty coefficient list")
    try:
        return [rat(t) for t in toks]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad coefficient: {exc}") from exc


def _parse_cartan(value: Union[str, list]) -> list[list[int]]:
    """A Cartan matrix from a type label ("B2") or a JSON array."""
    if isinstance(value, str):
        stripped = value.strip()
        if stripped.startswith("["):
            try:
                value = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise InputError(f"bad cartan matrix JSON: {exc}") from exc
        else:
            return cartan_matrix(stripped)
    if not isinstance(value, list):
        raise InputError("cartan must be a type label or a square integer matrix")
    matrix = []
    for row in value:
        if not isinstance(row, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in row
        ):
            raise InputError("cartan matrix rows must be lists of integers")
        matrix.append([int(x) for x in row])
    return matrix


def _parse_mono(text: str) -> tuple[int, ...]:
    toks = [t.strip() for t in text.split(",") if t.strip()]
    try:
        indices = [int(t) for t in toks]
    except ValueError as exc:
        raise InputError(f"bad monomial index: {exc}") from exc
    return monomial(indices)


# ---------------------------------------------------------------------------
# Command runners.  Each takes a validated parameter record and returns
# (report object, exit code).

Runner = Callable[[dict], tuple[dict, int]]


def _run_expand(params: dict) -> tuple[dict, int]:
    mu = _parse_rational_weight(params["mu"])
    order = params["order"]
    if order < 0:
        raise InputError("order must be >= 0")
    series = expand_rational(mu, order)
    return (
        {
            "schema": SCHEMA,
            "mu": str(mu),
            "order": order,
            "exact": series.exact,
            "coeffs": [format_rat(series.coeff(r)) for r in range(order + 1)],
        },
        EXIT_OK,
    )


def _run_detect(params: dict) -> tuple[dict, int]:
    coeffs = _parse_coeff_list(params["coeffs"])
    max_order = params["max_order"]
    if max_order < 0:
        raise InputError("max_order must be >= 0")
    witness = detect_recurrence(coeffs, max_order)
    obj: dict = {"schema": SCHEMA, "max_order": max_order}
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


_T_GENERATORS = {"t11": (1, 1), "t12": (1, 2), "t21": (2, 1), "t22": (2, 2)}


def _run_act(params: dict) -> tuple[dict, int]:
    gen = params["gen"]
    r = params["r"]
    if r < 0:
        raise InputError("generator index r must be >= 0")
    mono = _parse_mono(params.get("mono", ""))
    hw = as_gl2_weights(_parse_weight(params["mu"]))
    cache = ActionCache(hw)
    vec = ModuleVector.basis(mono)
    if gen in _T_GENERATORS:
        i, j = _T_GENERATORS[gen]
        out = act_generator(i, j, r, vec, hw, cache)
    elif gen == "e":
        out = act_e(r, vec, hw, cache)
    elif gen == "f":
        out = act_f(r, vec, hw, cache)
    elif gen == "h":
        out = act_h(r, vec, hw, cache)
    elif gen == "qdet":
        out = act_quantum_det(r, vec, hw, cache)
    else:
        raise InputError(
            f"unknown generator {gen!r}; expected one of "
            "t11, t12, t21, t22, e, f, h, qdet"
        )
    return (
        {
            "schema": SCHEMA,
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
    level = params["level"]
    degree = params["degree"]
    if level < 1:
        raise InputError("level must be >= 1")
    if degree < 0:
        raise InputError("degree must be >= 0")
    res = find_singular(mu, level, degree)
    return (
        {
            "schema": SCHEMA,
            "mu": params["mu"],
            "level": res.level,
            "degree_bound": res.degree_bound,
            "relation_budget": res.relation_bound,
            "stabilized": res.stabilized,
            "basis": [fvector_to_obj(fv) for fv in res.fbasis],
            "pbw": [v.to_obj() for v in res.basis],
        },
        EXIT_OK,
    )


def _run_gram(params: dict) -> tuple[dict, int]:
    mu = _parse_rational_weight(params["mu"])
    max_level = params["max_level"]
    if max_level < 0:
        raise InputError("max_level must be >= 0")
    reports = irreducible_weight_dims(mu, max_level)
    return (
        {
            "schema": SCHEMA,
            "mu": str(mu),
            "max_level": max_level,
            "levels": [
                {"level": rep.level, "spanning": rep.spanning_size, "rank": rep.rank}
                for rep in reports
            ],
        },
        EXIT_OK,
    )


def _run_character(params: dict) -> tuple[dict, int]:
    mu = _parse_rational_weight(params["mu"])
    max_level = params["max_level"]
    if max_level < 0:
        raise InputError("max_level must be >= 0")
    res = character_formula(mu, max_level)
    return (
        {
            "schema": SCHEMA,
            "mu": str(mu),
            "max_level": max_level,
            "dims": list(res.dims),
            "l": res.integer_pair_count,
        },
        EXIT_OK,
    )


def _run_roots(params: dict) -> tuple[dict, int]:
    matrix = _parse_cartan(params["cartan"])
    data = CartanData.from_matrix(matrix)
    system = positive_roots(matrix)
    return (
        {
            "schema": SCHEMA,
            "cartan": matrix,
            "d": list(data.d),
            "count": system.count(),
            "positive": [list(root) for root in system.positive],
            "highest": list(system.highest()),
        },
        EXIT_OK,
    )


def _run_verdict(params: dict) -> tuple[dict, int]:
    mu_texts = params["mu"]
    if isinstance(mu_texts, str):
        mu_texts = [mu_texts]
    if not isinstance(mu_texts, list) or not mu_texts:
        raise InputError("verdict needs at least one weight component")
    budget = params["budget"]
    if budget < 0:
        raise InputError("budget must be >= 0")
    weights = HighestWeightTuple([_parse_weight(t) for t in mu_texts])
    reducible = verdict_reducible(weights, budget)
    finiteness = verdict_weight_finiteness(weights, budget)
    obj: dict = {
        "schema": SCHEMA,
        "mu": list(mu_texts),
        "budget": budget,
        "components": [v.to_obj() for v in reducible.components],
        "reducible": reducible.kind,
        "weight_finiteness": finiteness.kind,
    }
    undetermined = "undetermined" in (reducible.kind, finiteness.kind)
    if params.get("cartan") is not None:
        data = CartanData.from_matrix(_parse_cartan(params["cartan"]))
        fd = verdict_finite_dimensional(weights, data)
        obj["d"] = list(data.d)
        obj["finite_dimensional"] = fd
        undetermined = undetermined or fd is None
    return obj, (EXIT_DATA if undetermined else EXIT_OK)


def _run_selftest(params: dict) -> tuple[dict, int]:
    seed = params.get("seed", 0)
    report = run_selftest(seed=seed)
    obj = {"schema": SCHEMA, **report.to_obj()}
    return obj, (EXIT_OK if report.passed else EXIT_INTERNAL)


_RUNNERS: dict[str, Runner] = {
    "expand": _run_expand,
    "detect": _run_detect,
    "act": _run_act,
    "singular": _run_singular,
    "gram": _run_gram,
    "character": _run_character,
    "roots": _run_roots,
    "verdict": _run_verdict,
    "selftest": _run_selftest,
}

# Per-command parameter schemas: name -> (required, is_valid, description).
# "int" means a non-bool integer; "str" a string; "cartan" a label or
# matrix; "mu_list" a weight string or list of weight strings.


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_str(x: Any) -> bool:
    return isinstance(x, str)


def _is_cartan(x: Any) -> bool:
    return isinstance(x, (str, list))


def _is_mu_list(x: Any) -> bool:
    return isinstance(x, str) or (
        isinstance(x, list) and x and all(isinstance(t, str) for t in x)
    )


_PARAM_SCHEMAS: dict[str, dict[str, tuple[bool, Callable[[Any], bool], str]]] = {
    "expand": {
        "mu": (True, _is_str, "rational weight string"),
        "order": (True, _is_int, "integer"),
    },
    "detect": {
        "coeffs": (True, _is_str, "comma-separated rational list"),
        "max_order": (True, _is_int, "integer"),
    },
    "act": {
        "gen": (True, _is_str, "generator name"),
        "r": (True, _is_int, "integer"),
        "mono": (False, _is_str, "comma-separated indices"),
        "mu": (True, _is_str, "weight string"),
    },
    "singular": {
        "mu": (True, _is_str, "weight string"),
        "level": (True, _is_int, "integer"),
        "degree": (True, _is_int, "integer"),
    },
    "gram": {
        "mu": (True, _is_str, "rational weight string"),
        "max_level": (True, _is_int, "integer"),
    },
    "character": {
        "mu": (True, _is_str, "rational weight string"),
        "max_level": (True, _is_int, "integer"),
    },
    "roots": {
        "cartan": (True, _is_cartan, "type label or integer matrix"),
    },
    "verdict": {
        "mu": (True, _is_mu_list, "weight string or list of weight strings"),
        "budget": (True, _is_int, "integer"),
        "cartan": (False, _is_cartan, "type label or integer matrix"),
    },
    "selftest": {
        "seed": (False, _is_int, "integer"),
    },
}


def _validate_params(command: str, params: dict) -> dict:
    schema = _PARAM_SCHEMAS[command]
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise InputError(f"unknown parameter(s) for {command}: {', '.join(unknown)}")
    out = {}
    for name, (required, check, description) in schema.items():
        if name not in params or params[name] is None:
            if required:
                raise InputError(f"{command} requires parameter {name!r}")
            continue
        value = params[name]
        if not check(value):
            raise InputError(f"parameter {name!r} must be a {description}")
        out[name] = value
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
    except json.JSONDecodeError as exc:
        raise InputError(f"job file is not valid JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise InputError("job file must contain a JSON object")
    unknown = sorted(set(job) - {"command", "parameters", "output"})
    if unknown:
        raise InputError(f"unknown job field(s): {', '.join(unknown)}")
    command = job.get("command")
    if command not in _RUNNERS:
        raise InputError(
            f"job command must be one of {', '.join(sorted(_RUNNERS))}; got {command!r}"
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


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process (parsing does not mutate it)."""
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

    parser = argparse.ArgumentParser(
        prog="verma",
        description="Exact computations in Verma modules over the Yangian of gl(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "expand", parents=[common], help="Laurent coefficients of a rational weight"
    )
    p.add_argument("--mu", required=True, help="rational weight, e.g. '(u+2)/(u+1)'")
    p.add_argument("--order", required=True, type=int, help="last coefficient index")

    p = sub.add_parser(
        "detect", parents=[common], help="find a linear recurrence in a coefficient tail"
    )
    p.add_argument("--coeffs", required=True, help="comma-separated rationals")
    p.add_argument("--max-order", dest="max_order", required=True, type=int)

    p = sub.add_parser("act", parents=[common], help="apply one generator to a basis vector")
    p.add_argument("--gen", required=True, choices=sorted([*_T_GENERATORS, "e", "f", "h", "qdet"]))
    p.add_argument("--r", required=True, type=int, help="generator index")
    p.add_argument("--mono", default="", help="t21 indices of the target monomial, e.g. '1,2'")
    p.add_argument("--mu", required=True, help="weight: rational or series:c1,c2,...")

    p = sub.add_parser("singular", parents=[common], help="singular vectors at a fixed level")
    p.add_argument("--mu", required=True)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--degree", required=True, type=int, help="degree bound for f-indices")

    p = sub.add_parser("gram", parents=[common], help="irreducible-quotient dims by Gram rank")
    p.add_argument("--mu", required=True)
    p.add_argument("--max-level", dest="max_level", required=True, type=int)

    p = sub.add_parser("character", parents=[common], help="dims by the character product formula")
    p.add_argument("--mu", required=True)
    p.add_argument("--max-level", dest="max_level", required=True, type=int)

    p = sub.add_parser("roots", parents=[common], help="positive roots and symmetrizers")
    p.add_argument("--cartan", required=True, help="type label like B2, or a JSON matrix")

    p = sub.add_parser("verdict", parents=[common], help="reducibility and finiteness verdicts")
    p.add_argument(
        "--mu",
        action="append",
        required=True,
        help="weight component (repeat for higher rank)",
    )
    p.add_argument("--budget", required=True, type=int, help="recurrence-order budget")
    p.add_argument("--cartan", help="include the finite-dimensionality verdict")

    p = sub.add_parser("selftest", parents=[common], help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("job", parents=[common], help="run a JobSpec JSON file")
    p.add_argument("file", help="job file path, or - for stdin")

    return parser


def _params_from_args(command: str, args: argparse.Namespace) -> dict:
    names = _PARAM_SCHEMAS[command]
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _fail(code: str, message: str, exit_code: int) -> int:
    """Write an error object to stderr and return the exit code."""
    sys.stderr.write(
        _canonical_json({"schema": SCHEMA, "error": {"code": code, "message": message}})
    )
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command, path = args.command, args.json
    try:
        _check_workers(args.workers)
        if command == "job":
            command, params, path = _load_job(args.file, args.json)
        else:
            params = _validate_params(command, _params_from_args(command, args))
        obj, code = _RUNNERS[command](params)
    except InputError as exc:
        return _fail("input", str(exc), EXIT_INPUT)
    except TruncationError as exc:
        obj = {
            "schema": SCHEMA,
            "error": {
                "code": "truncation",
                "message": str(exc),
                "needed": exc.needed,
                "order": exc.order,
            },
        }
        code = EXIT_DATA
    except InsufficientDataError as exc:
        obj = {
            "schema": SCHEMA,
            "error": {"code": "insufficient_data", "message": str(exc)},
        }
        code = EXIT_DATA
    except RecursionError:
        # the interpreter's stack limit, not a bug: e.g. a monomial with
        # thousands of indices recurses once per index
        return _fail("input", "input too deep to evaluate (recursion limit)", EXIT_INPUT)
    except Exception as exc:  # noqa: BLE001 -- map bugs to the breach exit code
        return _fail("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)
    try:
        _emit(obj, path)
    except OSError as exc:
        target = "stdout" if path is None or path == "-" else repr(path)
        reason = exc.strerror or f"{type(exc).__name__}: {exc}"
        return _fail("input", f"cannot write report to {target}: {reason}", EXIT_INPUT)
    except Exception as exc:  # noqa: BLE001 -- e.g. a report json cannot serialize
        return _fail("internal", f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
