"""Checks of each report by a second route, run after the timed passes.

Each checker takes the job and its parsed report and returns ``None`` when
the report is right, or a one-line reason.  The second routes are the
ones the library keeps for cross-checking (``character_formula`` against
Gram ranks, ``verify_singular``, ``expand_rational``,
``act_h_via_quantum_det``) plus facts fixed at generation time (root
counts, character dims of a chosen shift pairing, finiteness of a chosen
weight).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Union

from yverma.character import character_formula
from yverma.gauss import act_h_via_quantum_det, as_gl2_weights
from yverma.linalg import rank
from yverma.rational import RationalFn, parse_rational_fn
from yverma.series import SeriesU, expand_rational, series_from_tail
from yverma.singular import canonical_singular_vector, verify_singular
from yverma.verma import ModuleVector, monomial

from workloads import Job


def _weight(text: str) -> Union[RationalFn, SeriesU]:
    if text.startswith("series:"):
        return series_from_tail([Fraction(t) for t in text[len("series:"):].split(",")])
    return parse_rational_fn(text)


def _reexpands_to(rational_text: str, tail: list[str]) -> bool:
    series = expand_rational(parse_rational_fn(rational_text), len(tail))
    return [str(series.coeff(r)) for r in range(1, len(tail) + 1)] == tail


def _check_gram(job: Job, rep: dict) -> Optional[str]:
    p, max_level = job.expect["p"], job.params["max_level"]
    dims = character_formula(parse_rational_fn(job.params["mu"]), max_level).dims
    levels = rep["levels"]
    if [lv["level"] for lv in levels] != list(range(max_level + 1)):
        return "levels are not 0..max_level"
    for k, lv in enumerate(levels):
        if lv["spanning"] != comb(k + p - 1, k):
            return f"level {k}: spanning {lv['spanning']} != C({k + p - 1},{k})"
        if lv["rank"] != dims[k]:
            return f"level {k}: Gram rank {lv['rank']} != character dim {dims[k]}"
    return None


def _check_singular(job: Job, rep: dict) -> Optional[str]:
    mu = _weight(job.params["mu"])
    if (rep["level"], rep["degree_bound"]) != (job.params["level"], job.params["degree"]):
        return "level or degree not echoed"
    if len(rep["basis"]) != len(rep["pbw"]):
        return "basis and pbw lengths differ"
    for obj in rep["pbw"]:
        zeta = ModuleVector.from_obj(obj)
        if zeta.is_zero() or not verify_singular(zeta, mu, rep["relation_budget"]):
            return "a returned vector is not singular up to relation_budget"
    if job.expect.get("rational") and job.params["level"] == 1:
        degree = job.params["degree"]
        rows = [[Fraction(0)] * (degree + 1) for _ in rep["basis"]]
        for row, fvec in zip(rows, rep["basis"]):
            for term in fvec["terms"]:
                row[term["mono"][0]] = Fraction(term["coef"])
        base = rank(rows)
        for s in range(job.expect["p"], degree + 1):
            canon = [Fraction(0)] * (degree + 1)
            for (r,), c in canonical_singular_vector(mu, s).items():
                canon[r] = c
            if rank(rows + [canon]) != base:
                return f"canonical singular vector s={s} is not in the returned span"
    return None


def _check_detect(job: Job, rep: dict) -> Optional[str]:
    tail = job.expect["tail"]
    if job.expect["rational"]:
        if rep.get("witness") is None:
            return "no recurrence found on a rational tail"
        if not _reexpands_to(rep["rational"], tail):
            return "recovered function does not re-expand to the tail"
    elif rep.get("witness") is not None or rep.get("no_recurrence_up_to") != job.params["max_order"]:
        return "non-rational tail did not give no_recurrence_up_to"
    return None


def _check_verdict(job: Job, rep: dict) -> Optional[str]:
    if "cartan" in job.params:
        if rep.get("d") != job.expect["d"]:
            return f"symmetrizers {rep.get('d')} != {job.expect['d']}"
        if rep.get("finite_dimensional") is not job.expect["finite"]:
            return "finite_dimensional disagrees with the rigid identity"
        if (rep["reducible"], rep["weight_finiteness"]) != ("reducible", "finite"):
            return "rational components not reported reducible and finite"
        return None
    comp = rep["components"][0]
    if job.expect["rational"]:
        if (rep["reducible"], rep["weight_finiteness"], comp["verdict"]) != (
            "reducible", "finite", "rational"
        ):
            return "rational tail not reported rational"
        if not _reexpands_to(comp["rational"], job.expect["tail"]):
            return "recovered function does not re-expand to the tail"
    elif (rep["reducible"], rep["weight_finiteness"], comp["verdict"]) != (
        "irreducible_up_to_budget", "not_finite_up_to_budget", "no_recurrence_up_to"
    ):
        return "non-rational tail not reported no_recurrence_up_to"
    return None


def _check_expand(job: Job, rep: dict) -> Optional[str]:
    # Q(u) * sum_r c_r u^-r must equal P(u): compare coefficients of u^(p-n).
    mu = parse_rational_fn(job.params["mu"])
    c = [Fraction(x) for x in rep["coeffs"]]
    p = mu.degree
    if len(c) != job.params["order"] + 1:
        return "wrong number of coefficients"
    for n in range(len(c)):
        lhs = sum(mu.den.coeff(p - k) * c[n - k] for k in range(min(n, p) + 1))
        if lhs != (mu.num.coeff(p - n) if n <= p else 0):
            return f"coefficient {n} breaks Q*series = P"
    return None


def _check_act(job: Job, rep: dict) -> Optional[str]:
    mono = [int(t) for t in job.params.get("mono", "").split(",") if t]
    if (rep["gen"], rep["r"], rep["mono"]) != (job.params["gen"], job.params["r"], sorted(mono)):
        return "generator, index or monomial not echoed"
    if job.params["gen"] == "h":
        hw = as_gl2_weights(_weight(job.params["mu"]))
        other = act_h_via_quantum_det(job.params["r"], ModuleVector.basis(monomial(mono)), hw)
        if ModuleVector.from_obj(rep["vector"]) != other:
            return "act h disagrees with the quantum-determinant route"
    return None


def _check_character(job: Job, rep: dict) -> Optional[str]:
    max_level, ds = job.params["max_level"], job.expect["d"]
    # one truncated all-ones factor per integer pair, one all-ones per other pair
    dims = [1] + [0] * max_level
    for width in ds + [max_level] * (2 - len(ds)):
        dims = [sum(dims[k - j] for j in range(min(k, width) + 1)) for k in range(max_level + 1)]
    if rep["dims"] != dims or rep["l"] != len(ds):
        return f"dims {rep['dims']} / l {rep['l']} != {dims} / {len(ds)}"
    return None


def _check_roots(job: Job, rep: dict) -> Optional[str]:
    count = job.expect["count"]
    if rep["count"] != count or len(rep["positive"]) != count:
        return f"|Phi+| {rep['count']} != {count}"
    return None


def _check_selftest(job: Job, rep: dict) -> Optional[str]:
    return None if rep.get("pass") is True else "selftest did not pass"


_CHECKS: dict[str, Callable[[Job, dict], Optional[str]]] = {
    "gram": _check_gram,
    "singular": _check_singular,
    "detect": _check_detect,
    "verdict": _check_verdict,
    "expand": _check_expand,
    "act": _check_act,
    "character": _check_character,
    "roots": _check_roots,
    "selftest": _check_selftest,
}


def check(job: Job, output: str) -> Optional[str]:
    """``None`` if ``output`` is one canonical verma/1 report that passes its oracle."""
    try:
        rep = json.loads(output)
        if output != json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n":
            return "report is not one canonical JSON line"
        if rep.get("schema") != "verma/1":
            return "missing schema tag"
        return _CHECKS[job.command](job, rep)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {exc!r}"
