"""Seeded job lists for the four benchmark workloads.

Every workload is a fixed table of size classes.  The seed picks only the
numbers inside each class (weight shifts, series coefficients, desk-mix
job order), never the shapes or their counts, so the cost of a job list
barely moves between seeds while its inputs do.  Class counts are chosen
so that the median and the 90th percentile of per-job latency fall well
inside one class, not on a boundary between two.

Generation uses only ``fractions`` and ``random``; it never imports the
program under test, so the program receives nothing but the generated
argv and JobSpec files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

WORKLOADS = ("gram-ladder", "singular-search", "rationality", "desk-mix")

# Shapes that no run includes, with the reason; every result lists them.
# The unbounded ones never finish at the commit that defined this
# benchmark; the slow ones take minutes, and a check repeats each
# workload 22 times.
EXCLUDED = (
    {"shape": "gram p=5 L=6", "why": "unbounded when this benchmark was defined: runs past 20 s"},
    {"shape": "singular level 6 degree 12", "why": "unbounded when this benchmark was defined: under size_cap yet runs past 20 s"},
    {"shape": "character with roots near 1e18", "why": "unbounded when this benchmark was defined: rational_roots trial-divides to 1e9"},
    {"shape": "expand (u+1)^200000/(u+2)^200000", "why": "unbounded when this benchmark was defined: poly_pow"},
    {"shape": "gram p=4 L=7", "why": "baseline probe, over 136 s"},
    {"shape": "detect max_order 40", "why": "baseline probe, 152 s"},
    {"shape": "gram p=3 L>=4, singular level 3", "why": "0.2-6 s each; too few passes per run for steady medians"},
)


@dataclass
class Job:
    """One CLI invocation: a command, its JobSpec parameters, and oracle facts."""

    command: str
    params: dict
    shape: str
    via_file: bool = False
    expect: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        """The equivalent subcommand argv; ``--flag=value`` keeps '-1,...' a value."""
        out = [self.command]
        for name, value in self.params.items():
            flag = "--" + name.replace("_", "-")
            for item in value if isinstance(value, list) else [value]:
                out.append(f"{flag}={item}")
        return out

    def jobspec(self) -> dict:
        return {"command": self.command, "parameters": self.params}


# -- weights ------------------------------------------------------------------


def _factor(a: Fraction) -> str:
    return f"(u+{a})" if a >= 0 else f"(u-{-a})"


def weight_text(alphas: list[Fraction], betas: list[Fraction]) -> str:
    """prod (u + a_i) / prod (u + b_i) in the CLI's rational syntax."""
    num = "".join(_factor(a) for a in alphas)
    den = "".join(_factor(b) for b in betas)
    return f"{num}/{den}" if len(betas) == 1 else f"{num}/({den})"


def _split_weight(rng: random.Random, p: int, saturated: bool) -> tuple[list, list]:
    """Shifts of a degree-p split weight with disjoint numerator/denominator roots.

    Saturated weights have nonnegative integer differences a_i - b_i, so
    the Gram rank stops growing; generic ones are offset by 1/2, so no
    difference is an integer and the Gram matrix keeps full rank.
    """
    while True:
        betas = [Fraction(b) for b in rng.sample(range(1, 10), p)]
        offset = Fraction(0) if saturated else Fraction(1, 2)
        alphas = [b + rng.randint(1, 4) + offset for b in betas]
        if len(set(alphas)) == p and not set(alphas) & set(betas):
            return alphas, betas


def _rational_tail(alphas: list[Fraction], betas: list[Fraction], n: int) -> list[Fraction]:
    """nu^(1..n) of prod (u+a_i)/(u+b_i), expanded at u = infinity."""
    out = [Fraction(1)] + [Fraction(0)] * n
    for a, b in zip(alphas, betas):
        # (u+a)/(u+b) = 1 + (a-b) sum_{k>=1} (-b)^{k-1} u^{-k}
        f = [Fraction(1)] + [(a - b) * (-b) ** (k - 1) for k in range(1, n + 1)]
        out = [sum(out[j] * f[k - j] for j in range(k + 1)) for k in range(n + 1)]
    return out[1:]


def _nonrational_tail(rng: random.Random, kind: int, n: int) -> list[Fraction]:
    """Tails of exp(c/u), (1 - c/u)^(1/2) and (u/c) log(1 + c/u): none is rational."""
    c = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
    if kind == 0:
        return [c**k / math.factorial(k) for k in range(1, n + 1)]
    if kind == 1:
        out, coef = [], Fraction(1)
        for k in range(1, n + 1):
            coef = coef * (Fraction(1, 2) - (k - 1)) / k
            out.append(coef * (-c) ** k)
        return out
    return [(-c) ** k / (k + 1) for k in range(1, n + 1)]


def _series_text(tail: list[Fraction]) -> str:
    return "series:" + ",".join(str(x) for x in tail)


def _frac_list(xs: list[Fraction]) -> list[str]:
    return [str(x) for x in xs]


# -- workloads ----------------------------------------------------------------

# (count, degree p, levels cycled through)
GRAM_CLASSES = ((52, 1, (8, 9, 10, 11, 12)), (32, 2, (4,)), (16, 3, (3,)), (20, 2, (6,)))


def gram_ladder(rng: random.Random) -> list[Job]:
    jobs = []
    for count, p, levels in GRAM_CLASSES:
        for i in range(count):
            saturated = i % 2 == 0
            alphas, betas = _split_weight(rng, p, saturated)
            level = levels[i % len(levels)]
            jobs.append(
                Job(
                    "gram",
                    {"mu": weight_text(alphas, betas), "max_level": level},
                    shape=f"p{p}-L{level}-{'sat' if saturated else 'gen'}",
                    expect={"p": p},
                )
            )
    return jobs


SINGULAR_KINDS = ("rat1", "rat2", "ser-rat", "ser-exp")
# (count, level, degree bounds cycled through, weight kinds cycled through)
SINGULAR_CLASSES = (
    (48, 1, (3, 4), (0, 1, 2, 3)),
    (46, 1, (5, 6), (0, 1, 2, 3)),
    (24, 2, (3,), (0, 1, 2, 3)),
    (2, 2, (4,), (0, 1)),
)


def singular_search(rng: random.Random) -> list[Job]:
    """Rational weights of degree 1 and 2, and series weights, in fixed turns.

    Degree-1 rational weights and expansions of them have singular vectors
    at level 1 for every degree bound >= 1; degree-2 weights at level 2
    and the non-rational series mostly have an empty kernel, which ends
    the search after its first round.
    """
    jobs = []
    for count, level, degrees, kinds in SINGULAR_CLASSES:
        for i in range(count):
            kind = kinds[i % len(kinds)]
            degree = degrees[i // len(kinds) % len(degrees)]
            expect: dict = {}
            if kind in (0, 1):
                p = kind + 1
                alphas, betas = _split_weight(rng, p, saturated=i // 4 % 2 == 0)
                mu = weight_text(alphas, betas)
                expect = {"rational": True, "p": p}
            elif kind == 2:
                alphas, betas = _split_weight(rng, 1, saturated=True)
                mu = _series_text(_rational_tail(alphas, betas, 40))
            else:
                mu = _series_text(_nonrational_tail(rng, rng.randrange(3), 40))
            jobs.append(
                Job(
                    "singular",
                    {"mu": mu, "level": level, "degree": degree},
                    shape=f"L{level}-d{degree}-{SINGULAR_KINDS[kind]}",
                    expect=expect,
                )
            )
    return jobs


def _rational_shifts(rng: random.Random, degree: int) -> tuple[list, list]:
    while True:
        alphas = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(degree)]
        betas = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(degree)]
        if len(set(alphas)) == degree and not set(alphas) & set(betas):
            return alphas, betas


# (count, kind, command, rational degrees cycled, max_orders cycled)
RATIONALITY_CLASSES = (
    (20, "early", "verdict", (1,), (6,)),
    (20, "early", "detect", (1,), (8, 12, 16)),
    (40, "early", "detect", (2,), (12,)),
    (16, "prefix", "detect", (3, 4), (10,)),
    (4, "early", "detect", (5, 6, 7, 8), (10,)),
    (12, "nonrational", "detect", (0,), (10,)),
    (8, "nonrational", "verdict", (0,), (8,)),
)


def rationality(rng: random.Random) -> list[Job]:
    """Tails of three kinds: rational, rational after an altered prefix, non-rational."""
    jobs = []
    for count, kind, command, degrees, max_orders in RATIONALITY_CLASSES:
        for i in range(count):
            max_order = max_orders[i % len(max_orders)]
            n = 2 * max_order + 2
            degree = degrees[i % len(degrees)]
            if kind == "nonrational":
                tail = _nonrational_tail(rng, i % 3, n)
            else:
                tail = _rational_tail(*_rational_shifts(rng, degree), n)
                if kind == "prefix":
                    tail[0] += rng.choice([1, -1, 2])
                    tail[1] += rng.choice([1, -1, Fraction(1, 2)])
            if command == "detect":
                params = {"coeffs": ",".join(_frac_list(tail)), "max_order": max_order}
            else:
                params = {"mu": [_series_text(tail)], "budget": max_order}
            jobs.append(
                Job(
                    command,
                    params,
                    shape=f"{command}-{kind}-deg{degree}-m{max_order}",
                    expect={"rational": kind != "nonrational", "tail": _frac_list(tail)},
                )
            )
    return jobs


POSITIVE_ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "B3": 9, "B4": 16, "C3": 9,
    "C4": 16, "D4": 12, "D5": 20, "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
}
# Matrices given as JSON rather than labels, with their |Phi+|.
CARTAN_MATRICES = (
    ([[2, -1], [-1, 2]], 3),
    ([[2, -2], [-1, 2]], 4),
    ([[2, -1], [-3, 2]], 6),
    ([[2, -1, 0], [-2, 2, -1], [0, -1, 2]], 9),
)
SYMMETRIZERS = {"A1": [1], "A2": [1, 1], "B2": [2, 1], "C2": [1, 2], "G2": [3, 1], "A3": [1, 1, 1]}
ACT_GENERATORS = ("t11", "t12", "t21", "t22", "e", "f", "h", "qdet")
ACT_MONOS = ("", "1", "2", "1,2", "1,1,2", "2,3")


def desk_mix(rng: random.Random) -> list[Job]:
    """Fixed slots of every small command; the seed picks weights and job order."""
    jobs = []
    for i in range(24):
        alphas, betas = _rational_shifts(rng, 1 + i % 3)
        jobs.append(Job("expand", {"mu": weight_text(alphas, betas), "order": 20 + (2 * i) % 41},
                        shape=f"expand-deg{1 + i % 3}"))
    for i in range(40):
        gen = ACT_GENERATORS[i % 8]
        if i // 8 % 2 == 0:
            alphas, betas = _rational_shifts(rng, 1 + i // 16 % 2)
            mu = weight_text(alphas, betas)
        else:
            mu = _series_text([Fraction(rng.randint(-5, 5), rng.choice([1, 2])) for _ in range(16)])
        params = {"mu": mu, "gen": gen, "r": i % 5}
        mono = ACT_MONOS[i % len(ACT_MONOS)]
        if mono:
            params["mono"] = mono
        jobs.append(Job("act", params, shape=f"act-{gen}"))
    for i in range(16):
        # numerator roots offset from the denominator's by fixed fractional
        # parts, so the integer-difference pairs are exactly the chosen ones;
        # rational_roots trial-divides, so root sizes stay in narrow bands
        big = rng.randint(999_000, 10**6)
        d = [rng.randint(1, 6) if i % 2 == 0 else None, rng.randint(2, 6)]
        betas = [Fraction(big), Fraction(30 + rng.choice([1, 2]), 3)]
        alphas = [betas[0] + (d[0] if d[0] is not None else Fraction(1, 2)), betas[1] + d[1]]
        jobs.append(
            Job(
                "character",
                {"mu": weight_text(alphas, betas), "max_level": 10 + i % 11},
                shape="character",
                expect={"d": [x for x in d if x is not None]},
            )
        )
    for label, count in POSITIVE_ROOT_COUNTS.items():
        jobs.append(Job("roots", {"cartan": label}, shape="roots-label", expect={"count": count}))
    for matrix, count in CARTAN_MATRICES:
        jobs.append(Job("roots", {"cartan": json.dumps(matrix, separators=(",", ":"))},
                        shape="roots-matrix", expect={"count": count}))
    for i in range(16):
        label = list(SYMMETRIZERS)[i % len(SYMMETRIZERS)]
        ds = SYMMETRIZERS[label]
        mus, finite = [], True
        for d in ds:
            c = rng.randint(1, 9)
            step = d if rng.random() < 0.6 else d + rng.randint(1, 2)
            finite = finite and step == d
            mus.append(f"(u+{c + step})/(u+{c})")
        jobs.append(Job("verdict", {"mu": mus, "budget": 4, "cartan": label}, shape="verdict",
                        expect={"finite": finite, "d": ds}))
    # selftest cost moves by a third between its seeds, so its seeds stay fixed
    for k in range(4):
        jobs.append(Job("selftest", {"seed": k}, shape="selftest"))
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job.via_file = i % 4 == 3
    return jobs


_GENERATORS: dict[str, Callable[[random.Random], list[Job]]] = {
    "gram-ladder": gram_ladder,
    "singular-search": singular_search,
    "rationality": rationality,
    "desk-mix": desk_mix,
}


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; a pure function of (workload, seed)."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
