"""Seeded mutation fuzzer of the plain-text case configuration.

A mutant is one of four base texts with one edit: a line deleted,
duplicated or truncated, or one number swapped for nan, inf, 1e308, 0
or -1.  The bases are `case_to_text` of cases 1A, 1B and 2 (with a 1/h
= 8 fine reference, so a run through the CLI stays small) and the
pure-Neumann config that CI runs.  Every mutant must either be rejected
with a ValueError or solve to a finite state and report.  The same
seed and count always give the same mutants, so a failing mutant is
reproduced by its index.
"""

from __future__ import annotations

import random
import re

import numpy as np

from mdflow.harness import solve_case_mesh
from mdflow.model import case1, case2, case_from_text, case_to_text
from mdflow.solver import SolverConfig

SEED = 0
VALUES = ("nan", "inf", "1e308", "0", "-1")
# a number standing alone, not the digit of a name such as r0 or case1a
NUMBER = re.compile(r"(?<![\w.+-])[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")

NEUMANN = """\
[case]
name = neumann

[grid]
dim = 2
origin = 0.0, 0.0
extent = 1.0, 1.0
refine_axes = 1, 1
fixed_cells = 0, 0

[forest]
nodes 4 trees 1
node 0 neumann
node 1 interior
node 2 terminal 0.25 0.5
node 3 terminal 0.75 0.5
edge 0 1 1.0
edge 1 2 1.0
edge 1 3 1.0

[coefficients]
kD = 1.0, 1.0
transfer = 2; r0: 0.05; r1: 0.1; kT0: 1.0
transfer = 3; r0: 0.05; r1: 0.1; kT0: 1.0
rN = 2: 1.0
rN = 3: -1.0

[reference]
kind = none
"""


def bases():
    """(text, 1/h) of each base: 8 on the 2-D grids, 4 on case 2's 4-D one."""
    return [
        (case_to_text(case1("A")), 8),
        (case_to_text(case1("B")), 8),
        (case_to_text(case2(reference_resolution=8)), 4),
        (NEUMANN, 8),
    ]


def mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines(keepends=True)
    op = rng.choice(("delete", "duplicate", "truncate", "swap"))
    if op == "swap":
        m = rng.choice(list(NUMBER.finditer(text)))
        return text[: m.start()] + rng.choice(VALUES) + text[m.end() :]
    i = rng.choice([i for i, line in enumerate(lines) if line.strip()])
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i][: rng.randrange(len(lines[i].rstrip("\n")))] + "\n"
    return "".join(lines)


def mutants(count: int, seed: int = SEED):
    """The first `count` (text, 1/h) mutants of `seed`."""
    rng = random.Random(seed)
    base = bases()
    for _ in range(count):
        text, mesh = rng.choice(base)
        yield mutate(text, rng), mesh


def solves(text: str, mesh: int) -> bool:
    """False if the mutant raises ValueError, True if it solves finitely.

    Any other exception, or a solve with a non-finite value in its state
    or report, fails with that exception or an AssertionError.
    """
    try:
        spec = case_from_text(text)
        _, state, report, _ = solve_case_mesh(spec, mesh, SolverConfig())
    except ValueError:
        return False
    values = np.concatenate([state.q, state.pD, state.pN, report.residuals,
                             [report.true_residual, report.operator_complexity]])
    assert np.all(np.isfinite(values)), f"non-finite solve of\n{text}"
    return True


def check_mutants(count: int, seed: int = SEED) -> int:
    """Check the first `count` mutants of `seed`; returns how many solved."""
    return sum(solves(text, mesh) for text, mesh in mutants(count, seed))
