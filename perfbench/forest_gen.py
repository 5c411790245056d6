"""Seeded synthetic forest for the W3 workload.

Two complete binary trees hang below Dirichlet roots at pressures 1 and
0.  Together they end in 2^k terminals whose anchors are drawn
uniformly over the unit square from the seed; every terminal couples to
the grid through a tapered radial support a few cells wide.  Only the
anchors depend on the seed, and mdflow sees nothing but the generated
inputs.
"""

from __future__ import annotations

import numpy as np

from mdflow import (
    CaseSpec,
    TransferSpec,
    build_forest,
    dirichlet_root,
    interior,
    terminal,
)

R0 = 0.01  # inner radius of the constant transfer core
R1 = 0.02  # outer radius of the taper, 2.6 cells at 1/h = 128
KT0 = 1.0
ROOT_PRESSURES = (1.0, 0.0)


def forest_lists(k: int, seed: int):
    """Node and edge lists of the two trees with 2^k terminals in total.

    Each root has one child, below which a complete binary tree of depth
    k - 1 branches to its 2^(k-1) terminals.  An edge's conductivity is
    the share of its tree's terminals downstream of it, so the flux per
    unit pressure drop is even across levels.  Anchors keep a margin of
    r1 from the walls so every support lies inside the domain.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    rng = np.random.default_rng([seed, k])
    anchors = iter(rng.uniform(R1, 1.0 - R1, size=(2**k, 2)))
    depth = k - 1
    nodes, edges = [], []
    next_id = 0
    for pressure in ROOT_PRESSURES:
        nodes.append(dirichlet_root(next_id, pressure))
        level = [next_id]
        next_id += 1
        for d in range(depth + 1):
            below = []
            for parent in level:
                for _ in range(1 if d == 0 else 2):
                    child = next_id
                    next_id += 1
                    nodes.append(terminal(child, next(anchors)) if d == depth
                                 else interior(child))
                    edges.append((parent, child, 2.0**-d))
                    below.append(child)
            level = below
    return nodes, edges


def forest_case(k: int, seed: int) -> CaseSpec:
    """The W3 case for one k: the generated forest over the unit square."""
    nodes, edges = forest_lists(k, seed)
    forest = build_forest(nodes, edges)
    transfers = tuple(
        TransferSpec(n.id, n.anchor, R0, R1, KT0) for n in forest.terminals
    )
    return CaseSpec(
        name=f"forest_k{k}",
        dim=2,
        origin=(0.0, 0.0),
        extent=(1.0, 1.0),
        refine_axes=(True, True),
        fixed_cells=(0, 0),
        forest=forest,
        kD=(1.0, 1.0),
        transfers=transfers,
        source=None,
    )
