"""Tensor-product Gauss-Legendre quadrature on Cartesian cells.

Cell data (transfer coefficients, source densities) are represented by
cell averages computed with the fourth-order base rule, ``BASE_POINTS``
= 2 Gauss points per axis.  Rules are given by their Gauss points per
axis.
"""

from __future__ import annotations

import numpy as np

BASE_POINTS = 2


def reference_rule(dim: int, npts: int):
    """Tensor-product rule of ``npts`` Gauss points per axis on [-1/2, 1/2]^dim.

    Returns (points, weights) with points of shape (npts, dim) and
    weights summing to 1, so that cell averages are plain weighted sums.
    """
    x1, w1 = np.polynomial.legendre.leggauss(npts)
    x1 = 0.5 * x1  # map [-1, 1] -> [-1/2, 1/2]
    w1 = 0.5 * w1  # unit total weight per axis
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(points.shape[0])
    for axis in range(dim):
        wg = np.meshgrid(*([w1] * dim), indexing="ij")[axis]
        weights *= wg.ravel()
    return points, weights


def composite_rule(dim: int, npts: int, subdiv: int = 1):
    """Reference rule applied on each of subdiv^dim equal subcells of the cell.

    Weights still sum to 1.  Used to resolve integrands with breaks
    (kinks, cutoffs) crossing a cell, where a single fixed-order rule
    stalls.
    """
    base_pts, base_w = reference_rule(dim, npts)
    centres = (np.arange(subdiv) + 0.5) / subdiv - 0.5
    grids = np.meshgrid(*([centres] * dim), indexing="ij")
    shifts = np.stack([g.ravel() for g in grids], axis=-1)  # (nsub, dim)
    pts = shifts[:, None, :] + base_pts[None, :, :] / subdiv
    w = np.tile(base_w, shifts.shape[0]) / shifts.shape[0]
    return pts.reshape(-1, dim), w
