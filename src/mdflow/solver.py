"""Aggregation-based algebraic multigrid and a flexible CG driver.

The pressure systems are Poisson-like (a cell Laplacian coupled to a
graph Laplacian), so one multigrid cycle of unsmoothed aggregation AMG
with a single l1-Jacobi sweep for pre- and post-smoothing makes an
effective preconditioner.  Coarse spaces are piecewise constant over
aggregates built by greedy pairwise matching on the strength graph
(|a_ij| >= THETA sqrt(a_ii a_jj)), composed over NPASSES = 2 passes
per level, so aggregates reach size ~4, and over three on a level
whose strength graph averages more than DENSE_DEGREE = 5 strong
neighbours per row, so case 2's 4-D grid gets aggregates of ~8 while
every 2-D level keeps its pairs of pairs; leftovers join their
strongest aggregated neighbor.
The matching is exactly the paper's lexicographic greedy scan, computed
by numpy: Jacobi sweeps of the greedy rule converge to it from any
start, since each decision depends only on those below it; a candidate
built from row maxima is already the answer on the studies' grids, and
once the sweeps have read MATCH_SWEEPS times the strength graph's
entries the scan itself finishes whatever is left (see _match_pass).
The strength test, the matching and the smoother's row sums read the
operator through one walker, _row_blocks, in blocks of whole rows
holding about STRENGTH_BLOCK entries, each block's columns and values
in place, so beside the strength graph they hold arrays of length n
and one block's temporaries.
Each pass's Galerkin coarse operator P' A P is summed in blocks of
coarse rows whose members hold about STRENGTH_BLOCK of A's entries,
each entry added in the order the whole product adds it, so it has the
product's bits and no temporary of A's length (see _galerkin).
The symmetry check reads the finest A against one CSC copy of it,
whose arrays are those of A^T in CSR.
Levels keep only the aggregate map: restriction sums the residual over
each aggregate and prolongation copies each coarse value to its members.
Everything is deterministic: aggregation seeds scan unknowns in their
natural (lexicographic) order.

The smoother is l1-Jacobi (Baker, Falgout, Kolev & Yang, SISC 33, 2011)
with D_ii = sum_j |a_ij| on every level: the down sweep from zero is
x = D^{-1} b and the up sweep x + D^{-1} (b - A x).  2 D - A is
diagonally dominant, so the sweep converges for any symmetric positive
definite A without a damping weight, and a level holds only D^{-1}, no
factor.  Weighting the off-diagonal sum by 1/2 or 3/4 saves iterations
but breaks the K-cycle on a rank-one coarse level: its correction
grows, and at 3/4 a rounding-level energy passes a rho1 <= 0 guard,
so the K-cycle's guards weigh energies against rounding instead (see
_krylov_correction).

The setup depends on the matrix alone: the strength threshold THETA
and the dense-solve size COARSE_SIZE are constants, the values every
study uses, and so is the pass count's rule.  The cycle is chosen where
it is applied: the paper's V(1,1) or, by default, the K-cycle of Notay &
Vassilevski (Numer. Linear Algebra Appl. 15, 2008) that Notay pairs
with this double pairwise aggregation (ETNA 37, 2010): on each coarse
level above the dense one the coarse system is solved by up to two
flexible CG steps, each preconditioned by the cycle on that level.
Both cycles run on the same levels.  Plain aggregation alone lets
iteration counts grow under refinement; the K-cycle holds them nearly
flat.

The outer iteration is truncated flexible CG, FCG(1): both cycles are
symmetric preconditioners (the same D down and up), so it holds a fixed
handful of vectors whatever its iteration count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# converged: true relative residual <= CONVERGED_SLACK * tol (see SolveReport)
CONVERGED_SLACK = 10.0

# strength threshold: a_ij couples i and j if |a_ij| >= THETA sqrt(a_ii a_jj)
THETA = 0.08
# pairwise matching passes per level, one more on a level whose strength
# graph averages more than DENSE_DEGREE strong neighbours per row:
# aggregates of ~4 unknowns on 2-D grids (at most 4 strong neighbours a
# row), ~8 on case 2's 4-D grid (5.4-5.9 on its finer levels)
NPASSES = 2
DENSE_DEGREE = 5
# entries per block of rows that _row_blocks yields to the strength
# test, the matching and the smoother's row sums, and of the fine rows
# behind each block of coarse rows that _galerkin forms
STRENGTH_BLOCK = 1 << 18
# work of the Jacobi sweeps of the greedy matching, in multiples of the
# strength graph's entries read, before the scan finishes it (see
# _match_pass)
MATCH_SWEEPS = 4
MAX_LEVELS = 30
# a level of at most COARSE_SIZE unknowns is solved by a dense factorization
COARSE_SIZE = 32
# K-cycle: the coarse residual reduction after the first flexible-CG
# step that makes the second unnecessary
KCYCLE_TOL = 0.25
CYCLES = ("V", "K")


def _check_cycle(cycle):
    if cycle not in CYCLES:
        raise ValueError(f"unknown cycle {cycle!r}: expected one of {CYCLES}")


@dataclass
class SolverConfig:
    tol: float = 1e-6
    maxit: int = 500
    cycle: str = "K"  # "V": the paper's V(1,1); "K": the K-cycle

    def __post_init__(self):
        _check_cycle(self.cycle)
        if not (np.isfinite(self.tol) and self.tol > 0) or self.maxit < 1:
            raise ValueError(f"need a finite tol > 0 and maxit >= 1, "
                             f"got tol={self.tol}, maxit={self.maxit}")


class _Level:
    """One multigrid level: operator, l1-Jacobi smoother, optional aggregates."""

    def __init__(self, A: sp.csr_matrix):
        self.A = A
        self.aggregates = None  # fine index -> coarse index (the transfer)
        d = A.diagonal()
        bad = np.flatnonzero(d <= 0)
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"non-positive diagonal in row {i}: a_ii = {d[i]:g}; "
                "the l1-Jacobi smoother needs a_ii > 0"
            )
        l1 = _l1_row_sums(A)
        self._inv_l1 = 1.0 / l1  # D^{-1}
        self._l1_max = l1.max()  # the K-cycle's scale of rounding
        self._dense = None  # (eigenvectors, inverse eigenvalues, 0 on the kernel)

    def smooth_down(self, b):
        """Down sweep from zero: D^{-1} b."""
        return b * self._inv_l1

    def smooth_up(self, b, x):
        """Up sweep from x: x + D^{-1} (b - A x)."""
        r = self.A @ x
        np.subtract(b, r, out=r)
        r *= self._inv_l1
        r += x
        return r

    def factor_dense(self):
        lam, V = np.linalg.eigh(self.A.toarray())
        # relative to the largest: A > 0 on the diagonal makes it positive,
        # and the kept modes must not depend on the operator's scale
        cutoff = 1e-12 * lam.max()
        inv = np.where(lam > cutoff, 1.0 / np.where(lam > cutoff, lam, 1.0), 0.0)
        self._dense = (V, inv)

    def coarse_solve(self, b):
        V, inv = self._dense
        return V @ (inv * (V.T @ b))


@dataclass
class AmgHierarchy:
    levels: list

    @property
    def nlevels(self):
        return len(self.levels)

    @property
    def grid_complexity(self):
        """Unknowns on all levels over those on the finest."""
        return sum(l.A.shape[0] for l in self.levels) / self.levels[0].A.shape[0]

    @property
    def operator_complexity(self):
        """Nonzeros on all levels over those on the finest."""
        return sum(l.A.nnz for l in self.levels) / self.levels[0].A.nnz


def _block_end(ptr, r0, r1):
    """End of the block of rows from r0 (before r1) holding about
    STRENGTH_BLOCK entries, row r's entries counted by ptr[r + 1] -
    ptr[r]; a row holding more is a block of its own."""
    b = int(np.searchsorted(ptr, ptr[r0] + STRENGTH_BLOCK, side="right")) - 1
    return min(max(b, r0 + 1), r1)


def _row_blocks(M: sp.csr_matrix, r0=0, r1=None):
    """M's rows r0 to r1 - 1 (to the last by default) in blocks of whole rows.

    Yields (a, b, rows, cols, vals) for each block of rows a to b - 1:
    the row of each of its entries (int32), and their columns and values
    as views of M.indices and M.data.  A block holds about
    STRENGTH_BLOCK entries; a row longer than that is a block of its
    own.  The generator keeps no reference to what it yielded, so a
    caller can free a block's arrays before it asks for the next.
    """
    indptr = M.indptr
    r1 = M.shape[0] if r1 is None else r1
    while r0 < r1:
        b = _block_end(indptr, r0, r1)
        e0, e1 = indptr[r0], indptr[b]
        yield (r0, b, np.repeat(np.arange(r0, b, dtype=np.int32), np.diff(indptr[r0 : b + 1])),
               M.indices[e0:e1], M.data[e0:e1])
        r0 = b


def _l1_row_sums(A: sp.csr_matrix) -> np.ndarray:
    """sum_j |a_ij| for each row, over blocks of rows (see _row_blocks).

    Each row is summed in its entries' order, without abs(A)'s copy of
    A.  A sum that overflows or is NaN raises ValueError naming its row.
    """
    d = np.empty(A.shape[0])
    for r0, r1, rows, _, vals in _row_blocks(A):
        d[r0:r1] = np.bincount(rows - r0, np.abs(vals),
                               minlength=r1 - r0)  # inf on overflow, without a warning
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        i = bad[0]
        raise ValueError(f"row {i} has a non-finite l1 norm: sum_j |a_ij| = {d[i]}")
    return d


def _strength_graph(A: sp.csr_matrix) -> sp.csr_matrix:
    """Off-diagonal entries passing |a_ij| >= THETA sqrt(a_ii a_jj), as |a_ij|.

    The test runs over blocks of rows (see _row_blocks), so of A's
    length only a mask of the entries kept is held; the kept entries
    are then gathered once, and each row's count of them is made into
    the row pointer by one cumulative sum.  An entry whose threshold
    overflows to inf is weak, and an entry of zero is dropped.
    """
    indptr = A.indptr
    d = np.abs(A.diagonal())
    keep = np.empty(A.nnz, dtype=bool)
    out_ptr = np.zeros(A.shape[0] + 1, dtype=indptr.dtype)
    for r0, r1, rows, cols, vals in _row_blocks(A):
        t = np.repeat(d[r0:r1], np.diff(indptr[r0 : r1 + 1]))
        with np.errstate(over="ignore"):
            t *= d[cols]
        np.sqrt(t, out=t)
        t *= THETA
        a = np.abs(vals)
        weak = np.less(a, t, out=keep[indptr[r0] : indptr[r1]])
        del t
        weak |= a == 0
        del a
        weak |= rows == cols
        strong = np.logical_not(weak, out=weak)
        out_ptr[r0 + 1 : r1 + 1] = np.bincount(rows[strong] - r0, minlength=r1 - r0)
    np.cumsum(out_ptr, out=out_ptr)
    data = A.data[keep]
    np.abs(data, out=data)
    S = sp.csr_matrix((data, A.indices[keep], out_ptr), shape=A.shape)
    del keep
    S.sort_indices()
    return S


def _run_starts(r: np.ndarray) -> np.ndarray:
    """Positions where a new value starts in the grouped array r."""
    new = np.empty(r.size, dtype=bool)
    new[:1] = True
    np.not_equal(r[1:], r[:-1], out=new[1:])
    return np.flatnonzero(new)


def _at_row_max(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask of the positive entries of w equal to their row's maximum.

    rows, grouped, holds the row of each entry of w.  NaN is never a
    maximum, as in a scan testing w > best.
    """
    starts = _run_starts(rows)
    hit = w == np.repeat(np.fmax.reduceat(w, starts), np.diff(starts, append=w.size))
    hit &= w > 0
    return hit


def _claims(choice: np.ndarray) -> np.ndarray:
    """The smallest unknown choosing each unknown (n if none)."""
    n = choice.size
    claim = np.full(n, n, dtype=np.int32)
    i = np.flatnonzero(choice >= 0).astype(np.int32)
    np.minimum.at(claim, choice[i], i)
    return claim


def _candidate(S: sp.csr_matrix):
    """Stage 1 of _match_pass, block by block.

    Returns each row's first heaviest neighbor (-1 if none) and the
    candidate's choices (a seed's partner, -1 elsewhere).  Each row
    points to its heaviest neighbor ranked by the uint32 key
    2 d + parity, one per row: (d, parity) pins the neighbor.
    """
    n = S.shape[0]
    heaviest = np.full(n, -1, dtype=np.int32)
    point = np.full(n, -1, dtype=np.int32)
    for _, _, rows, c, w in _row_blocks(S):
        top = _at_row_max(w, rows)
        r, k = rows[top], c[top]
        del rows, top
        starts = _run_starts(r)
        rs = r[starts]
        heaviest[rs] = k[starts]
        parity = np.minimum(r, k).view(np.uint32)
        r -= k  # the key takes r's place: ties hold three arrays, not four
        key = np.abs(r, out=r).view(np.uint32)
        del r
        parity //= key
        parity &= 1
        key <<= 1
        key |= parity
        del parity
        best = key == np.repeat(np.minimum.reduceat(key, starts), np.diff(starts, append=key.size))
        del key
        best = np.flatnonzero(best)  # one per row, more only where S repeats an entry
        point[rs[np.searchsorted(starts, best, side="right") - 1]] = k[best]
        del k, starts, rs, best  # before the next block's
    seeds = np.flatnonzero(point > np.arange(n))
    seeds = seeds[point[point[seeds]] == seeds]
    choice = np.full(n, -1, dtype=np.int32)
    choice[seeds] = point[seeds]
    return heaviest, choice


def _sweep(S: sp.csr_matrix, choice: np.ndarray, settled: int):
    """One Jacobi sweep (_match_pass's stage 2) over rows settled to n - 1.

    choice is updated in place; every block reads the claims of the
    choices made before the sweep.
    Returns the first row whose choice changed (n if none).
    """
    n = S.shape[0]
    claim = _claims(choice)
    moved = n
    for r0, r1, r, k, wt in _row_blocks(S, settled):
        upper = k > r
        r, k, wt = r[upper], k[upper], wt[upper]
        del upper
        usable = claim[r] > r
        usable &= claim[k] >= r
        wt[~usable] = 0.0
        del usable
        hit = np.flatnonzero(_at_row_max(wt, r))
        del wt
        hit = hit[_run_starts(r[hit])]
        new = np.full(r1 - r0, -1, dtype=np.int32)
        new[r[hit] - r0] = k[hit]
        if moved == n:
            change = np.flatnonzero(new != choice[r0:r1])
            moved = r0 + int(change[0]) if change.size else n
        choice[r0:r1] = new
        del r, k, hit, new  # before the next block's
    return moved


def _match_pass(S: sp.csr_matrix):
    """One greedy pairwise matching sweep in natural order.

    S is a strength graph (no diagonal).  Returns the fine-to-coarse
    map, or None if nothing aggregated.  The map is that of the
    lexicographic scan: each unknown still free at its turn pairs with
    its strongest free neighbor (the first in column order on ties),
    pairs numbered by their seed; then every unmatched unknown with an
    aggregated neighbor joins the strongest such aggregate, and isolated
    unknowns become singletons numbered after the pairs.  It is computed
    without a loop over unknowns:

    1. Candidate: each row points to its heaviest neighbor, ties going
       to the smallest index distance d, then to the pair whose
       min(i, j) // d is even (which pins the neighbor, as i - d and
       i + d differ in that parity); mutual pointers pair.  On the
       studies' grids this is already the scan's matching.
    2. Jacobi sweeps of the scan's rule from the candidate.  A free
       unknown has only matched neighbors below it, so upper edges
       suffice: claim[j] is the smallest seed choosing j, i is a seed
       iff nobody claims it, and edge (i, j > i) is usable iff
       claim[j] >= i; each seed takes its first usable maximum.  A
       decision depends only on decisions below it, so the scan's
       matching is the unique fixpoint whatever the start, the unknowns
       up to the first one a sweep changes are final, and later sweeps
       skip them.
    3. Fallback.  Once the sweeps have read MATCH_SWEEPS times S's
       entries (a sweep reads every entry of the rows it sweeps), the
       scan itself finishes from the first unsettled unknown.  A path
       graded so each unknown prefers the next needs a sweep per
       unknown, grids with rows of odd length defeat the candidate's
       parity, and lexicographically first maximal matching is
       P-complete in general (Anderson & Mayr, 1987).  The scan also
       takes over below the first seed with an unmatched lower
       neighbor, which the sweeps do not see and only an unsymmetric
       pattern produces.
    4. Leftovers: unmatched unknowns are then independent (two adjacent
       ones would have paired), so every neighbor of one is aggregated
       and it joins its row's first maximum.

    Stages 1-3 read S's sorted rows in place through _row_blocks, in
    blocks of whole rows of about STRENGTH_BLOCK entries.  Every block
    of a sweep reads the claims made before the sweep, so blocking moves
    no decision.  Beside S the pass holds arrays of length n and one
    block's temporaries, none of S's length.
    """
    n = S.shape[0]
    indptr, cols, w = S.indptr, S.indices, S.data
    # the map is allocated before any block's temporaries: freed, they
    # join the heap's top instead of a hole under it that later
    # allocations fit badly (case 2 1/h=32 setup peak 3.2 -> 2.9x A)
    agg = np.full(n, -1, dtype=np.int64)
    heaviest, choice = _candidate(S)
    # Jacobi sweeps; choices below `settled` are final
    settled, budget = 0, MATCH_SWEEPS * S.nnz
    while True:
        moved = _sweep(S, choice, settled)
        if moved == n:
            settled = n
            break
        budget -= S.nnz - int(indptr[settled])
        settled = moved + 1
        if budget <= 0:
            break

    seeds = np.flatnonzero(choice[:settled] >= 0)
    free = np.ones(n, dtype=bool)
    free[seeds] = free[choice[seeds]] = False
    # a seed (unmatched, or paired by its own choice) with an unmatched
    # lower neighbor: build_hierarchy admits a_ij != a_ji up to rounding,
    # so the strength threshold can keep one of the two and not the other
    for _, _, row, c, _ in _row_blocks(S, 0, settled):
        bad = row[free[c] & (c < row)]
        bad = bad[free[bad] | (choice[bad] >= 0)]
        if bad.size:
            settled = int(bad[0])
            seeds = seeds[seeds < settled]
            break
    agg[seeds] = agg[choice[seeds]] = np.arange(seeds.size)
    n_agg = seeds.size
    for i in range(settled, n):  # the scan, where the sweeps stopped
        if agg[i] >= 0:
            continue
        pick, pick_w = -1, 0.0
        for pos in range(indptr[i], indptr[i + 1]):
            j = cols[pos]
            if agg[j] < 0 and w[pos] > pick_w:
                pick, pick_w = j, w[pos]
        if pick >= 0:
            agg[i] = agg[pick] = n_agg
            n_agg += 1
    if n_agg == 0:
        return None

    left = np.flatnonzero(agg < 0)
    join = heaviest[left]
    agg[left[join >= 0]] = agg[join[join >= 0]]
    lone = left[join < 0]
    agg[lone] = n_agg + np.arange(lone.size)
    return agg


def _galerkin(A: sp.csr_matrix, agg: np.ndarray) -> sp.csr_matrix:
    """P' A P, P the 0/1 map of agg (p_ij = 1 iff agg[i] = j), in CSR.

    Coarse rows are formed in blocks whose aggregates' members hold
    about STRENGTH_BLOCK of A's entries (an aggregate holding more is a
    block of its own): a block is R (A[members] P), its members listed
    in ascending fine index and R their 0/1 restriction.  Each scipy
    product sums an entry in its rows' order, so entry (c, d) is summed
    over row i's entries in order, then over c's members ascending: the
    bits of ((A P)' P)', whose exact zeros it drops alike.  The blocks
    are joined once, so beside A and Ac the product holds P, arrays of
    length n and one block's temporaries.  An A that is one block is
    formed as R (A P) over its rows in place: a gathered copy of it
    raised the case 2 1/h=32 setup's peak from 2.11 to 2.22-2.35 x A.
    """
    n = A.shape[0]
    nc = int(agg.max()) + 1
    P = sp.csr_matrix((np.ones(n), agg, np.arange(n + 1)), shape=(n, nc))
    members = np.argsort(agg, kind="stable")
    first = np.zeros(nc + 1, dtype=np.int64)  # aggregate c's members: first[c] to first[c + 1]
    np.cumsum(np.bincount(agg, minlength=nc), out=first[1:])
    if A.nnz <= STRENGTH_BLOCK:
        Ac = sp.csr_matrix((np.ones(n), members, first), shape=(nc, n)) @ (A @ P)
        Ac.sort_indices()
        return Ac
    held = np.zeros(nc + 1)  # A's entries in the rows of aggregates before c
    np.cumsum(np.bincount(agg, np.diff(A.indptr), minlength=nc), out=held[1:])
    blocks = []
    c0 = 0
    while c0 < nc:
        c1 = _block_end(held, c0, nc)
        m0, m1 = first[c0], first[c1]
        R = sp.csr_matrix((np.ones(m1 - m0), np.arange(m1 - m0), first[c0 : c1 + 1] - m0),
                          shape=(c1 - c0, m1 - m0))
        blocks.append(R @ (A[members[m0:m1]] @ P))
        c0 = c1
    del P, members, first, held  # before the join, which holds Ac twice
    Ac = sp.vstack(blocks, format="csr")
    Ac.sort_indices()
    return Ac


def _aggregate(A: sp.csr_matrix):
    """Compose pairwise passes into one level's aggregation map.

    A level whose strength graph averages more than DENSE_DEGREE strong
    neighbours per row takes NPASSES + 1 passes, any other NPASSES.
    Returns (agg, Ac): the fine-to-coarse map, or None if nothing
    aggregated, and the Galerkin coarse operator the passes formed.
    """
    agg = None
    Ac = A
    S = _strength_graph(A)
    passes = NPASSES + 1 if S.nnz > DENSE_DEGREE * A.shape[0] else NPASSES
    for p in range(passes):
        if p:
            S = _strength_graph(Ac)
        sub = _match_pass(S)
        del S
        if sub is None:
            break
        agg = sub if agg is None else sub[agg]
        # P' A P summed in blocks of coarse rows, with the bits of the
        # whole product ((A P)' P)' and no temporary of A P's length
        Ac = _galerkin(Ac, sub)
        if Ac.shape[0] <= COARSE_SIZE:
            break
    return agg, Ac


def _asymmetry(A):
    """max |a_ij - a_ji|, the value abs(A - A.T).max() takes.

    A's CSC arrays are those of A^T in CSR.  When A is canonical and
    its CSC copy has A's indptr and indices, the pattern is symmetric
    and the copy's data, less A's, are a_ji - a_ij entry for entry;
    any other A falls back to forming A - A.T.
    """
    if A.has_canonical_format:
        T = A.tocsc()
        if np.array_equal(T.indptr, A.indptr) and np.array_equal(T.indices, A.indices):
            T.data -= A.data
            return np.abs(T.data, out=T.data).max(initial=0.0)
        del T
    return abs(A - A.T).max()


def _largest_entry(A):
    """max |a_ij|, the value abs(A).max() takes, from the extremes of
    A.data without abs(A)'s copy of A's three arrays."""
    return max(A.data.max(initial=0.0), -A.data.min(initial=0.0))


def build_hierarchy(A) -> AmgHierarchy:
    """Set up the unsmoothed-aggregation hierarchy for a symmetric operator.

    Coarsening stops at COARSE_SIZE unknowns (then solved by a dense
    kernel-aware eigendecomposition), and a matrix already that small
    is solved by the dense factorization alone.  It also stops at the
    first level whose aggregation keeps more than 95% of its unknowns
    or where nothing aggregates (e.g. a diagonal matrix, for which
    l1-Jacobi is exact anyway): that level is the coarsest and gets the
    two smoothing sweeps alone.  A matrix with a NaN or infinite entry
    is rejected, naming the first one in row order, and so is a
    nonsymmetric one: flexible CG needs a symmetric A.
    """
    A = sp.csr_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"non-square input {A.shape}")
    # NaN compares false in the symmetry and diagonal checks below
    bad = np.flatnonzero(~np.isfinite(A.data))
    if bad.size:
        rows = np.searchsorted(A.indptr, bad, side="right") - 1
        first = np.lexsort((A.indices[bad], rows))[0]
        raise ValueError(
            f"non-finite entry in row {rows[first]}, column "
            f"{A.indices[bad[first]]}: a_ij = {A.data[bad[first]]}"
        )
    if _asymmetry(A) > 1e-12 * _largest_entry(A):
        raise ValueError(
            "matrix is not symmetric: flexible CG and its symmetric "
            "multigrid preconditioner need a symmetric A"
        )
    levels = [_Level(A)]
    while levels[-1].A.shape[0] > COARSE_SIZE and len(levels) < MAX_LEVELS:
        fine = levels[-1]
        agg, Ac = _aggregate(fine.A)
        # nothing aggregated (Ac is A), or too little to be worth a level
        if Ac.shape[0] > 0.95 * fine.A.shape[0]:
            break
        if np.any(Ac.diagonal() <= 0):
            break
        fine.aggregates = agg
        levels.append(_Level(Ac))
    if levels[-1].A.shape[0] <= COARSE_SIZE:
        levels[-1].factor_dense()
    return AmgHierarchy(levels=levels)


def vcycle(hierarchy: AmgHierarchy, b: np.ndarray, *, cycle: str = "K"):
    """One multigrid cycle of kind ``cycle`` on A x = b from x = 0.

    l1-Jacobi down and up (see _Level); in the "K"-cycle each coarse
    correction above the dense level is Krylov-accelerated, the "V"-cycle
    takes it as it comes.  Any other ``cycle`` raises ValueError.
    """
    _check_cycle(cycle)
    return _cycle(hierarchy.levels, 0, b, cycle == "K")


def _cycle(levels, l, b, kcycle):
    """Cycle on level l from zero; the V-cycle is the K-cycle without Krylov steps."""
    lev = levels[l]
    if lev._dense is not None:
        return lev.coarse_solve(b)
    x = lev.smooth_down(b)
    if l + 1 < len(levels):
        coarse = levels[l + 1]
        r = lev.A @ x
        np.subtract(b, r, out=r)
        rc = np.bincount(lev.aggregates, r, minlength=coarse.A.shape[0])
        del r
        ec = _cycle(levels, l + 1, rc, kcycle)
        if kcycle and coarse._dense is None:
            ec = _krylov_correction(levels, l + 1, rc, ec)
        x += ec[lev.aggregates]
    return lev.smooth_up(b, x)


def _krylov_correction(levels, l, r, c1):
    """Up to two flexible-CG steps on A_l x = r from c1 = B r (B: the cycle).

    Notay, ETNA 37 (2010): the first step scales c1; unless that already
    cuts the residual below KCYCLE_TOL of its start, a second direction
    c2 = B r2 is made A-orthogonal to c1.  On semidefinite coarse
    operators (pure-Neumann components) a direction can carry no energy
    beyond rounding, taken relative to D = max_i D_ii, the level's
    largest l1 row sum: with rho1 <= 1e-12 D |c1|^2 the plain correction
    c1 is returned, with rho2 <= 1e-12 max(c2 . A c2, D |c2|^2) the
    one-step correction.
    """
    A, D = levels[l].A, levels[l]._l1_max
    v1 = A @ c1
    rho1 = c1 @ v1
    if rho1 <= 1e-12 * D * (c1 @ c1):
        return c1
    a1 = (c1 @ r) / rho1
    r2 = r - a1 * v1
    if np.linalg.norm(r2) <= KCYCLE_TOL * np.linalg.norm(r):
        return a1 * c1
    c2 = _cycle(levels, l, r2, True)
    v2 = A @ c2
    gamma = c2 @ v1
    energy = c2 @ v2
    rho2 = energy - gamma * gamma / rho1
    if rho2 <= 1e-12 * max(energy, D * (c2 @ c2)):
        return a1 * c1
    a2 = (c2 @ r2) / rho2
    return (a1 - gamma * a2 / rho1) * c1 + a2 * c2


@dataclass
class SolveReport:
    """Iteration counts, residual history, hierarchy metrics, and timings.

    ``converged`` holds when ``true_residual``, |b - A x| / |b| recomputed
    from the returned x, is at most ``CONVERGED_SLACK * tol`` (10 tol):
    flexible CG stops when its recursively updated residual reaches tol,
    and at the float64 floor rounding can leave the true residual above
    tol.
    """

    iterations: int
    residuals: tuple  # relative residual history, starts at 1.0
    converged: bool
    tol: float
    true_residual: float
    dof: int
    nlevels: int = 1
    grid_complexity: float = 1.0
    operator_complexity: float = 1.0
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    breakdown: int | None = None

    CSV_HEADER = "inv_h,nlevel,grid_comp,oper_comp,niter,cpu_setup,cpu_solve,dof"

    def csv_row(self, inv_h, no_timings: bool = False) -> str:
        setup = 0.0 if no_timings else self.setup_seconds
        solve = 0.0 if no_timings else self.solve_seconds
        return (
            f"{inv_h},{self.nlevels},{self.grid_complexity:.6f},"
            f"{self.operator_complexity:.6f},{self.iterations},"
            f"{setup:.3e},{solve:.3e},{self.dof}"
        )


def fgmres(A, b, preconditioner, tol=1e-6, maxit=500):
    """Truncated flexible conjugate gradients, FCG(1) (Notay, SISC 22, 2000).

    The name is the flexible GMRES this replaced; the perfbench tracer
    wraps it by name until ROADMAP item 1's run record frees it.  A is a
    symmetric sparse matrix and the preconditioner B a callable applied
    to the residual once per iteration, returning a new array; B may
    change between iterations but is symmetric in each.  Each direction
    d = B r is made A-orthogonal to the previous one only, so the solve
    holds x, r and one direction d with its image A d, whatever the
    iteration count.  Iteration stops when the recursively updated
    relative residual |r| / |b| (from x = 0) reaches tol, or after maxit
    steps; at the float64 floor it can drift below the true residual,
    which `solve_pressure` recomputes.  A direction of zero energy
    (d . A d = 0, e.g. one in A's kernel) ends the solve before its step,
    and its index is returned as the breakdown.  Negative energy (an
    indefinite A, or entries so large that rounding swamps the energy)
    and a coefficient that overflows float64 raise ValueError.  Returns
    (x, iterations, relative residual history, breakdown index).
    """
    b_norm = float(np.linalg.norm(b))
    x = np.zeros(b.size)
    history = [1.0]
    if b_norm == 0.0:
        return x, 0, history, None

    r = np.array(b, dtype=float)
    d = q = None  # the previous direction, A d and its energy rho = d . A d
    breakdown = None
    for j in range(maxit):
        z = preconditioner(r)
        w = A @ z
        if d is None:
            d, q = z, w
        else:  # d <- z - beta d, A-orthogonal to the previous direction
            beta = float(z @ q) / rho
            d *= -beta
            d += z
            q *= -beta
            q += w
        del z, w  # freed before the next cycle allocates its own
        rho = float(d @ q)
        alpha = float(d @ r) / rho if rho > 0 else 0.0
        if not (np.isfinite(rho) and np.isfinite(alpha)):
            raise ValueError(f"FCG step {j}: d.Ad = {rho}, alpha = {alpha}: the solve "
                             f"overflows float64 (largest |a_ij| = {_largest_entry(A):g})")
        if rho < 0:
            raise ValueError(f"FCG step {j}: d.Ad = {rho:.3e} < 0: the operator is not "
                             "positive semidefinite to float64 precision (largest "
                             f"|a_ij| = {_largest_entry(A):g})")
        if rho == 0:
            breakdown = j
            break
        x += alpha * d
        r -= alpha * q
        history.append(float(np.linalg.norm(r)) / b_norm)
        if history[-1] <= tol:
            break
    return x, len(history) - 1, history, breakdown


def solve_pressure(A, b, config: SolverConfig | None = None, kernel=None):
    """AMG-preconditioned flexible CG solve of the pressure system.

    ``kernel`` is an orthonormal null-space basis for semidefinite
    (pure-Neumann) systems; the right-hand side must then be consistent
    (orthogonal to the kernel up to 1e-10 relative) and iterates are
    projected back to the complement each application, so the returned
    solution has zero kernel component.  A right-hand side whose length
    is not A's dimension, with a NaN or infinite entry, or whose 2-norm
    overflows is rejected before the setup, and a solve whose true
    residual overflows raises ValueError after it.  A row of A with no
    stored entries, whose column is empty too (an isolated cell), is a
    component of its own: its b_i must be 0, or a ValueError names the
    row, and the other rows are solved alone, dropping the kernel
    columns that vanish on them, with x_i = 0 returned for it.
    """
    config = config or SolverConfig()
    A = sp.csr_matrix(A)
    b = np.asarray(b, dtype=float)
    dof = b.size
    if b.shape != (A.shape[0],):
        raise ValueError(f"right-hand side of length {dof} for a matrix of "
                         f"dimension {A.shape[0]}")
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise ValueError(f"non-finite right-hand side entry {bad[0]}: b_i = {b[bad[0]]}")
    with np.errstate(over="ignore"):
        b_norm = np.linalg.norm(b)
    if not np.isfinite(b_norm):
        # the residual history divides by |b|: it would read 0 at once
        raise ValueError(f"right-hand side 2-norm overflows: |b| = {b_norm}")
    if kernel is not None and kernel.size == 0:
        kernel = None

    if kernel is not None:
        defect = np.linalg.norm(kernel.T @ b)
        if defect > 1e-10 * max(b_norm, 1e-300):
            raise ValueError(
                f"inconsistent singular system: kernel component {defect:.3e}"
            )
        b = b - kernel @ (kernel.T @ b)

    # the rows of a square A with no stored entries, their columns empty too
    n = A.shape[0]
    lone = np.flatnonzero(np.diff(A.indptr) == 0)
    if lone.size and A.shape[1] == n:
        lone = lone[np.bincount(A.indices, minlength=n)[lone] == 0]
        if 0 < lone.size < n:
            bad = lone[b[lone] != 0.0]
            if bad.size:
                i = bad[0]
                raise ValueError(f"inconsistent system: row {i} of A is empty, "
                                 f"but b_{i} = {b[i]:g}")
            keep = np.ones(n, dtype=bool)
            keep[lone] = False
            if kernel is not None:
                kernel = kernel[keep]
                kernel = kernel[:, np.any(kernel != 0.0, axis=0)]
            x = np.zeros(dof)
            x[keep], report = solve_pressure(A[keep][:, keep], b[keep], config, kernel)
            report.dof = dof
            return x, report

    t0 = time.perf_counter()
    hierarchy = build_hierarchy(A)
    t1 = time.perf_counter()

    def prec(v):
        z = vcycle(hierarchy, v, cycle=config.cycle)
        if kernel is not None:
            z = z - kernel @ (kernel.T @ z)
        return z

    x, iters, history, breakdown = fgmres(
        A, b, preconditioner=prec, tol=config.tol, maxit=config.maxit
    )
    if kernel is not None:
        x = x - kernel @ (kernel.T @ x)
    t2 = time.perf_counter()

    # fgmres returns x = 0 for b = 0, which solves the system exactly
    b_norm = np.linalg.norm(b)
    true_rel = np.linalg.norm(b - A @ x) / b_norm if b_norm else 0.0
    if not np.isfinite(true_rel):  # `converged` would mean nothing
        raise ValueError(f"true residual {true_rel}: the solve overflows float64 "
                         f"(largest |a_ij| = {_largest_entry(A):g})")
    report = SolveReport(
        iterations=iters,
        residuals=tuple(history),
        converged=bool(true_rel <= CONVERGED_SLACK * config.tol),
        tol=config.tol,
        true_residual=float(true_rel),
        dof=dof,
        nlevels=hierarchy.nlevels,
        grid_complexity=hierarchy.grid_complexity,
        operator_complexity=hierarchy.operator_complexity,
        setup_seconds=t1 - t0,
        solve_seconds=t2 - t1,
        breakdown=breakdown,
    )
    return x, report
