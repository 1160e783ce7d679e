"""Directed communication topologies, their stochastic weighting matrices,
and the augmented matrix W(delta) with its power-gap series.  The series is
fitted in one place, `algorithm.gain_fit`.

Edge convention: `Digraph.adjacency[i, j]` means agent j receives from
agent i.  Every node always has a self-loop, so in- and out-neighbor sets
contain the node itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


STOCHASTIC_TOL = 1e-12


class GraphError(ValueError):
    """Invalid topology or weighting construction."""


@dataclass(frozen=True)
class Digraph:
    """Directed graph over agents 0..N-1, held as one read-only N x N bool
    matrix: `adjacency[i, j]` means agent j receives from agent i.  The
    diagonal (the self-loops) is always set."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.array(self.adjacency, order="C")
        if a.dtype != bool or a.ndim != 2 or a.shape[0] != a.shape[1] or not a.shape[0]:
            raise GraphError(f"adjacency must be a non-empty square bool matrix, "
                             f"got {a.dtype} of shape {a.shape}")
        np.fill_diagonal(a, True)
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    @property
    def n_agents(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class WeightPair:
    """Row-stochastic mixing matrix and column-stochastic splitting matrix."""

    w_row: np.ndarray
    w_col: np.ndarray

    def __post_init__(self):
        # C order: the round's `W_r x` and `W_c y` take the bits of dgemv's C-order kernel
        wr = np.ascontiguousarray(self.w_row, dtype=float)
        wc = np.ascontiguousarray(self.w_col, dtype=float)
        if wr.shape != wc.shape or wr.ndim != 2 or wr.shape[0] != wr.shape[1]:
            raise GraphError(f"weight matrices must be square and same shape, got {wr.shape}, {wc.shape}")
        if (wr < 0).any() or (wc < 0).any():
            raise GraphError("weight matrices must be nonnegative")
        row_err = np.abs(wr.sum(axis=1) - 1.0).max()
        col_err = np.abs(wc.sum(axis=0) - 1.0).max()
        if row_err > STOCHASTIC_TOL:
            raise GraphError(f"w_row rows must sum to 1 (max error {row_err:.2e})")
        if col_err > STOCHASTIC_TOL:
            raise GraphError(f"w_col columns must sum to 1 (max error {col_err:.2e})")
        wr.flags.writeable = False
        wc.flags.writeable = False
        object.__setattr__(self, "w_row", wr)
        object.__setattr__(self, "w_col", wc)

    @property
    def n_agents(self) -> int:
        return self.w_row.shape[0]


@dataclass(frozen=True)
class AugmentedMatrix:
    """2N x 2N coupling of decision and surplus dynamics at gain delta."""

    w_aug: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w_aug, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2 != 0:
            raise GraphError(f"augmented matrix must be square of even size, got {w.shape}")
        w.flags.writeable = False
        object.__setattr__(self, "w_aug", w)

    @property
    def n_agents(self) -> int:
        return self.w_aug.shape[0] // 2


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every node reaches every other node along directed edges:
    a frontier BFS from node 0 over the adjacency matrix and its transpose."""
    def reaches_all(a) -> bool:
        seen, frontier = np.zeros(len(a), dtype=bool), [0]
        while len(frontier):
            seen[frontier] = True
            frontier = (np.logical_or.reduce(a[frontier]) > seen).nonzero()[0]
        return bool(seen.all())

    return reaches_all(g.adjacency) and reaches_all(g.adjacency.T)


def _check_size(n: int, what: str) -> None:
    """A topology needs n >= 2 agents and an n x n matrix that numpy can index."""
    if n < 2:
        raise GraphError(f"{what} needs n >= 2, got {n}")
    if int(n) ** 2 > np.iinfo(np.intp).max:
        raise GraphError(f"{what} of n={n} agents is too large: its {n} x {n} adjacency "
                         f"matrix exceeds numpy's index range")


def _successors(n: int) -> np.ndarray:
    """Adjacency of the directed cycle i -> i+1 (mod n), self-loops included."""
    a = np.eye(n, dtype=bool)
    a[np.arange(n), np.arange(1, n + 1) % n] = True
    return a


def make_cycle(n: int) -> Digraph:
    """Directed cycle i -> i+1 (mod n), strongly connected by construction."""
    _check_size(n, "cycle")
    return Digraph(_successors(n))


def make_ring(n: int) -> Digraph:
    """Bidirectional ring: edges both ways between consecutive nodes."""
    _check_size(n, "ring")
    a = _successors(n)
    return Digraph(a | a.T)


def make_complete(n: int) -> Digraph:
    """Complete digraph: every ordered pair is an edge."""
    _check_size(n, "complete digraph")
    return Digraph(np.ones((n, n), dtype=bool))


def make_random_strongly_connected(n: int, extra_edge_prob: float, seed: int) -> Digraph:
    """Directed cycle backbone plus independently sampled extra edges.

    The backbone guarantees strong connectivity; the result is deterministic
    for a given seed.
    """
    _check_size(n, "random digraph")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise GraphError(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob}")
    if seed < 0:
        raise GraphError(f"graph seed must be >= 0, got {seed}")
    a = _successors(n)
    return Digraph(a | (np.random.default_rng(seed).random((n, n)) < extra_edge_prob))


def equal_neighbor_weights(g: Digraph) -> WeightPair:
    """Uniform weights over in-neighbors (rows) and out-neighbors (columns).

    w_row[i, j] = 1/|in(i)| for j in in(i); w_col[i, j] = 1/|out(j)| for
    i in out(j).  Both are the transposed adjacency matrix, normalised by
    its row and by its column sums.  Requires a strongly connected digraph.
    """
    if not is_strongly_connected(g):
        raise GraphError("equal_neighbor_weights requires a strongly connected digraph")
    # row i of the transpose is in(i), column j is out(j)
    a = g.adjacency.T.astype(float, order="C")
    return WeightPair(w_row=a / a.sum(axis=1, keepdims=True), w_col=a / a.sum(axis=0))


def build_augmented(wp: WeightPair, delta: float) -> AugmentedMatrix:
    """Assemble [[W_r, dI], [I - W_r, W_c - dI]]; column sums stay exactly 1.

    delta = 0 is accepted (it is the reference point for the spectral gain
    bound); negative delta is rejected.
    """
    if delta < 0:
        raise GraphError(f"delta must be nonnegative, got {delta}")
    n = wp.n_agents
    eye = np.eye(n)
    w = np.block([
        [wp.w_row, delta * eye],
        [eye - wp.w_row, wp.w_col - delta * eye],
    ])
    return AugmentedMatrix(w_aug=w)


def delta_hat(wp: WeightPair) -> float:
    """Conservative upper bound on the surplus gain for geometric convergence:
    ((1 - |s3|) / (20 + 8N))^N, where s3 is the third-largest eigenvalue by
    modulus (counted with multiplicity) of the augmented matrix at delta = 0.
    The bound is extremely conservative: for N = 10 it is below 1e-30.

    W(0) = [[W_r, 0], [I - W_r, W_c]] is block lower-triangular, so its
    spectrum is that of the stochastic W_r and W_c: moduli 1, 1, and then
    |s3| = max(sigma2(W_r), sigma2(W_c)), each sigma2(A) at least
    sqrt(|tr(A^2) - 1| / (N - 1)).  When that O(N^2) bound, with a 1e-6 margin
    for the eigen-solve's error, already underflows the result, 0.0 (the
    eigen route's bits) is returned without the eigen-solve: on rings from
    N = 99, on one-way cycles from N = 101, and on every graph from N = 110.
    """
    n = wp.n_agents
    if 2 * n < 3:
        raise GraphError(f"need at least 3 augmented states, got 2N={2 * n}")
    s3_low = max(math.sqrt(abs((a * a.T).sum() - 1.0) / (n - 1)) for a in (wp.w_row, wp.w_col))
    if ((1.0 - s3_low + 1e-6) / (20.0 + 8.0 * n)) ** n == 0.0:
        return 0.0
    w0 = build_augmented(wp, 0.0)
    try:
        eigvals = np.linalg.eigvals(w0.w_aug)
    except np.linalg.LinAlgError as exc:
        raise GraphError(f"eigenvalue computation failed for {2 * n}x{2 * n} augmented matrix: {exc}") from exc
    moduli = np.sort(np.abs(eigvals))[::-1]
    sigma3 = moduli[2]
    return float(((1.0 - sigma3) / (20.0 + 8.0 * n)) ** n)


@np.errstate(over="ignore", invalid="ignore")  # overflowing powers give a NaN fit
def matrix_power_gap_series(am: AugmentedMatrix, t_max: int) -> np.ndarray:
    """Max-absolute-row-sum distance between W^t and its limit
    [[11^T/N, 11^T/N], [0, 0]] at every power t = 1..t_max, computed by
    cumulative multiplication.  `algorithm.gain_fit` is its one caller in
    the package, and fits the series.

    Reuses two 2N x 2N buffers allocated once per call, `power` and
    `spent`: each power writes W^t = W^(t-1) W into `spent` and swaps the
    names, so `spent` then holds W^(t-1), which is overwritten with the
    elementwise gap |W^t - limit|.  The first power is a copy of W itself:
    I @ W has W's bits for a finite W, so the product is skipped.  The limit is
    1/N on the top N rows and 0 below, so the bottom gap is |W^t| (`x - 0.0`
    differs from `x` only in the sign of -0.0, which `abs` erases).  Each
    value has the same bits as a fresh `p = p @ w_aug; np.abs(p -
    limit).sum(axis=1).max()` per power, starting from the identity.
    """
    if t_max < 1:
        raise GraphError(f"t_max must be >= 1, got {t_max}")
    n = am.n_agents
    out = np.empty(t_max)
    row_sums = np.empty(2 * n)
    spent, power = np.empty((2 * n, 2 * n)), am.w_aug.copy()
    for t in range(t_max):
        if t:
            spent, power = power, np.matmul(power, am.w_aug, out=spent)
        np.subtract(power[:n], 1.0 / n, out=spent[:n])
        np.abs(spent[:n], out=spent[:n])
        np.abs(power[n:], out=spent[n:])
        out[t] = np.maximum.reduce(np.add.reduce(spent, axis=1, out=row_sums))
    return out
