import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rgfopt import graph
from rgfopt.graph import (
    AugmentedMatrix,
    Digraph,
    GraphError,
    WeightPair,
    build_augmented,
    delta_hat,
    equal_neighbor_weights,
    is_strongly_connected,
    make_complete,
    make_cycle,
    make_random_strongly_connected,
    make_ring,
    matrix_power_gap_series,
)
from rgfopt.algorithm import fit_geometric_decay

from conftest import edge_set_law

TOL = 1e-12


def transitive_closure_connected(g: Digraph) -> bool:
    """Brute-force reachability oracle via boolean matrix closure."""
    reach = g.adjacency.copy()
    for _ in range(g.n_agents):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def neighbors(g: Digraph, i: int) -> tuple[list[int], list[int]]:
    """In- and out-neighbors of node i (each includes i), read from the adjacency matrix."""
    return np.flatnonzero(g.adjacency[:, i]).tolist(), np.flatnonzero(g.adjacency[i]).tolist()


def digraph(n: int, edges) -> Digraph:
    """The digraph over n agents with the listed (i, j) edges: j receives from i."""
    a = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        a[i, j] = True
    return Digraph(a)


def limit_matrix(n: int) -> np.ndarray:
    """Target of the augmented matrix powers: [[11^T/N, 11^T/N], [0, 0]]."""
    lim = np.zeros((2 * n, 2 * n))
    lim[:n, :] = 1.0 / n
    return lim


def matrix_power_gap(am: AugmentedMatrix, t: int) -> float:
    """Reference for one power: max-absolute-row-sum distance between W^t and the limit."""
    p = np.linalg.matrix_power(am.w_aug, t)
    return float(np.abs(p - limit_matrix(am.n_agents)).sum(axis=1).max())


class TestDigraph:
    def test_self_loops_always_present(self):
        g = digraph(3, [(0, 1)])
        assert g.adjacency.diagonal().all()
        assert np.argwhere(g.adjacency).tolist() == [[0, 0], [0, 1], [1, 1], [2, 2]]

    def test_neighbor_sets(self):
        g = make_cycle(4)
        assert neighbors(g, 0) == ([0, 3], [0, 1])

    def test_adjacency_is_a_read_only_copy(self):
        a = np.zeros((3, 3), dtype=bool)
        g = Digraph(a)
        a[0, 1] = True
        assert not g.adjacency[0, 1] and not a[0, 0]
        assert not g.adjacency.flags.writeable
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = True

    @pytest.mark.parametrize("adjacency", [np.ones((2, 3), dtype=bool), np.ones(3, dtype=bool),
                                           np.ones((2, 2, 2), dtype=bool), np.zeros((0, 0), dtype=bool),
                                           np.eye(3), np.eye(3, dtype=int), [[1, 0], [0, 1]]],
                             ids=["2x3", "1-d", "3-d", "empty", "float", "int", "int-list"])
    def test_non_square_or_non_bool_rejected(self, adjacency):
        with pytest.raises(GraphError, match="square bool matrix"):
            Digraph(adjacency)


class TestStrongConnectivity:
    def test_cycle_is_strongly_connected(self):
        assert is_strongly_connected(make_cycle(3))

    def test_one_way_pair_is_not(self):
        assert not is_strongly_connected(digraph(2, [(0, 1)]))

    def test_complete_is_strongly_connected(self):
        assert is_strongly_connected(make_complete(5))

    def test_single_agent_is(self):
        assert is_strongly_connected(Digraph(np.zeros((1, 1), dtype=bool)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_closure_exhaustively(self, n):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for mask in itertools.product([False, True], repeat=len(pairs)):
            g = digraph(n, [p for p, keep in zip(pairs, mask) if keep])
            assert is_strongly_connected(g) == transitive_closure_connected(g)

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_closure_sampled(self, n):
        rng = np.random.default_rng(100 + n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for _ in range(400):
            keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.6)
            g = digraph(n, [p for p, k in zip(pairs, keep) if k])
            assert is_strongly_connected(g) == transitive_closure_connected(g)


_CONSTRUCTORS = {"cycle": make_cycle, "ring": make_ring, "complete": make_complete,
                 "random": lambda n: make_random_strongly_connected(n, 0.3, seed=0)}


class TestConstructors:
    def test_cycle_edges_exact(self):
        g = make_cycle(4)
        assert np.argwhere(g.adjacency).tolist() == [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2],
                                                     [2, 3], [3, 0], [3, 3]]

    def test_cycle_edge_count(self):
        assert make_cycle(10).adjacency.sum() == 10 + 10

    def test_cycle_rejects_degenerate(self):
        with pytest.raises(GraphError):
            make_cycle(1)

    def test_ring_is_symmetric(self):
        g = make_ring(6)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert is_strongly_connected(g)

    def test_random_prob_zero_is_cycle(self):
        assert np.array_equal(make_random_strongly_connected(10, 0.0, seed=5).adjacency,
                              make_cycle(10).adjacency)

    def test_random_is_strongly_connected(self):
        assert is_strongly_connected(make_random_strongly_connected(10, 0.3, seed=7))

    def test_random_deterministic(self):
        a = make_random_strongly_connected(10, 0.3, seed=7)
        b = make_random_strongly_connected(10, 0.3, seed=7)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_random_rejects_bad_args(self):
        with pytest.raises(GraphError):
            make_random_strongly_connected(1, 0.3, seed=0)
        with pytest.raises(GraphError):
            make_random_strongly_connected(5, 1.5, seed=0)
        with pytest.raises(GraphError, match="graph seed must be >= 0, got -1"):
            make_random_strongly_connected(4, 0.3, -1)

    @pytest.mark.parametrize("n", [2, 3, 10, 57, 200])
    @pytest.mark.parametrize("kind", ["cycle", "ring", "complete"])
    def test_matrix_equals_the_edge_set_law(self, kind, n):
        a = _CONSTRUCTORS[kind](n).adjacency
        assert a.dtype == bool and a.shape == (n, n)
        assert set(map(tuple, np.argwhere(a).tolist())) == edge_set_law(kind, n)

    @pytest.mark.parametrize("n", [2, 3, 10, 57])
    @pytest.mark.parametrize("prob", [0.0, 0.05, 0.3, 0.9, 1.0])
    def test_random_matrix_equals_the_edge_set_law(self, n, prob):
        for seed in (0, 1, 7, 2**32 + 5):
            a = make_random_strongly_connected(n, prob, seed).adjacency
            assert set(map(tuple, np.argwhere(a).tolist())) == edge_set_law("random", n, prob, seed)

    @pytest.mark.parametrize("kind", sorted(_CONSTRUCTORS))
    @pytest.mark.parametrize("n", [3_037_000_500, 10**10, np.int64(10**10), 10**20])
    def test_n_beyond_numpy_index_range_is_a_graph_error(self, kind, n):
        # n * n exceeds the largest intp, so no matrix is ever allocated
        with pytest.raises(GraphError, match="exceeds numpy's index range"):
            _CONSTRUCTORS[kind](n)

    def test_largest_indexable_n_is_refused_by_the_allocator(self):
        # 3_037_000_499 ** 2 bytes still fits an intp; the allocation of
        # about 8 EiB is refused at once
        with pytest.raises(MemoryError):
            make_cycle(3_037_000_499)


class TestEqualNeighborWeights:
    def test_cycle4_entries(self):
        wp = equal_neighbor_weights(make_cycle(4))
        nz = wp.w_row[wp.w_row > 0]
        assert np.allclose(nz, 0.5)

    def test_complete5_entries(self):
        wp = equal_neighbor_weights(make_complete(5))
        assert np.allclose(wp.w_row, 0.2)
        assert np.allclose(wp.w_col, 0.2)

    @pytest.mark.parametrize("g", [make_cycle(4), make_ring(7), make_complete(5),
                                   make_random_strongly_connected(12, 0.25, seed=2)])
    def test_stochasticity(self, g):
        wp = equal_neighbor_weights(g)
        assert np.abs(wp.w_row.sum(axis=1) - 1.0).max() < TOL
        assert np.abs(wp.w_col.sum(axis=0) - 1.0).max() < TOL

    def test_sparsity_matches_neighbors(self):
        g = make_random_strongly_connected(9, 0.3, seed=11)
        wp = equal_neighbor_weights(g)
        for i in range(9):
            row_support = set(np.nonzero(wp.w_row[i])[0])
            assert row_support == set(neighbors(g, i)[0])
        for j in range(9):
            col_support = set(np.nonzero(wp.w_col[:, j])[0])
            assert col_support == set(neighbors(g, j)[1])

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 30), prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_stochastic_on_random_digraphs(self, n, prob, seed):
        wp = equal_neighbor_weights(make_random_strongly_connected(n, prob, seed))
        assert (wp.w_row >= 0.0).all() and (wp.w_col >= 0.0).all()
        assert np.abs(wp.w_row.sum(axis=1) - 1.0).max() < TOL
        assert np.abs(wp.w_col.sum(axis=0) - 1.0).max() < TOL

    @pytest.mark.parametrize("n", [2, 3, 10, 57, 200])
    @pytest.mark.parametrize("kind", ["cycle", "ring", "complete", "random"])
    def test_bytes_equal_the_per_node_construction(self, kind, n):
        # the former construction, node by node from the neighbor lists
        g = {"cycle": make_cycle, "ring": make_ring, "complete": make_complete,
             "random": lambda n: make_random_strongly_connected(n, 0.3, seed=n)}[kind](n)
        w_row, w_col = np.zeros((n, n)), np.zeros((n, n))
        for i in range(n):
            nin, nout = neighbors(g, i)
            for j in nin:
                w_row[i, j] = 1.0 / len(nin)
            for j in nout:
                w_col[j, i] = 1.0 / len(nout)
        wp = equal_neighbor_weights(g)
        assert wp.w_row.tobytes() == w_row.tobytes()
        assert wp.w_col.tobytes() == w_col.tobytes()

    def test_rejects_not_strongly_connected(self):
        g = digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            equal_neighbor_weights(g)

    def test_weight_pair_stores_c_order(self):
        wp = equal_neighbor_weights(make_ring(5))
        f = WeightPair(w_row=np.asfortranarray(wp.w_row), w_col=np.asfortranarray(wp.w_col))
        assert f.w_row.flags.c_contiguous and f.w_col.flags.c_contiguous
        assert f.w_row.tobytes() == wp.w_row.tobytes() and f.w_col.tobytes() == wp.w_col.tobytes()

    def test_weight_pair_validation(self):
        bad = np.array([[0.5, 0.4], [0.3, 0.7]])
        good = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(GraphError):
            WeightPair(w_row=bad, w_col=good)
        with pytest.raises(GraphError):
            WeightPair(w_row=good, w_col=bad.T * -1.0)
        with pytest.raises(GraphError, match="must be square and same shape"):
            WeightPair(w_row=good, w_col=np.eye(3))
        with pytest.raises(GraphError, match="w_col columns must sum to 1"):
            WeightPair(w_row=good, w_col=bad.T)


class TestAugmented:
    def test_block_structure(self):
        wp = equal_neighbor_weights(make_cycle(3))
        d = 0.07
        am = build_augmented(wp, d)
        n = 3
        w = am.w_aug
        assert np.array_equal(w[:n, :n], wp.w_row)
        assert np.allclose(w[:n, n:], d * np.eye(n))
        assert np.array_equal(w[n:, :n], np.eye(n) - wp.w_row)
        assert np.allclose(w[n:, n:], wp.w_col - d * np.eye(n))
        assert w[0, n] == d

    def test_delta_zero_blocks(self):
        wp = equal_neighbor_weights(make_cycle(3))
        am = build_augmented(wp, 0.0)
        assert np.all(am.w_aug[:3, 3:] == 0.0)
        assert np.array_equal(am.w_aug[3:, 3:], wp.w_col)

    @pytest.mark.parametrize("delta", [0.0, 1e-6, 0.1, 0.7, 3.0])
    def test_column_stochastic_for_every_delta(self, delta):
        wp = equal_neighbor_weights(make_random_strongly_connected(8, 0.3, seed=4))
        am = build_augmented(wp, delta)
        assert np.abs(am.w_aug.sum(axis=0) - 1.0).max() < TOL

    def test_negative_delta_rejected(self):
        wp = equal_neighbor_weights(make_cycle(3))
        with pytest.raises(GraphError):
            build_augmented(wp, -0.01)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
    def test_odd_or_oblong_matrix_rejected(self, shape):
        with pytest.raises(GraphError, match="must be square of even size"):
            AugmentedMatrix(w_aug=np.ones(shape))


# (n, extra_edge_prob, seed) among N = 60..109, p in {0.02, 0.05}, seeds 1-2
# whose trace bound on |s3| makes delta_hat underflow below N = 110
_SPARSE_SHORTCUT_GRAPHS = [
    (105, 0.02, 1), (106, 0.02, 1), (106, 0.02, 2), (107, 0.02, 1), (107, 0.02, 2),
    (108, 0.02, 1), (108, 0.02, 2), (108, 0.05, 1), (108, 0.05, 2), (109, 0.02, 1),
    (109, 0.02, 2), (109, 0.05, 1), (109, 0.05, 2),
]


class TestDeltaHat:
    def test_one_agent_rejected(self):
        with pytest.raises(GraphError, match="need at least 3 augmented states, got 2N=2"):
            delta_hat(WeightPair(w_row=np.ones((1, 1)), w_col=np.ones((1, 1))))

    def test_in_unit_interval(self):
        for g in [make_cycle(5), make_ring(6), make_random_strongly_connected(10, 0.3, seed=7)]:
            dh = delta_hat(equal_neighbor_weights(g))
            assert 0.0 < dh < 1.0

    def test_against_independent_eigendecomposition(self):
        # Oracle: assemble the 20x20 matrix entry by entry with python loops
        # and use scipy's eigenvalue routine instead of numpy's.
        g = make_cycle(10)
        wp = equal_neighbor_weights(g)
        n = 10
        w0 = [[0.0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                w0[i][j] = wp.w_row[i, j]
                w0[n + i][j] = (1.0 if i == j else 0.0) - wp.w_row[i, j]
                w0[n + i][n + j] = wp.w_col[i, j]
        mods = sorted(abs(v) for v in scipy.linalg.eigvals(np.array(w0)))[::-1]
        expected = ((1.0 - mods[2]) / (20.0 + 8.0 * n)) ** n
        assert delta_hat(wp) == pytest.approx(expected, rel=1e-10)

    def test_shrinks_along_growing_cycles(self):
        # the (.../ (20+8N))^N form collapses fast as N grows
        dh5 = delta_hat(equal_neighbor_weights(make_cycle(5)))
        dh10 = delta_hat(equal_neighbor_weights(make_cycle(10)))
        assert dh10 < dh5 < 1.0

    @pytest.mark.parametrize("kind, n", [(kind, n) for kind in ("ring", "cycle", "random")
                                         for n in (99, 100, 105, 109, 110, 113, 114, 121, 200)
                                         if kind != "random" or n >= 110])
    def test_underflow_shortcut_equals_eigvals_route(self, kind, n):
        g = {"ring": make_ring, "cycle": make_cycle,
             "random": lambda n: make_random_strongly_connected(n, 0.3, seed=n)}[kind](n)
        self._assert_eigvals_route_bytes(equal_neighbor_weights(g))

    @pytest.mark.parametrize("n, p, seed", _SPARSE_SHORTCUT_GRAPHS)
    def test_underflow_shortcut_equals_eigvals_route_on_sparse_graphs(self, n, p, seed):
        self._assert_eigvals_route_bytes(equal_neighbor_weights(make_random_strongly_connected(n, p, seed)))

    @staticmethod
    def _assert_eigvals_route_bytes(wp):
        n = wp.n_agents
        moduli = np.sort(np.abs(np.linalg.eigvals(build_augmented(wp, 0.0).w_aug)))[::-1]
        # a base below zero would give -0.0 at odd N, so the shortcut needs |s3| <= 1
        assert 0.0 <= moduli[2] <= 1.0
        expected = ((1.0 - moduli[2]) / (20.0 + 8.0 * n)) ** n
        assert np.float64(delta_hat(wp)).tobytes() == np.float64(expected).tobytes()

    def test_shortcut_taken_exactly_where_the_bound_underflows(self, monkeypatch):
        def no_eigvals(a):
            raise AssertionError("eigvals called")
        monkeypatch.setattr(graph.np.linalg, "eigvals", no_eigvals)
        skipped = ([make_ring(n) for n in (99, 100, 109, 110)] + [make_cycle(101)]
                   + [make_random_strongly_connected(*case) for case in _SPARSE_SHORTCUT_GRAPHS])
        for g in skipped:
            assert delta_hat(equal_neighbor_weights(g)) == 0.0
        for g in (make_ring(98), make_cycle(100)):
            with pytest.raises(AssertionError, match="eigvals called"):
                delta_hat(equal_neighbor_weights(g))

    def test_eigen_solver_failure_becomes_a_graph_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(graph.np.linalg, "eigvals", fail)
        with pytest.raises(GraphError, match="eigenvalue computation failed for 10x10 augmented "
                                             "matrix: Eigenvalues did not converge"):
            delta_hat(equal_neighbor_weights(make_cycle(5)))

    def test_formula_monotone_in_n_for_fixed_sigma3(self):
        sigma3 = 0.5
        values = [((1.0 - sigma3) / (20.0 + 8.0 * n)) ** n for n in (3, 5, 10, 20)]
        assert all(b < a for a, b in zip(values, values[1:]))


def _fresh_product_gap_series(am: AugmentedMatrix, t_max: int) -> np.ndarray:
    """Reference for the buffered series: fresh arrays for every power."""
    lim = limit_matrix(am.n_agents)
    out = np.empty(t_max)
    p = np.eye(2 * am.n_agents)
    for t in range(1, t_max + 1):
        p = p @ am.w_aug
        out[t - 1] = np.abs(p - lim).sum(axis=1).max()
    return out


class TestMatrixPowerGap:
    def test_limit_matrix_has_zero_gap(self):
        # the limit is idempotent, so every power of it has gap 0
        am = AugmentedMatrix(w_aug=limit_matrix(4))
        assert matrix_power_gap_series(am, 5).tolist() == [0.0] * 5

    def test_rejects_nonpositive_power(self):
        wp = equal_neighbor_weights(make_cycle(3))
        with pytest.raises(GraphError):
            matrix_power_gap_series(build_augmented(wp, 0.1), 0)

    def test_series_matches_single_powers(self):
        wp = equal_neighbor_weights(make_random_strongly_connected(6, 0.3, seed=9))
        am = build_augmented(wp, 0.05)
        series = matrix_power_gap_series(am, 12)
        for t in (1, 5, 12):
            assert series[t - 1] == pytest.approx(matrix_power_gap(am, t), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 57, 120])
    @pytest.mark.parametrize("kind", ["cycle", "ring", "complete", "random"])
    def test_series_bits_equal_fresh_per_power_products(self, kind, n):
        make = {"cycle": make_cycle, "ring": make_ring, "complete": make_complete,
                "random": lambda n: make_random_strongly_connected(n, 0.3, seed=7)}[kind]
        wp = equal_neighbor_weights(make(n))
        for delta in (0.0, 1e-3, 0.1, 0.5):
            am = build_augmented(wp, delta)
            w_before = am.w_aug.tobytes()
            reference = _fresh_product_gap_series(am, 200)
            series = {t_max: matrix_power_gap_series(am, t_max) for t_max in (1, 2, 120, 200)}
            for t_max, gaps in series.items():
                assert gaps.tobytes() == reference[:t_max].tobytes(), (delta, t_max)
                assert gaps.flags.owndata and gaps.base is None
            assert series[120].tobytes() == series[200][:120].tobytes()
            assert am.w_aug.tobytes() == w_before

    def test_gap_halving_under_stable_gain(self):
        # cycle(10) at gain 0.01 sits inside the empirically stable region
        wp = equal_neighbor_weights(make_cycle(10))
        gaps = matrix_power_gap_series(build_augmented(wp, 0.01), 400)
        for t in (50, 100, 200):
            assert gaps[2 * t - 1] < gaps[t - 1]

    def test_geometric_decay_envelope_and_fit(self):
        # The per-step infinity-norm ratio oscillates on cyclic topologies
        # (complex rotational modes), so geometric decay is asserted through
        # the fitted rate and the start-to-end contraction of the window.
        wp = equal_neighbor_weights(make_cycle(10))
        gaps = matrix_power_gap_series(build_augmented(wp, 0.01), 200)
        c_fit, lam_fit, r2 = fit_geometric_decay(gaps, 20, 200)
        assert 0.0 < lam_fit < 1.0
        assert r2 >= 0.98
        assert gaps[199] < 0.1 * gaps[19]
        # windowed geometric-mean contraction rate is strictly below 1
        rate = (gaps[199] / gaps[99]) ** (1.0 / 100.0)
        assert rate < 0.999

    def test_fit_of_a_flat_series_has_r_squared_one(self):
        # log(1) = 0 at every power, so the total sum of squares is exactly 0
        assert fit_geometric_decay(np.ones(30), 5, 30) == (1.0, 1.0, 1.0)
        # the logs' mean misses log(0.25) and log(1e-300), the floor of 0, by
        # round-off, so their total sum of squares is round-off, not 0
        for value in (0.25, 0.0):
            assert fit_geometric_decay(np.full(30, value), 5, 30)[2] == 1.0

    def test_log_fit_negative_slope(self):
        wp = equal_neighbor_weights(make_random_strongly_connected(10, 0.3, seed=7))
        gaps = matrix_power_gap_series(build_augmented(wp, 0.1), 150)
        _, lam_fit, _ = fit_geometric_decay(gaps, 5, 150)
        assert 0.0 < lam_fit < 1.0
