"""Build directed communication topologies and their weighting matrices.

Walks through: cycle / ring / random digraphs, uniform neighbor weights,
the augmented decision+surplus coupling matrix, and the conservative gain
bound computed from its spectrum.
"""
import numpy as np

from rgfopt import (
    build_augmented,
    delta_hat,
    equal_neighbor_weights,
    is_strongly_connected,
    make_cycle,
    make_random_strongly_connected,
    make_ring,
)

np.set_printoptions(precision=3, suppress=True)

print("=== a 6-agent one-way cycle ===")
g = make_cycle(6)
print("adjacency (row i, column j: agent j receives from agent i; self-loops on the diagonal):")
print(g.adjacency.astype(int))
print("edges (self-loops implicit):",
      [(int(i), int(j)) for i, j in np.argwhere(g.adjacency) if i != j])
print("strongly connected:", is_strongly_connected(g))
print("in-neighbors of agent 0:", np.flatnonzero(g.adjacency[:, 0]).tolist())

wp = equal_neighbor_weights(g)
print("\nrow-stochastic mixing matrix W_r:")
print(wp.w_row)
print("row sums:", wp.w_row.sum(axis=1))
print("\ncolumn-stochastic splitting matrix W_c:")
print(wp.w_col)
print("column sums:", wp.w_col.sum(axis=0))

print("\n=== the augmented coupling matrix ===")
am = build_augmented(wp, delta=0.05)
print("shape:", am.w_aug.shape)
print("every column still sums to 1:", np.allclose(am.w_aug.sum(axis=0), 1.0))
print("conservative gain bound delta_hat:", delta_hat(wp))
print("(the bound is astronomically small; practical gains are set larger")
print(" and checked empirically, see demo 02)")

print("\n=== random strongly connected digraph ===")
rg = make_random_strongly_connected(10, extra_edge_prob=0.3, seed=7)
print("agents:", rg.n_agents, "| directed edges:",
      int(rg.adjacency.sum()) - rg.n_agents)
print("strongly connected:", is_strongly_connected(rg))

print("\n=== a bidirectional ring ===")
ring = make_ring(8)
print("edges per node (excluding self-loop):",
      int(ring.adjacency[:, 0].sum()) - 1, "in,",
      int(ring.adjacency[0].sum()) - 1, "out")
