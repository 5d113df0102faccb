"""Expected values computed apart from the program, and property checks.

The collective references here are numpy transposes and sums over the
benchmark's own generated inputs, with the communication groups derived
from the hypercube's documented slicing rule (nodes that share every
unselected coordinate form a group, ranked over the selected
coordinates with the first one varying fastest).  The graph checks are
properties the algorithms must have.  Every check raises
:class:`CheckFailed` on a mismatch.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """An output disagrees with its independently computed value."""


def require_equal(what: str, got, expected) -> None:
    """Raise :class:`CheckFailed` unless the arrays match exactly."""
    got = np.asarray(got)
    expected = np.asarray(expected)
    if got.shape != expected.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != {expected.shape}")
    if not np.array_equal(got, expected):
        bad = int(np.count_nonzero(got != expected))
        raise CheckFailed(f"{what}: {bad} of {got.size} elements differ")


# ----------------------------------------------------------------------
# Collectives
# ----------------------------------------------------------------------
def group_table(pe_grid: np.ndarray, selected: tuple[int, ...]) -> np.ndarray:
    """``(instances, members)`` PE ids of the groups over ``selected``.

    ``pe_grid[c0, c1, ...]`` is the PE at hypercube coordinates
    ``(c0, c1, ...)``.  Instances are numbered over the unselected
    coordinates and ranks over the selected ones, first coordinate
    fastest in both.
    """
    ndim = pe_grid.ndim
    fixed = [d for d in range(ndim) if d not in selected]
    order = list(reversed(fixed)) + list(reversed(selected))
    members = int(np.prod([pe_grid.shape[d] for d in selected]))
    return pe_grid.transpose(order).reshape(-1, members)


def expected_collective(primitive: str, inputs: np.ndarray) -> np.ndarray:
    """Reference outputs of one collective over grouped int64 inputs.

    ``inputs`` is ``(instances, members, elems)``: member ``r`` of
    instance ``g`` contributes ``inputs[g, r]``.  Returns per-member
    outputs ``(instances, members, out_elems)`` for the in-memory
    primitives and per-instance host outputs ``(instances, out_elems)``
    for ``gather`` and ``reduce``.
    """
    groups, members, elems = inputs.shape
    if primitive == "alltoall":
        chunks = inputs.reshape(groups, members, members, elems // members)
        return chunks.transpose(0, 2, 1, 3).reshape(groups, members, elems)
    if primitive == "allgather":
        flat = inputs.reshape(groups, 1, members * elems)
        return np.broadcast_to(flat, (groups, members, members * elems))
    if primitive == "reduce_scatter":
        chunks = inputs.reshape(groups, members, members, elems // members)
        return chunks.sum(axis=1, dtype=np.int64)
    if primitive == "allreduce":
        total = inputs.sum(axis=1, dtype=np.int64, keepdims=True)
        return np.broadcast_to(total, (groups, members, elems))
    if primitive == "gather":
        return inputs.reshape(groups, members * elems)
    if primitive == "reduce":
        return inputs.sum(axis=1, dtype=np.int64)
    raise ValueError(f"no reference for {primitive!r}")


def expected_scatter(payload: np.ndarray, members: int) -> np.ndarray:
    """Member ``r`` of each instance receives chunk ``r`` of its payload."""
    return payload.reshape(payload.shape[0], members, -1)


def expected_broadcast(payload: np.ndarray, members: int) -> np.ndarray:
    """Every member of an instance receives the instance's payload."""
    return np.broadcast_to(payload[:, None, :],
                           (payload.shape[0], members, payload.shape[1]))


# ----------------------------------------------------------------------
# Graph properties
# ----------------------------------------------------------------------
def check_bfs_levels(src: np.ndarray, dst: np.ndarray, num_vertices: int,
                     source: int, levels: np.ndarray) -> None:
    """BFS levels must be a shortest-path layering from ``source``.

    For every edge u->v with u reached, v is reached and
    ``level(v) <= level(u) + 1``; every reached vertex but the source
    has an in-edge from the level before it.
    """
    levels = np.asarray(levels)
    if levels.shape != (num_vertices,):
        raise CheckFailed(f"BFS: levels shape {levels.shape}")
    if levels[source] != 0:
        raise CheckFailed(f"BFS: source level {levels[source]} != 0")
    if np.any(levels < -1):
        raise CheckFailed("BFS: level below -1")
    lu, lv = levels[src], levels[dst]
    reached = lu >= 0
    if np.any(lv[reached] < 0):
        raise CheckFailed("BFS: an edge leaves a reached vertex to an "
                          "unreached one")
    if np.any(lv[reached] > lu[reached] + 1):
        raise CheckFailed("BFS: an edge u->v has level(v) > level(u) + 1")
    others = np.flatnonzero(levels > 0)
    has_parent = np.zeros(num_vertices, dtype=bool)
    tight = reached & (lv == lu + 1)
    has_parent[dst[tight]] = True
    if not np.all(has_parent[others]):
        raise CheckFailed("BFS: a reached vertex has no in-edge from the "
                          "previous level")


def component_minima(src: np.ndarray, dst: np.ndarray,
                     num_vertices: int) -> np.ndarray:
    """Minimum vertex id of each vertex's undirected component."""
    labels = np.arange(num_vertices, dtype=np.int64)
    u = np.concatenate([src, dst])
    v = np.concatenate([dst, src])
    while True:
        pulled = labels.copy()
        np.minimum.at(pulled, v, labels[u])
        pulled = pulled[pulled]  # pointer jumping
        if np.array_equal(pulled, labels):
            return labels
        labels = pulled


def check_cc_labels(src: np.ndarray, dst: np.ndarray, num_vertices: int,
                    labels: np.ndarray) -> None:
    """Labels must be constant along edges and equal each component's
    minimum vertex id."""
    labels = np.asarray(labels)
    if labels.shape != (num_vertices,):
        raise CheckFailed(f"CC: labels shape {labels.shape}")
    if np.any(labels[src] != labels[dst]):
        raise CheckFailed("CC: labels differ across an edge")
    require_equal("CC: component minima", labels,
                  component_minima(src, dst, num_vertices))
