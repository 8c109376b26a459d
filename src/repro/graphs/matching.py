"""Weighted bipartite matching algorithms used for module mapping.

Section 2.1.2 of the paper distinguishes three ways of mapping the
modules of two workflows onto each other once pairwise module
similarities are known:

* **greedy** selection of the highest-similarity pairs (Silva et al.),
* **maximum-weight matching** (``mw``) computing the assignment of
  maximum overall weight (Bergmann & Gil), and
* **maximum-weight non-crossing matching** (``mwnc``) which respects a
  given order of the elements, used when workflows are decomposed into
  paths.

This module provides all three as pure functions over a dense similarity
matrix (a list of rows), with no dependency on SciPy or NumPy.  ``mw``
runs one of two pure-Python assignment solvers, chosen by size:

* matrices with at most 6 rows and 6 columns: a Hungarian
  (Kuhn-Munkres) solver, :func:`hungarian_maximum_weight`;
* larger matrices: a port of the rectangular shortest-augmenting-path
  solver (Crouse) behind SciPy's ``linear_sum_assignment``.  It repeats
  SciPy's operations in SciPy's order, so it returns SciPy's pairs and
  the ``use_scipy`` switch does not change any score above 6.

The size rule is part of every score: two optimal assignments can
differ, and so can their weights in the last bits, and the Hungarian
picks a different assignment from SciPy's on many small matrices.
``use_scipy=True`` runs SciPy's own C solver when SciPy is installed
(it is imported on that first call) and the port otherwise; the tests
compare the two.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "MatchedPair",
    "greedy_matching",
    "maximum_weight_matching",
    "maximum_weight_noncrossing_matching",
    "hungarian_maximum_weight",
    "matching_weight",
]

#: Weights smaller than this are treated as "no useful similarity" and never
#: matched; this mirrors the intuition that mapping two entirely dissimilar
#: modules onto each other adds no information about workflow similarity.
_EPSILON = 1e-12


@functools.cache
def _scipy_assignment():
    """SciPy's ``linear_sum_assignment``, imported on the first call.

    ``None`` when SciPy is not installed (SciPy is an optional
    reference backend, not a requirement).
    """
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return None
    return linear_sum_assignment


@dataclass(frozen=True)
class MatchedPair:
    """A single matched pair of row/column indices with its weight."""

    row: int
    col: int
    weight: float


def _validate_matrix(weights: Sequence[Sequence[float]]) -> tuple[int, int]:
    n_rows = len(weights)
    if n_rows == 0:
        return 0, 0
    n_cols = len(weights[0])
    for row in weights:
        if len(row) != n_cols:
            raise ValueError("weight matrix rows must all have the same length")
    return n_rows, n_cols


def matching_weight(pairs: Sequence[MatchedPair]) -> float:
    """Return the total weight of a matching."""
    return sum(pair.weight for pair in pairs)


def greedy_matching(
    weights: Sequence[Sequence[float]], *, minimum_weight: float = _EPSILON
) -> list[MatchedPair]:
    """Greedily match rows to columns in descending order of weight.

    Each row and each column is used at most once.  Pairs with weight
    below ``minimum_weight`` are never selected.
    """
    n_rows, n_cols = _validate_matrix(weights)
    candidates = [
        MatchedPair(i, j, weights[i][j])
        for i in range(n_rows)
        for j in range(n_cols)
        if weights[i][j] >= minimum_weight
    ]
    candidates.sort(key=lambda pair: (-pair.weight, pair.row, pair.col))
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    result: list[MatchedPair] = []
    for pair in candidates:
        if pair.row in used_rows or pair.col in used_cols:
            continue
        used_rows.add(pair.row)
        used_cols.add(pair.col)
        result.append(pair)
    return result


def hungarian_maximum_weight(
    weights: Sequence[Sequence[float]],
) -> list[tuple[int, int]]:
    """Solve the maximum-weight assignment problem in pure Python.

    Implements the O(n^3) Hungarian algorithm (Jonker-style potentials)
    on a square matrix obtained by padding the input with zero-weight
    dummy rows/columns.  Returns the complete assignment including dummy
    pairs; callers filter by weight.
    """
    n_rows, n_cols = _validate_matrix(weights)
    if n_rows == 0 or n_cols == 0:
        return []
    size = max(n_rows, n_cols)
    # Convert to a minimisation problem on a padded square cost matrix.
    max_weight = max(max(row) for row in weights) if n_rows else 0.0
    cost = [[max_weight] * size for _ in range(size)]
    for i in range(n_rows):
        for j in range(n_cols):
            cost[i][j] = max_weight - weights[i][j]

    INF = float("inf")
    # Potentials and assignment arrays are 1-indexed (classic formulation).
    u = [0.0] * (size + 1)
    v = [0.0] * (size + 1)
    p = [0] * (size + 1)  # p[j] = row assigned to column j
    way = [0] * (size + 1)
    for i in range(1, size + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (size + 1)
        used = [False] * (size + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, size + 1):
                if used[j]:
                    continue
                current = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if current < minv[j]:
                    minv[j] = current
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(size + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while True:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
            if j0 == 0:
                break
    assignment = []
    for j in range(1, size + 1):
        row = p[j] - 1
        col = j - 1
        if row < n_rows and col < n_cols:
            assignment.append((row, col))
    return assignment


def _shortest_augmenting_path(
    weights: Sequence[Sequence[float]], n_rows: int, n_cols: int
) -> list[tuple[int, int]]:
    """Maximum-weight assignment by SciPy's ``linear_sum_assignment``.

    A port of the rectangular shortest-augmenting-path solver (Crouse,
    "On implementing 2D rectangular assignment algorithms", 2016) in
    SciPy's ``rectangular_lsap.cpp``, kept operation for operation so it
    returns SciPy's pairs: costs are the negated weights, a tall matrix
    is solved transposed, every floating-point expression is evaluated
    in SciPy's order, and a tie on the shortest path prefers a column
    with no row yet.  Returns one pair per row of the smaller side,
    rows ascending.
    """
    transpose = n_cols < n_rows
    if transpose:
        cost = [[-float(row[j]) for row in weights] for j in range(n_cols)]
        n_rows, n_cols = n_cols, n_rows
    else:
        cost = [[-float(w) for w in row] for row in weights]
    INF = float("inf")
    for row in cost:
        # A NaN or -inf entry makes its row's sum NaN or -inf.
        total = sum(row)
        if (total != total or total == -INF) and any(c != c or c == -INF for c in row):
            raise ValueError("matrix contains invalid numeric entries")
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        # Find the shortest augmenting path from cur_row.  Filling
        # `remaining` in reverse makes a constant matrix's answer the
        # identity, as in SciPy.
        remaining = list(range(n_cols - 1, -1, -1))
        shortest = [INF] * n_cols
        visited_rows = []
        visited_cols = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            visited_rows.append(i)
            cost_i = cost[i]
            u_i = u[i]
            index = -1
            lowest = INF
            for it, j in enumerate(remaining):
                r = min_val + cost_i[j] - u_i - v[j]
                reduced = shortest[j]
                if r < reduced:
                    path[j] = i
                    shortest[j] = reduced = r
                if reduced < lowest or (reduced == lowest and row4col[j] == -1):
                    lowest = reduced
                    index = it
            min_val = lowest
            if min_val == INF:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            visited_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # Update the dual variables.
        u[cur_row] += min_val
        for i in visited_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in visited_cols:
            v[j] -= min_val - shortest[j]
        # Augment the previous solution along the path.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        return sorted((row, col) for col, row in enumerate(col4row))
    return list(enumerate(col4row))


def maximum_weight_matching(
    weights: Sequence[Sequence[float]],
    *,
    minimum_weight: float = _EPSILON,
    use_scipy: bool | None = None,
) -> list[MatchedPair]:
    """Return the maximum-weight bipartite matching (``mw`` in the paper).

    Parameters
    ----------
    weights:
        Dense matrix of pairwise similarities (rows × columns).
    minimum_weight:
        Pairs whose weight falls below this threshold are dropped from
        the result (they contribute nothing to workflow similarity).
    use_scipy:
        ``None`` (default): the Hungarian solver for matrices with at
        most 6 rows and columns, SciPy's algorithm in pure Python above.
        ``False``: the Hungarian solver at every size.  ``True``:
        SciPy's C solver when SciPy is installed, otherwise the
        pure-Python port (same pairs).
    """
    n_rows, n_cols = _validate_matrix(weights)
    if n_rows == 0 or n_cols == 0:
        return []
    if use_scipy is None:
        hungarian = max(n_rows, n_cols) <= 6
    else:
        hungarian = not use_scipy
    assignment = _scipy_assignment() if use_scipy else None
    if hungarian:
        pairs = hungarian_maximum_weight(weights)
    elif assignment is None:
        pairs = _shortest_augmenting_path(weights, n_rows, n_cols)
    else:
        import numpy as np

        matrix = np.asarray(weights, dtype=float)
        rows, cols = assignment(matrix, maximize=True)
        pairs = list(zip(rows.tolist(), cols.tolist()))
    return [
        MatchedPair(i, j, weights[i][j])
        for i, j in pairs
        if weights[i][j] >= minimum_weight
    ]


def maximum_weight_noncrossing_matching(
    weights: Sequence[Sequence[float]], *, minimum_weight: float = _EPSILON
) -> list[MatchedPair]:
    """Return the maximum-weight non-crossing matching (``mwnc``).

    Given two ordered sequences (the rows and columns of ``weights``), a
    non-crossing matching never contains two pairs ``(i, j)`` and
    ``(i', j')`` with ``i < i'`` but ``j > j'``.  This respects the order
    of modules along a path (Malucelli et al. [27]).  Solved by dynamic
    programming in ``O(n * m)``.
    """
    n_rows, n_cols = _validate_matrix(weights)
    if n_rows == 0 or n_cols == 0:
        return []
    # best[i][j] = max weight using the first i rows and first j columns.
    best = [[0.0] * (n_cols + 1) for _ in range(n_rows + 1)]
    for i in range(1, n_rows + 1):
        for j in range(1, n_cols + 1):
            take = best[i - 1][j - 1] + max(weights[i - 1][j - 1], 0.0)
            best[i][j] = max(best[i - 1][j], best[i][j - 1], take)
    # Backtrack to recover the matched pairs.
    pairs: list[MatchedPair] = []
    i, j = n_rows, n_cols
    while i > 0 and j > 0:
        if best[i][j] == best[i - 1][j]:
            i -= 1
        elif best[i][j] == best[i][j - 1]:
            j -= 1
        else:
            weight = weights[i - 1][j - 1]
            if weight >= minimum_weight:
                pairs.append(MatchedPair(i - 1, j - 1, weight))
            i -= 1
            j -= 1
    pairs.reverse()
    return pairs
