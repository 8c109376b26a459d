"""Tests for the bipartite matching algorithms (greedy, mw, mwnc).

The SciPy differential property draws its matrices from a fixed seed
(1483) unless ``REPRO_FUZZ_SEED`` sets another one.
"""

from __future__ import annotations

import importlib.util
import os

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.graphs import (
    greedy_matching,
    hungarian_maximum_weight,
    matching_weight,
    maximum_weight_matching,
    maximum_weight_noncrossing_matching,
)
from repro.graphs.matching import _shortest_augmenting_path

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1483"))

weight_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda rows: st.integers(min_value=1, max_value=6).flatmap(
        lambda cols: st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


def brute_force_best_matching_weight(weights):
    """Exhaustive maximum matching weight for small matrices."""
    import itertools

    n_rows = len(weights)
    n_cols = len(weights[0]) if n_rows else 0
    best = 0.0
    columns = list(range(n_cols))
    for size in range(0, min(n_rows, n_cols) + 1):
        for rows in itertools.combinations(range(n_rows), size):
            for cols in itertools.permutations(columns, size):
                best = max(best, sum(weights[r][c] for r, c in zip(rows, cols)))
    return best


class TestGreedyMatching:
    def test_simple_two_by_two(self):
        pairs = greedy_matching([[0.9, 0.1], [0.2, 0.8]])
        assert {(p.row, p.col) for p in pairs} == {(0, 0), (1, 1)}

    def test_greedy_can_be_suboptimal(self):
        # Greedy picks 0.9 first and is left with 0.1; optimal is 0.8 + 0.7.
        weights = [[0.9, 0.8], [0.7, 0.1]]
        greedy = matching_weight(greedy_matching(weights))
        optimal = matching_weight(maximum_weight_matching(weights))
        assert greedy == pytest.approx(1.0)
        assert optimal == pytest.approx(1.5)

    def test_zero_weights_not_matched(self):
        assert greedy_matching([[0.0, 0.0], [0.0, 0.0]]) == []

    def test_empty_matrix(self):
        assert greedy_matching([]) == []

    def test_each_row_and_column_used_once(self):
        pairs = greedy_matching([[0.5, 0.6, 0.4], [0.5, 0.7, 0.2]])
        rows = [p.row for p in pairs]
        cols = [p.col for p in pairs]
        assert len(rows) == len(set(rows))
        assert len(cols) == len(set(cols))


class TestMaximumWeightMatching:
    def test_rectangular_matrix(self):
        pairs = maximum_weight_matching([[0.2, 0.9, 0.3]])
        assert len(pairs) == 1
        assert pairs[0].col == 1

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            maximum_weight_matching([[0.1, 0.2], [0.3]])

    def test_empty(self):
        assert maximum_weight_matching([]) == []
        assert maximum_weight_matching([[]]) == []

    def test_identity_matrix_matches_diagonal(self):
        weights = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
        pairs = maximum_weight_matching(weights)
        assert {(p.row, p.col) for p in pairs} == {(i, i) for i in range(4)}

    def test_pure_python_backend_matches_scipy(self):
        weights = [[0.3, 0.7, 0.2], [0.9, 0.4, 0.5], [0.1, 0.6, 0.8]]
        with_scipy = matching_weight(maximum_weight_matching(weights, use_scipy=True))
        without = matching_weight(maximum_weight_matching(weights, use_scipy=False))
        assert with_scipy == pytest.approx(without)

    @given(weight_matrix)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_optimum(self, weights):
        result = matching_weight(maximum_weight_matching(weights, use_scipy=False))
        assert result == pytest.approx(brute_force_best_matching_weight(weights), abs=1e-9)

    @given(weight_matrix)
    @settings(max_examples=60, deadline=None)
    def test_at_least_greedy(self, weights):
        optimal = matching_weight(maximum_weight_matching(weights, use_scipy=False))
        greedy = matching_weight(greedy_matching(weights))
        assert optimal >= greedy - 1e-9

    @given(weight_matrix)
    @settings(max_examples=60, deadline=None)
    def test_injective_assignment(self, weights):
        pairs = maximum_weight_matching(weights, use_scipy=False)
        assert len({p.row for p in pairs}) == len(pairs)
        assert len({p.col for p in pairs}) == len(pairs)


def _levenshtein_like(rng):
    length = rng.randint(1, 12)
    return 1.0 - rng.randint(0, length) / length


#: Value kinds of the differential property: uniform, three-value ties,
#: binary, constant, 30%-dense, Levenshtein-like fractions, and decimals
#: whose sums round (where the order of floating-point operations shows).
MATRIX_KINDS = {
    "uniform": lambda rng, constant: rng.random(),
    "ties": lambda rng, constant: rng.choice((0.0, 0.5, 1.0)),
    "binary": lambda rng, constant: float(rng.random() < 0.5),
    "constant": lambda rng, constant: constant,
    "sparse": lambda rng, constant: rng.random() if rng.random() < 0.3 else 0.0,
    "levenshtein": lambda rng, constant: _levenshtein_like(rng),
    "decimal": lambda rng, constant: rng.choice((0.1, 0.2, 0.3)),
}
#: Shapes 1x1 to 40x40, weighted towards the 7-14 wide matrices that
#: projected workflows produce.
sides = st.integers(1, 14) | st.integers(1, 40)


@st.composite
def assignment_matrices(draw):
    rows, cols = draw(sides), draw(sides)
    value = MATRIX_KINDS[draw(st.sampled_from(sorted(MATRIX_KINDS)))]
    rng = draw(st.randoms(use_true_random=False))
    constant = rng.random()
    return [[value(rng, constant) for _ in range(cols)] for _ in range(rows)]


class TestShortestAugmentingPath:
    """Above 6 rows or columns the default ``mw`` backend is a port of
    SciPy's ``linear_sum_assignment``; it must return SciPy's pairs."""

    @pytest.mark.skipif(importlib.util.find_spec("scipy") is None, reason="needs SciPy")
    @seed(FUZZ_SEED)
    @settings(max_examples=300, deadline=None, database=None)
    @given(assignment_matrices())
    def test_returns_scipy_pairs(self, matrix):
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(np.asarray(matrix, dtype=float), maximize=True)
        expected = list(zip(rows.tolist(), cols.tolist()))
        assert _shortest_augmenting_path(matrix, len(matrix), len(matrix[0])) == expected
        if max(len(matrix), len(matrix[0])) > 6:
            assert maximum_weight_matching(matrix) == maximum_weight_matching(
                matrix, use_scipy=True
            )

    @given(weight_matrix)
    @settings(max_examples=60, deadline=None)
    def test_finds_the_optimum(self, weights):
        pairs = _shortest_augmenting_path(weights, len(weights), len(weights[0]))
        assert len(pairs) == min(len(weights), len(weights[0]))
        assert [row for row, _ in pairs] == sorted({row for row, _ in pairs})
        assert len({col for _, col in pairs}) == len(pairs)
        weight = sum(weights[row][col] for row, col in pairs)
        assert weight == pytest.approx(brute_force_best_matching_weight(weights), abs=1e-9)

    def test_reduced_costs_are_summed_in_scipy_order(self):
        # Both assignments weigh 0.4.  SciPy's left-to-right
        # ``minVal + cost - u - v`` reaches column 1 from row 0 at
        # -0.10000000000000003, below its direct -0.1, and swaps the rows;
        # ``minVal + (cost - u - v)`` gives -0.1 and keeps the identity.
        assert _shortest_augmenting_path([[0.3, 0.1], [0.3, 0.1]], 2, 2) == [(0, 1), (1, 0)]

    def test_constant_matrix_gives_the_identity(self):
        assert _shortest_augmenting_path([[1.0] * 9] * 8, 8, 9) == [(i, i) for i in range(8)]
        assert _shortest_augmenting_path([[1.0] * 8] * 9, 9, 8) == [(i, i) for i in range(8)]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_invalid_entries_are_rejected(self, bad):
        matrix = [[0.5] * 7 for _ in range(7)]
        matrix[3][4] = bad
        with pytest.raises(ValueError, match="invalid numeric entries"):
            maximum_weight_matching(matrix)


class TestHungarian:
    def test_square_assignment_complete(self):
        weights = [[0.5, 0.2], [0.3, 0.9]]
        assignment = hungarian_maximum_weight(weights)
        assert sorted(assignment) == [(0, 0), (1, 1)]

    def test_empty(self):
        assert hungarian_maximum_weight([]) == []


class TestNonCrossingMatching:
    def test_prefers_non_crossing_combination(self):
        # The crossing pair (0,1)+(1,0) would weigh 1.8; non-crossing best is 0.9.
        weights = [[0.1, 0.9], [0.9, 0.1]]
        pairs = maximum_weight_noncrossing_matching(weights)
        assert matching_weight(pairs) == pytest.approx(0.9)

    def test_diagonal_is_non_crossing(self):
        weights = [[0.9, 0.0], [0.0, 0.8]]
        pairs = maximum_weight_noncrossing_matching(weights)
        assert {(p.row, p.col) for p in pairs} == {(0, 0), (1, 1)}

    def test_empty(self):
        assert maximum_weight_noncrossing_matching([]) == []

    @given(weight_matrix)
    @settings(max_examples=60, deadline=None)
    def test_result_is_non_crossing(self, weights):
        pairs = maximum_weight_noncrossing_matching(weights)
        ordered = sorted(pairs, key=lambda p: p.row)
        for first, second in zip(ordered, ordered[1:]):
            assert first.row < second.row
            assert first.col < second.col

    @given(weight_matrix)
    @settings(max_examples=60, deadline=None)
    def test_never_exceeds_unconstrained_matching(self, weights):
        constrained = matching_weight(maximum_weight_noncrossing_matching(weights))
        unconstrained = matching_weight(maximum_weight_matching(weights, use_scipy=False))
        assert constrained <= unconstrained + 1e-9
