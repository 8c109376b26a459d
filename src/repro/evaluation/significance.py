"""Statistical significance testing for measure comparisons.

The paper reports paired t-tests (p < 0.05) when comparing the per-query
ranking correctness of two algorithms.  A pure-Python implementation of
the paired t-test is provided (with the p-value from the incomplete beta
function via SciPy when available, or a normal approximation otherwise),
so significance statements in the benchmarks do not silently depend on
optional packages.  ``scipy.stats`` is imported by the first p-value
computed, not when this module loads, so importing the evaluation
package does not load SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["PairedTTestResult", "paired_t_test"]


@dataclass(frozen=True)
class PairedTTestResult:
    """Result of a paired t-test."""

    statistic: float
    p_value: float
    degrees_of_freedom: int
    mean_difference: float

    @property
    def significant(self) -> bool:
        """Whether the difference is significant at the paper's 0.05 level."""
        return self.p_value < 0.05


def _two_sided_p_from_t(t_statistic: float, dof: int) -> float:
    """Two-sided p-value of a t statistic.

    Uses SciPy's exact survival function when available and a normal
    approximation (adequate for dof >= 8, which all experiments satisfy)
    otherwise.
    """
    try:
        from scipy import stats
    except ImportError:  # pragma: no cover - SciPy is normally present
        # Normal approximation with a light dof correction.
        adjusted = abs(t_statistic) * (1.0 - 1.0 / (4.0 * dof))
        return float(2.0 * 0.5 * math.erfc(adjusted / math.sqrt(2.0)))
    return float(2.0 * stats.t.sf(abs(t_statistic), dof))


def paired_t_test(first: Sequence[float], second: Sequence[float]) -> PairedTTestResult:
    """Paired t-test over two matched samples (e.g. per-query correctness).

    Raises
    ------
    ValueError
        If the samples differ in length or contain fewer than two pairs.
    """
    if len(first) != len(second):
        raise ValueError("paired samples must have the same length")
    if len(first) < 2:
        raise ValueError("need at least two pairs for a paired t-test")
    differences = [a - b for a, b in zip(first, second)]
    count = len(differences)
    mean_diff = sum(differences) / count
    variance = sum((d - mean_diff) ** 2 for d in differences) / (count - 1)
    dof = count - 1
    if variance == 0.0:
        statistic = 0.0 if mean_diff == 0.0 else math.inf
        p_value = 1.0 if mean_diff == 0.0 else 0.0
        return PairedTTestResult(statistic, p_value, dof, mean_diff)
    statistic = mean_diff / math.sqrt(variance / count)
    p_value = _two_sided_p_from_t(statistic, dof)
    return PairedTTestResult(statistic, p_value, dof, mean_diff)
