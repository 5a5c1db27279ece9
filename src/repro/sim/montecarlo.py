"""Monte-Carlo trial summaries: :class:`TrialSummary` and
:func:`summarize_trials`.

Every path that produces trial values — the vectorized engines and the
serial seed-spawned loop of :func:`repro.sim.facade.run_batch`, and the
analysis helpers — reduces them to one :class:`TrialSummary` here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TrialSummary", "summarize_trials"]


@dataclass(frozen=True)
class TrialSummary:
    """Summary statistics over trial outcomes (NaNs = failed trials).

    With a single successful trial ``std`` and ``ci95_half_width`` are
    ``nan``: one sample carries no spread information, and reporting
    ``0.0`` would present a point estimate as a zero-width interval.

    This is the single summary type for the whole repo:
    :func:`repro.analysis.stats.summarize` returns it too, so facade
    batches, Monte-Carlo harness output, and analysis tables all speak
    one schema.
    """

    values: np.ndarray
    mean: float
    std: float
    median: float
    ci95_half_width: float
    failures: int
    q25: float = np.nan
    q75: float = np.nan
    minimum: float = np.nan
    maximum: float = np.nan

    @property
    def trials(self) -> int:
        """Total number of trials, failed ones included."""
        return int(self.values.size)

    @property
    def n(self) -> int:
        """Number of successful (non-NaN) trials."""
        return int(self.values.size) - self.failures


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` of a sorted, NaN-free, non-empty array.

    numpy's default (``'linear'``) method step for step: the virtual
    index ``n*q + (1-q) - 1`` (clamped to the last value at or past
    ``n - 1``, where numpy's fraction becomes ``index + 1``), then its
    ``_lerp``, which interpolates down from the upper neighbour when
    the fraction is at least 0.5 — so the float comes out identical,
    without numpy's per-call overhead.
    """
    n = ordered.size
    virtual = n * q + (1 - q) - 1
    if virtual >= n - 1:
        lo = hi = n - 1
        t = virtual + 1
    else:
        lo = math.floor(virtual)
        hi = lo + 1
        t = virtual - lo
    a, b = ordered.item(lo), ordered.item(hi)
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def summarize_trials(values: np.ndarray) -> TrialSummary:
    """Build a :class:`TrialSummary` from raw trial values.

    NaNs count as failures and are left out of every statistic.  The
    successful values are sorted once and the median and quartiles read
    off that array with numpy's own formulas, so they equal
    ``np.median`` and ``np.quantile(…, 0.25/0.75)`` (up to the sign of a
    zero, which numpy's partition may order differently).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    ok = values[~np.isnan(values)]
    failures = int(values.size - ok.size)
    if ok.size == 0:
        return TrialSummary(values, np.nan, np.nan, np.nan, np.nan, failures)
    mean = float(ok.mean())
    # one sample has no spread information: report nan, not a zero-width
    # confidence interval that dresses a point estimate up as certainty
    std = float(ok.std(ddof=1)) if ok.size > 1 else float("nan")
    half = 1.96 * std / np.sqrt(ok.size) if ok.size > 1 else float("nan")
    ordered = np.sort(ok)
    mid = ordered.size // 2
    if ordered.size % 2:
        median = ordered.item(mid)
    else:
        median = (ordered.item(mid - 1) + ordered.item(mid)) / 2
    return TrialSummary(
        values,
        mean,
        std,
        median,
        half,
        failures,
        q25=_sorted_quantile(ordered, 0.25),
        q75=_sorted_quantile(ordered, 0.75),
        minimum=ordered.item(0),
        maximum=ordered.item(-1),
    )

