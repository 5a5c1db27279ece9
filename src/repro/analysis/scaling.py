"""Growth-exponent fitting — the evaluation currency of this repo.

The paper's claims are asymptotic shapes (``O(n)``, ``O(log² n)``,
``O(n^{11/4})``…).  Each experiment measures a time over a geometric
size ladder and uses these fits to compare the measured exponent with
the theorem's.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "PowerLawFit",
    "fit_power_law",
    "fit_power_law_rows",
    "ShapeFit",
    "fit_constant_to_shape",
]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``y = c · x^a`` on log–log scales.

    ``exponent_ci95`` is the half-width of the slope's 95% confidence
    interval under the usual normal-error approximation (meaningless
    for < 3 points, returned as ``inf``).
    """

    exponent: float
    prefactor: float
    exponent_stderr: float
    exponent_ci95: float
    r_squared: float
    npoints: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted law."""
        return self.prefactor * np.asarray(x, dtype=np.float64) ** self.exponent


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> PowerLawFit:
    """Fit ``y ≈ c·x^a`` by ordinary least squares in log space."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    keep = np.isfinite(x) & np.isfinite(y) & (x > 0) & (y > 0)
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise ValueError("need at least two positive, finite points")
    lx, ly = np.log(x), np.log(y)
    a, b = np.polyfit(lx, ly, 1)
    resid = ly - (a * lx + b)
    npts = x.size
    if npts > 2:
        s2 = float(resid @ resid) / (npts - 2)
        sxx = float(((lx - lx.mean()) ** 2).sum())
        stderr = np.sqrt(s2 / sxx) if sxx > 0 else np.inf
    else:
        stderr = np.inf
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return PowerLawFit(
        exponent=float(a),
        prefactor=float(np.exp(b)),
        exponent_stderr=float(stderr),
        exponent_ci95=float(1.96 * stderr),
        r_squared=r2,
        npoints=int(npts),
    )


def fit_power_law_rows(rows: Sequence[dict], *, x: str, y: str = "mean") -> PowerLawFit:
    """Power-law fit over dict rows (the sweep-store ``Frame`` shape).

    Extracts columns ``x`` and ``y`` (missing/None entries become NaN
    and are dropped by :func:`fit_power_law`'s finite-point filter) —
    the one-liner the migrated experiments fit their ladders with.
    """
    xs = [row.get(x) for row in rows]
    ys = [row.get(y) for row in rows]
    to_f = lambda v: float("nan") if v is None else float(v)  # noqa: E731
    return fit_power_law([to_f(v) for v in xs], [to_f(v) for v in ys])


@dataclass(frozen=True)
class ShapeFit:
    """Comparison of measurements against a theorem's growth shape.

    ``constant`` is the least-squares multiplier ``c`` for
    ``measured ≈ c · shape(x)``; ``max_rel_dev`` is the worst relative
    deviation of ``measured / (c·shape)`` from 1.  A claim's shape
    "holds" when the deviation stays modest across the sweep — the
    constant itself is not meaningful (our substrate isn't the paper's
    testbed)."""

    constant: float
    max_rel_dev: float
    ratios: np.ndarray


def fit_constant_to_shape(
    x: Sequence[float],
    measured: Sequence[float],
    shape: Callable[[float], float],
) -> ShapeFit:
    """Fit the single constant in ``measured ≈ c·shape(x)``."""
    x = np.asarray(x, dtype=np.float64)
    measured = np.asarray(measured, dtype=np.float64)
    s = np.array([shape(v) for v in x], dtype=np.float64)
    keep = np.isfinite(measured) & np.isfinite(s) & (s > 0)
    if keep.sum() < 1:
        raise ValueError("no usable points")
    m, s = measured[keep], s[keep]
    c = float((m * s).sum() / (s * s).sum())
    ratios = m / (c * s)
    return ShapeFit(constant=c, max_rel_dev=float(np.abs(ratios - 1.0).max()), ratios=ratios)
