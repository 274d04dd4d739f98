"""Gaussian kernel density estimation (Figure 9's KDE curves).

Thin wrapper over :func:`scipy.stats.gaussian_kde` that degrades
gracefully for degenerate samples (all-identical values get a narrow
Gaussian bump instead of a crash) and evaluates on an explicit grid.
scipy is imported on the first non-degenerate estimate, so importing
:mod:`repro` does not pay for ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError


@dataclass(frozen=True)
class KDECurve:
    """A density curve sampled on a grid."""

    grid: Tuple[float, ...]
    density: Tuple[float, ...]
    sample_size: int

    def peak(self) -> Tuple[float, float]:
        """(x, density) of the curve's highest point."""
        index = int(np.argmax(self.density))
        return self.grid[index], self.density[index]

    def peaks(self, min_prominence: float = 0.05) -> List[float]:
        """Grid locations of local maxima above a prominence floor."""
        density = np.asarray(self.density)
        ceiling = density.max() if density.size else 0.0
        found: List[float] = []
        for i in range(1, len(density) - 1):
            if (
                density[i] > density[i - 1]
                and density[i] >= density[i + 1]
                and density[i] >= min_prominence * ceiling
            ):
                found.append(self.grid[i])
        return found


def kde_curve(
    samples: Sequence[float],
    grid_min: Optional[float] = None,
    grid_max: Optional[float] = None,
    points: int = 200,
    bandwidth: Optional[float] = None,
) -> KDECurve:
    """Gaussian KDE of ``samples`` evaluated on a uniform grid.

    ``bandwidth``, when given, must be positive and finite: it is the
    bump's width for a degenerate sample and scipy's bandwidth factor
    otherwise.  The grid needs at least two ``points`` and must run
    upwards; bad arguments raise :class:`~repro.errors.ReproError`.
    """
    data = np.asarray(list(samples), dtype=np.float64)
    if data.size == 0:
        raise ReproError("cannot estimate a density from zero samples")
    if points < 2:
        raise ReproError(f"a density grid needs at least 2 points, got {points}")
    if bandwidth is not None and not (np.isfinite(bandwidth) and bandwidth > 0):
        raise ReproError(f"bandwidth must be positive and finite, got {bandwidth}")
    spread = data.max() - data.min()
    low = grid_min if grid_min is not None else data.min() - max(spread, 1.0)
    high = grid_max if grid_max is not None else data.max() + max(spread, 1.0)
    if not low < high:
        raise ReproError(f"grid_min ({low}) must be below grid_max ({high})")
    grid = np.linspace(low, high, points)
    if data.size < 2 or spread == 0.0:
        # Degenerate sample: a single Gaussian bump at the common value.
        sigma = 1.0 if bandwidth is None else bandwidth
        density = np.exp(-0.5 * ((grid - data[0]) / sigma) ** 2)
        density /= density.sum() * (grid[1] - grid[0])
    else:
        from scipy import stats

        kde = stats.gaussian_kde(data, bw_method=bandwidth)
        density = kde(grid)
    return KDECurve(
        grid=tuple(float(x) for x in grid),
        density=tuple(float(d) for d in density),
        sample_size=int(data.size),
    )
