"""Tests for the KDE curves (Figure 9)."""

import numpy as np
import pytest

from repro.analysis import kde_curve
from repro.errors import ReproError


class TestKDECurve:
    def test_peak_near_sample_mode(self):
        samples = [5.0] * 30 + [12.0] * 5
        curve = kde_curve(samples)
        peak_x, _ = curve.peak()
        assert abs(peak_x - 5.0) < 1.5

    def test_density_nonnegative(self):
        curve = kde_curve([1.0, 2.0, 3.0, 8.0])
        assert all(d >= 0 for d in curve.density)

    def test_density_integrates_to_about_one(self):
        curve = kde_curve(list(np.random.default_rng(0).normal(5, 2, 200)))
        grid = np.asarray(curve.grid)
        density = np.asarray(curve.density)
        integral = np.trapezoid(density, grid)
        assert integral == pytest.approx(1.0, abs=0.05)

    def test_degenerate_sample_single_bump(self):
        curve = kde_curve([4.0, 4.0, 4.0])
        peak_x, _ = curve.peak()
        assert abs(peak_x - 4.0) < 0.5

    def test_single_sample_supported(self):
        curve = kde_curve([2.0])
        assert curve.sample_size == 1

    def test_empty_raises(self):
        with pytest.raises(ReproError):
            kde_curve([])

    def test_bimodal_detects_two_peaks(self):
        samples = [3.0 + 0.1 * i for i in range(10)] + [15.0 + 0.1 * i for i in range(10)]
        curve = kde_curve(samples, bandwidth=0.3)
        peaks = curve.peaks(min_prominence=0.2)
        assert len(peaks) >= 2

    def test_grid_bounds_honoured(self):
        curve = kde_curve([5.0, 6.0], grid_min=0.0, grid_max=10.0)
        assert curve.grid[0] == pytest.approx(0.0)
        assert curve.grid[-1] == pytest.approx(10.0)


class TestKDEArguments:
    """Bad arguments raise ``ReproError`` before any density is computed."""

    @pytest.mark.parametrize("points", [1, 0, -3])
    def test_too_few_grid_points_rejected(self, points):
        with pytest.raises(ReproError, match="at least 2 points"):
            kde_curve([1.0], points=points)
        with pytest.raises(ReproError, match="at least 2 points"):
            kde_curve([1.0, 2.0, 3.0], points=points)

    @pytest.mark.parametrize(
        "samples", [[1.0], [4.0, 4.0], [1.0, 2.0, 3.0]],
        ids=["single", "degenerate", "spread"],
    )
    @pytest.mark.parametrize(
        "bandwidth", [0.0, -1.0, float("inf"), float("nan")]
    )
    def test_bandwidth_must_be_positive_and_finite(self, samples, bandwidth):
        with pytest.raises(ReproError, match="bandwidth"):
            kde_curve(samples, bandwidth=bandwidth)

    @pytest.mark.parametrize(
        "bounds", [(5.0, 5.0), (10.0, 0.0), (100.0, None), (None, -100.0)],
        ids=["equal", "reversed", "lone-min", "lone-max"],
    )
    def test_grid_must_run_upwards(self, bounds):
        low, high = bounds
        with pytest.raises(ReproError, match="grid_min"):
            kde_curve([5.0, 6.0], grid_min=low, grid_max=high)

    def test_smallest_valid_grid(self):
        curve = kde_curve([1.0], points=2, bandwidth=0.5)
        assert len(curve.grid) == 2
        assert all(d > 0 for d in curve.density)

    def test_explicit_bandwidth_sets_the_degenerate_bump(self):
        narrow = kde_curve([4.0], grid_min=0.0, grid_max=8.0, bandwidth=0.5)
        wide = kde_curve([4.0], grid_min=0.0, grid_max=8.0, bandwidth=2.0)
        assert narrow.peak()[1] > wide.peak()[1]
