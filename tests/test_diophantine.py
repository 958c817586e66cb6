"""Diophantine scans and the norm-lifting ratio probe."""

import os
import subprocess
import sys

import numpy as np
import pytest

import mmpsim
from mmpsim.diophantine import check_diophantine, lifting_ratio
from mmpsim.spectral import GridSpec

BADLY_APPROXIMABLE = (1.0, np.sqrt(2.0), np.sqrt(3.0))


class TestCheckDiophantine:
    def test_axis_vector_degenerate(self):
        report = check_diophantine((1.0, 0.0, 0.0), r=2.5, k_max=8)
        assert report.degenerate
        assert report.c_est == 0.0
        k = np.array(report.argmin_k)
        assert abs(np.dot((1.0, 0.0, 0.0), k)) < 1e-14
        assert np.any(k != 0)

    def test_diagonal_vector_degenerate(self):
        report = check_diophantine((1.0, 1.0, 0.0), r=2.5, k_max=8)
        assert report.degenerate
        k = np.array(report.argmin_k)
        assert abs(np.dot((1.0, 1.0, 0.0), k)) < 1e-14

    def test_zero_vector_immediately_degenerate(self):
        report = check_diophantine((0.0, 0.0, 0.0), r=2.5, k_max=4)
        assert report.degenerate and report.c_est == 0.0

    def test_irrational_vector_nondegenerate(self):
        report = check_diophantine(BADLY_APPROXIMABLE, r=2.5, k_max=64)
        assert not report.degenerate
        assert report.c_est > 0.0
        k = np.array(report.argmin_k)
        expected = abs(np.dot(BADLY_APPROXIMABLE, k)) * \
            float(np.dot(k, k)) ** 1.25
        assert report.c_est == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_search_radius(self):
        values = [check_diophantine(BADLY_APPROXIMABLE, 2.5, k).c_est
                  for k in (16, 32, 64)]
        assert values[0] >= values[1] >= values[2] > 0.0

    def test_scaling(self):
        base = check_diophantine(BADLY_APPROXIMABLE, 2.5, 32)
        scaled = check_diophantine(tuple(3.0 * a for a in BADLY_APPROXIMABLE),
                                   2.5, 32)
        assert scaled.c_est == pytest.approx(3.0 * base.c_est, rel=1e-12)
        assert scaled.argmin_k == base.argmin_k

    def test_small_exponent_warns(self):
        with pytest.warns(UserWarning):
            check_diophantine(BADLY_APPROXIMABLE, r=1.5, k_max=4)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf, 1e308, 367.0])
    def test_non_finite_or_overflowing_exponent_refused(self, r):
        # at k_max = 4 the largest weight |k|^r is 48^(r/2), which
        # overflows from r = 366.7; nan used to report c_est = inf
        with pytest.raises(ValueError, match="Diophantine exponent r"):
            check_diophantine(BADLY_APPROXIMABLE, r, 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exponent_below_the_overflow_accepted(self):
        report = check_diophantine(BADLY_APPROXIMABLE, 360.0, 4)
        assert np.isfinite(report.c_est) and report.c_est > 0.0

    @pytest.mark.parametrize("alpha", [(np.nan, 0.0, 0.0), (np.inf, 1.0, 1.0)])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match="finite 3-vector"):
            check_diophantine(alpha, 2.5, 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha, r", [
        ((1e308, 1e308, 1.0), 2.5), ((1e306, 0.0, 0.0), 2.5),
        ((1e200, 1.0, 1.0), 200.0)])
    def test_overflowing_alpha_refused(self, alpha, r):
        # alpha.k or |alpha.k| |k|^r overflows at a corner of the lattice
        # |k|_inf <= 4; (1e308, 1e308, 1) used to report c_est = 0, resonant
        with pytest.raises(ValueError, match="alpha="):
            check_diophantine(alpha, r, 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alpha_below_the_overflow_accepted(self):
        # at k_max = 4 and r = 2.5 the largest product is 4e305 48^1.25
        report = check_diophantine((1e305, np.sqrt(2.0), np.sqrt(3.0)), 2.5, 4)
        assert np.isfinite(report.c_est) and report.c_est > 0.0

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            check_diophantine(BADLY_APPROXIMABLE, 2.5, 0)
        with pytest.raises(ValueError):
            check_diophantine(BADLY_APPROXIMABLE, 2.5, 1000)


class TestLiftingRatio:
    def test_single_mode_exact(self):
        from mmpsim.spectral import SpectralScalarField, alpha_dot_grad
        from mmpsim.norms import sobolev_norm
        g = GridSpec(16)
        coeffs = np.zeros((g.n,) * 3, dtype=complex)
        coeffs[1, 0, 0] = 0.5
        coeffs[-1, 0, 0] = 0.5
        f = SpectralScalarField(coeffs, g)
        r = 2.5
        transported = alpha_dot_grad(f, BADLY_APPROXIMABLE)
        ratio = sobolev_norm(f, 0.0) / sobolev_norm(transported, r)
        expected = 1.0 / (abs(BADLY_APPROXIMABLE[0]) * 2.0 ** (r / 2.0))
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_trials_below_mode_bound(self):
        g = GridSpec(16)
        report = lifting_ratio(BADLY_APPROXIMABLE, s=0.0, r=2.5, grid=g,
                               trials=25, seed=3)
        assert report.max_ratio <= report.mode_bound * (1.0 + 1e-10)
        assert report.mean_ratio <= report.max_ratio
        k = report.bound_mode
        dot = abs(sum(a * ki for a, ki in zip(BADLY_APPROXIMABLE, k)))
        ksq = sum(ki * ki for ki in k)
        assert report.mode_bound == pytest.approx(
            1.0 / (dot * (1.0 + ksq) ** 1.25), rel=1e-12)

    def test_degenerate_alpha_names_null_vector(self):
        g = GridSpec(16)
        with pytest.raises(ValueError) as exc:
            lifting_ratio((1.0, 1.0, 0.0), s=0.0, r=2.5, grid=g, trials=5,
                          seed=0)
        assert "k=" in str(exc.value)

    def test_deterministic(self):
        g = GridSpec(16)
        a = lifting_ratio(BADLY_APPROXIMABLE, 0.0, 2.5, g, trials=5, seed=9)
        b = lifting_ratio(BADLY_APPROXIMABLE, 0.0, 2.5, g, trials=5, seed=9)
        assert a.max_ratio == b.max_ratio and a.mean_ratio == b.mean_ratio


@pytest.mark.parametrize("module", [
    "mmpsim", "mmpsim.diophantine", "mmpsim.config", "mmpsim.cli",
    "mmpsim.selftest", "mmpsim.norms", "mmpsim.fields", "mmpsim.checkpoint"])
def test_module_imports_first(module):
    # diophantine imports norms at its top: no module cycle runs through it
    src = os.path.dirname(os.path.dirname(mmpsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
