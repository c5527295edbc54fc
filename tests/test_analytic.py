import numpy as np
import pytest

from superbunch import (
    G2Curve,
    NoiseSpeckle,
    SinusoidSpeckle,
    SpeckleOnly,
    fit_g2,
    g2_noise,
    g2_sinusoid,
    g2_speckle,
    g2_zero_sinusoid,
    gamma_noise,
)

BW = 2 * np.pi * 10e3
W0 = 2 * np.pi * 50e3


def test_speckle_curve_reference_values():
    assert g2_speckle(0.0, BW) == pytest.approx(2.0)
    # sinc zero at bandwidth*tau/2 = pi
    assert g2_speckle(2 * np.pi / BW, BW) == pytest.approx(1.0, abs=1e-12)
    assert g2_speckle(1.0, BW) == pytest.approx(1.0, abs=1e-9)
    assert isinstance(g2_speckle(0.0, BW), float)


def test_sinusoid_zero_lag_runs_from_two_to_three():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    expected = [2.0, 2.4, 8.0 / 3.0, 20.0 / 7.0, 3.0]
    for c, e in zip(grid, expected):
        assert g2_zero_sinusoid(c) == pytest.approx(e, abs=1e-12)
        assert g2_sinusoid(0.0, c, W0, BW) == pytest.approx(e, abs=1e-12)
    values = [g2_zero_sinusoid(c) for c in grid]
    assert np.all(np.diff(values) > 0)


def test_sinusoid_factorizes_into_modulation_times_speckle():
    tau = np.linspace(-2e-4, 2e-4, 401)
    zero_contrast = g2_sinusoid(tau, 0.0, W0, BW)
    assert np.allclose(zero_contrast, g2_speckle(tau, BW))
    # peak:plateau structure at full contrast: envelope max 6, plateau max 2
    # (normalized curve: 3 at zero lag, oscillating around 1 at large lag)
    full = g2_sinusoid(tau, 1.0, W0, BW)
    assert full.max() == pytest.approx(3.0, abs=1e-6)
    far = g2_sinusoid(np.linspace(0.01, 0.0100 + 4e-5, 1000), 1.0, W0, BW)
    assert far.max() == pytest.approx(1.5, abs=1e-3)
    assert far.min() == pytest.approx(0.5, abs=1e-3)
    assert far.mean() == pytest.approx(1.0, abs=1e-2)


def test_noise_curve_reference_values():
    assert gamma_noise(0.0, 200.0) == pytest.approx(2.0)
    assert gamma_noise(1.0 / 200.0, 200.0) == pytest.approx(1.0, abs=1e-12)
    assert g2_noise(0.0, 200.0, BW) == pytest.approx(4.0)
    # both factors die off: background 1
    assert g2_noise(0.5, 200.0, BW) == pytest.approx(1.0, abs=1e-4)
    # with the speckle factor dead, the noise factor alone peaks at 2
    assert g2_noise(1e-3, 200.0, BW) == pytest.approx(gamma_noise(1e-3, 200.0), abs=1e-3)


def _fd_jacobian(model_cls, tau, theta, h=1e-5):
    # central differences; h balances truncation against roundoff
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i in range(theta.size):
        step = h * max(abs(theta[i]), 1.0)
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        cols.append((model_cls.curve(tau, up) - model_cls.curve(tau, dn)) / (2 * step))
    return np.column_stack(cols)


@pytest.mark.parametrize(
    "model",
    [
        SpeckleOnly(bandwidth=BW),
        SinusoidSpeckle(contrast=0.7, mod_omega=W0, bandwidth=BW),
        SinusoidSpeckle(contrast=0.05, mod_omega=2 * np.pi * 10e3, bandwidth=2 * np.pi * 3e3),
        NoiseSpeckle(cutoff_hz=200.0, bandwidth=BW),
    ],
    ids=["speckle", "sinusoid", "sinusoid-low", "noise"],
)
def test_jacobians_match_finite_differences(model):
    tau = np.linspace(-3e-4, 3e-4, 301)
    tau = tau[np.abs(tau) > 1e-9]
    theta = np.array(model.start(), dtype=float)
    analytic = model.jacobian(tau, theta)
    numeric = _fd_jacobian(type(model), tau, theta)
    # column-norm relative error: elementwise comparison is ill-posed where
    # a derivative passes through zero and FD roundoff dominates
    for j in range(theta.size):
        err = np.linalg.norm(analytic[:, j] - numeric[:, j])
        assert err < 1e-6 * np.linalg.norm(numeric[:, j]), f"column {j}"


def _noisy_curve(model_cls, theta, tau, seed, noise=0.01):
    rng = np.random.default_rng(seed)
    clean = model_cls.curve(tau, np.asarray(theta, dtype=float))
    stderr = noise * np.abs(clean)
    return G2Curve(tau=tau, value=clean + rng.normal(0.0, stderr), stderr=stderr)


def test_fit_recovers_sinusoid_parameters():
    tau = (np.arange(500) + 0.5) * 1e-6
    tau = np.concatenate([-tau[::-1], tau])
    true = (0.8, W0, BW)
    curve = _noisy_curve(SinusoidSpeckle, true, tau, seed=42)
    start = SinusoidSpeckle(contrast=0.5, mod_omega=W0 * 1.02, bandwidth=BW * 1.2)
    fit = fit_g2(curve, start)
    assert fit.converged
    assert fit.params["contrast"] == pytest.approx(0.8, rel=0.02)
    assert fit.params["mod_omega"] == pytest.approx(W0, rel=0.01)
    assert fit.params["amplitude"] == pytest.approx(1.0, rel=0.05)
    assert abs(fit.params["offset"]) < 0.05
    assert fit.sigmas["contrast"] > 0


def test_fit_recovers_noise_parameters():
    tau = (np.arange(800) + 0.5) * 2e-5
    tau = np.concatenate([-tau[::-1], tau])
    true = (200.0, BW)
    curve = _noisy_curve(NoiseSpeckle, true, tau, seed=11)
    start = NoiseSpeckle(cutoff_hz=260.0, bandwidth=BW * 0.7)
    fit = fit_g2(curve, start)
    assert fit.converged
    assert fit.params["cutoff_hz"] == pytest.approx(200.0, rel=0.02)
    assert fit.params["bandwidth"] == pytest.approx(BW, rel=0.05)


def test_fit_recovers_amplitude_and_offset():
    tau = np.linspace(-4e-4, 4e-4, 600)
    clean = 0.2 + 0.9 * SpeckleOnly.curve(tau, np.array([BW]))
    curve = G2Curve(tau=tau, value=clean, stderr=np.full(tau.size, 0.005))
    fit = fit_g2(curve, SpeckleOnly(bandwidth=BW * 1.3))
    assert fit.converged
    assert fit.params["amplitude"] == pytest.approx(0.9, rel=1e-4)
    assert fit.params["offset"] == pytest.approx(0.2, abs=1e-4)
    assert fit.params["bandwidth"] == pytest.approx(BW, rel=1e-4)


def test_fit_with_zero_stderr_uses_unit_weights():
    tau = np.linspace(-4e-4, 4e-4, 200)
    clean = SpeckleOnly.curve(tau, np.array([BW]))
    curve = G2Curve(tau=tau, value=clean, stderr=np.zeros(tau.size))
    fit = fit_g2(curve, SpeckleOnly(bandwidth=BW * 1.1))
    assert fit.converged
    assert fit.params["bandwidth"] == pytest.approx(BW, rel=1e-6)


def test_fit_requires_enough_points():
    tau = np.linspace(-1e-4, 1e-4, 10)
    curve = G2Curve(tau=tau, value=np.ones(10), stderr=np.ones(10))
    with pytest.raises(ValueError):
        fit_g2(curve, SinusoidSpeckle(contrast=0.5, mod_omega=W0, bandwidth=BW))


def test_fit_rejects_start_outside_bounds():
    tau = np.linspace(-1e-4, 1e-4, 100)
    curve = G2Curve(tau=tau, value=np.ones(100), stderr=np.ones(100))
    with pytest.raises(ValueError):
        fit_g2(curve, SinusoidSpeckle(contrast=1.5, mod_omega=W0, bandwidth=BW))


def test_contrast_stays_in_unit_interval():
    # data above g2(0)=3 cannot push the fitted contrast beyond 1
    tau = (np.arange(300) + 0.5) * 1e-6
    tau = np.concatenate([-tau[::-1], tau])
    value = 1.15 * SinusoidSpeckle.curve(tau, np.array([1.0, W0, BW]))
    curve = G2Curve(tau=tau, value=value, stderr=np.full(tau.size, 0.01))
    fit = fit_g2(curve, SinusoidSpeckle(contrast=0.9, mod_omega=W0, bandwidth=BW))
    assert fit.params["contrast"] <= 1.0


@pytest.mark.parametrize("true_contrast", [1.05, 1.1])
@pytest.mark.parametrize("start_contrast", [1.0, 0.5])
def test_fit_converges_with_contrast_on_its_bound(true_contrast, start_contrast):
    # data beyond contrast 1 pins the fit to the bound; the remaining
    # parameters must still settle in a few steps
    tau = (np.arange(500) + 0.5) * 0.5e-6
    tau = np.concatenate([-tau[::-1], tau])
    curve = _noisy_curve(SinusoidSpeckle, (true_contrast, W0, BW), tau, seed=3)
    start = SinusoidSpeckle(contrast=start_contrast, mod_omega=W0, bandwidth=BW)
    fit = fit_g2(curve, start)
    assert fit.converged
    assert fit.params["contrast"] == 1.0
    assert fit.iterations <= 20
    assert fit.params["mod_omega"] == pytest.approx(W0, rel=1e-3)


def test_iteration_cap_reports_non_convergence():
    tau = (np.arange(300) + 0.5) * 1e-6
    tau = np.concatenate([-tau[::-1], tau])
    curve = _noisy_curve(SinusoidSpeckle, (0.8, W0, BW), tau, seed=1)
    start = SinusoidSpeckle(contrast=0.05, mod_omega=W0 * 1.3, bandwidth=BW * 4)
    fit = fit_g2(curve, start, max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1


def test_scalar_outputs():
    assert isinstance(g2_sinusoid(1e-6, 0.5, W0, BW), float)
    assert isinstance(g2_noise(1e-6, 200.0, BW), float)
    assert isinstance(gamma_noise(1e-6, 200.0), float)
    arr = g2_sinusoid(np.array([0.0, 1e-6]), 0.5, W0, BW)
    assert arr.shape == (2,)
