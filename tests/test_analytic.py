import hashlib

import numpy as np
import pytest

from superbunch import (
    FitModel,
    G2Curve,
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


def _fd_jacobian(model, tau, h=1e-5):
    # central differences; h balances truncation against roundoff
    theta = np.asarray(model.values, dtype=float)
    cols = []
    for i in range(theta.size):
        step = h * max(abs(theta[i]), 1.0)
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        high, low = FitModel(model.name, up).curve(tau), FitModel(model.name, dn).curve(tau)
        cols.append((high - low) / (2 * step))
    return np.column_stack(cols)


@pytest.mark.parametrize(
    "model",
    [
        FitModel("speckle", (BW,)),
        FitModel("sinusoid_speckle", (0.7, W0, BW)),
        FitModel("sinusoid_speckle", (0.05, 2 * np.pi * 10e3, 2 * np.pi * 3e3)),
        FitModel("noise_speckle", (200.0, BW)),
    ],
    ids=["speckle", "sinusoid", "sinusoid-low", "noise"],
)
def test_jacobians_match_finite_differences(model):
    tau = np.linspace(-3e-4, 3e-4, 301)
    tau = tau[np.abs(tau) > 1e-9]
    analytic = model.jacobian(tau)
    numeric = _fd_jacobian(model, tau)
    # column-norm relative error: elementwise comparison is ill-posed where
    # a derivative passes through zero and FD roundoff dominates
    for j in range(len(model.values)):
        err = np.linalg.norm(analytic[:, j] - numeric[:, j])
        assert err < 1e-6 * np.linalg.norm(numeric[:, j]), f"column {j}"


def _noisy_curve(name, theta, tau, seed, noise=0.01):
    rng = np.random.default_rng(seed)
    clean = FitModel(name, np.asarray(theta, dtype=float)).curve(tau)
    stderr = noise * np.abs(clean)
    return G2Curve(tau=tau, value=clean + rng.normal(0.0, stderr), stderr=stderr)


def test_fit_recovers_sinusoid_parameters():
    tau = (np.arange(500) + 0.5) * 1e-6
    tau = np.concatenate([-tau[::-1], tau])
    true = (0.8, W0, BW)
    curve = _noisy_curve("sinusoid_speckle", true, tau, seed=42)
    start = FitModel("sinusoid_speckle", (0.5, W0 * 1.02, BW * 1.2))
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
    curve = _noisy_curve("noise_speckle", true, tau, seed=11)
    start = FitModel("noise_speckle", (260.0, BW * 0.7))
    fit = fit_g2(curve, start)
    assert fit.converged
    assert fit.params["cutoff_hz"] == pytest.approx(200.0, rel=0.02)
    assert fit.params["bandwidth"] == pytest.approx(BW, rel=0.05)


def test_fit_recovers_amplitude_and_offset():
    tau = np.linspace(-4e-4, 4e-4, 600)
    clean = 0.2 + 0.9 * g2_speckle(tau, BW)
    curve = G2Curve(tau=tau, value=clean, stderr=np.full(tau.size, 0.005))
    fit = fit_g2(curve, FitModel("speckle", (BW * 1.3,)))
    assert fit.converged
    assert fit.params["amplitude"] == pytest.approx(0.9, rel=1e-4)
    assert fit.params["offset"] == pytest.approx(0.2, abs=1e-4)
    assert fit.params["bandwidth"] == pytest.approx(BW, rel=1e-4)


def test_fit_with_zero_stderr_uses_unit_weights():
    tau = np.linspace(-4e-4, 4e-4, 200)
    clean = g2_speckle(tau, BW)
    curve = G2Curve(tau=tau, value=clean, stderr=np.zeros(tau.size))
    fit = fit_g2(curve, FitModel("speckle", (BW * 1.1,)))
    assert fit.converged
    assert fit.params["bandwidth"] == pytest.approx(BW, rel=1e-6)


def test_fit_requires_enough_points():
    tau = np.linspace(-1e-4, 1e-4, 10)
    curve = G2Curve(tau=tau, value=np.ones(10), stderr=np.ones(10))
    with pytest.raises(ValueError):
        fit_g2(curve, FitModel("sinusoid_speckle", (0.5, W0, BW)))


def test_a_model_takes_one_value_per_parameter():
    names = ("contrast", "mod_omega", "bandwidth")
    assert FitModel("sinusoid_speckle", (0.5, W0, BW)).names == names
    with pytest.raises(ValueError, match="contrast, mod_omega, bandwidth"):
        FitModel("sinusoid_speckle", (0.5, BW))


def test_fit_rejects_start_outside_bounds():
    tau = np.linspace(-1e-4, 1e-4, 100)
    curve = G2Curve(tau=tau, value=np.ones(100), stderr=np.ones(100))
    with pytest.raises(ValueError):
        fit_g2(curve, FitModel("sinusoid_speckle", (1.5, W0, BW)))


def test_contrast_stays_in_unit_interval():
    # data above g2(0)=3 cannot push the fitted contrast beyond 1
    tau = (np.arange(300) + 0.5) * 1e-6
    tau = np.concatenate([-tau[::-1], tau])
    value = 1.15 * g2_sinusoid(tau, 1.0, W0, BW)
    curve = G2Curve(tau=tau, value=value, stderr=np.full(tau.size, 0.01))
    fit = fit_g2(curve, FitModel("sinusoid_speckle", (0.9, W0, BW)))
    assert fit.params["contrast"] <= 1.0


@pytest.mark.parametrize("true_contrast", [1.05, 1.1])
@pytest.mark.parametrize("start_contrast", [1.0, 0.5])
def test_fit_converges_with_contrast_on_its_bound(true_contrast, start_contrast):
    # data beyond contrast 1 pins the fit to the bound; the remaining
    # parameters must still settle in a few steps
    tau = (np.arange(500) + 0.5) * 0.5e-6
    tau = np.concatenate([-tau[::-1], tau])
    curve = _noisy_curve("sinusoid_speckle", (true_contrast, W0, BW), tau, seed=3)
    start = FitModel("sinusoid_speckle", (start_contrast, W0, BW))
    fit = fit_g2(curve, start)
    assert fit.converged
    assert fit.params["contrast"] == 1.0
    assert fit.iterations <= 20
    assert fit.params["mod_omega"] == pytest.approx(W0, rel=1e-3)


def test_iteration_cap_reports_non_convergence():
    tau = (np.arange(300) + 0.5) * 1e-6
    tau = np.concatenate([-tau[::-1], tau])
    curve = _noisy_curve("sinusoid_speckle", (0.8, W0, BW), tau, seed=1)
    start = FitModel("sinusoid_speckle", (0.05, W0 * 1.3, BW * 4))
    fit = fit_g2(curve, start, max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1


def test_scalar_outputs():
    assert isinstance(g2_sinusoid(1e-6, 0.5, W0, BW), float)
    assert isinstance(g2_noise(1e-6, 200.0, BW), float)
    assert isinstance(gamma_noise(1e-6, 200.0), float)
    arr = g2_sinusoid(np.array([0.0, 1e-6]), 0.5, W0, BW)
    assert arr.shape == (2,)


# ---------------------------------------------------------------------------
# golden closed forms and fits
# ---------------------------------------------------------------------------

# the sinc branch switches at |x| = 1e-4: the grid straddles it near zero
GOLDEN_TAU = np.concatenate(
    [np.linspace(-3e-4, 3e-4, 241), [0.0, 1e-12, -1e-12, 3.1e-9, 3.3e-9, -3.2e-9]]
)
GOLDEN_F0 = 2e4


def _ref_sinc(x):
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def _ref_dsinc(x):
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    exact = (np.cos(safe) - np.sin(safe) / safe) / safe
    return np.where(small, -x / 3.0 + x**3 / 30.0, exact)


def _reference_values(tau):
    """The closed forms and Jacobians exactly as first written, operation
    for operation, so the library can be held to them bit for bit on any
    libm."""
    ss = _ref_sinc(tau * BW / 2.0)
    ds = _ref_dsinc(tau * BW / 2.0)
    sn = _ref_sinc(np.pi * GOLDEN_F0 * tau)
    dn = _ref_dsinc(np.pi * GOLDEN_F0 * tau)
    cos_half = np.cos(W0 * tau / 2.0)
    return {
        "g2_speckle": 1.0 + ss * ss,
        "g2_sinusoid": (1.0 + 2.0 * 0.7 * cos_half * cos_half) / (1.0 + 0.7) * (1.0 + ss * ss),
        "gamma_noise": 1.0 + sn * sn,
        "g2_noise": (1.0 + sn * sn) * (1.0 + ss * ss),
        "speckle_jacobian": np.column_stack([2.0 * ss * ds * (tau / 2.0)]),
        "noise_jacobian": np.column_stack(
            [
                2.0 * sn * dn * (np.pi * tau) * (1.0 + ss * ss),
                (1.0 + sn * sn) * 2.0 * ss * ds * (tau / 2.0),
            ]
        ),
    }


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def test_closed_forms_are_bit_identical_to_their_first_form():
    tau = GOLDEN_TAU
    got = {
        "g2_speckle": g2_speckle(tau, BW),
        "g2_sinusoid": g2_sinusoid(tau, 0.7, W0, BW),
        "gamma_noise": gamma_noise(tau, GOLDEN_F0),
        "g2_noise": g2_noise(tau, GOLDEN_F0, BW),
        "speckle_jacobian": FitModel("speckle", (BW,)).jacobian(tau),
        "noise_jacobian": FitModel("noise_speckle", (GOLDEN_F0, BW)).jacobian(tau),
    }
    for name, ref in _reference_values(tau).items():
        assert got[name].shape == ref.shape, name
        assert _digest(got[name]) == _digest(ref), name


# (model name, true parameters, starting point, noise seed) -> iterations,
# converged, {parameter: (value, sigma)} as first fitted
_GOLDEN_FITS = {
    "speckle": (
        ("speckle", (BW,), FitModel("speckle", (1.3 * BW,)), 5),
        5,
        True,
        {
            "bandwidth": (62891.30752399488, 118.19603936379114),
            "amplitude": (1.0031995272781404, 0.0025896164868233163),
            "offset": (-0.0034716574528473212, 0.0026928917556676077),
        },
    ),
    "sinusoid_speckle": (
        (
            "sinusoid_speckle",
            (0.8, W0, BW),
            FitModel("sinusoid_speckle", (0.5, 1.02 * W0, 1.2 * BW)),
            6,
        ),
        12,
        True,
        {
            "contrast": (0.7995544384706109, 0.003291675784527138),
            "mod_omega": (314155.897613777, 4.494081247366424),
            "bandwidth": (62818.9946723618, 117.24780074686407),
            "amplitude": (0.9994690735203113, 0.002192513395278296),
            "offset": (0.00042637215225342927, 0.0022596784511360107),
        },
    ),
    "noise_speckle": (
        ("noise_speckle", (GOLDEN_F0, BW), FitModel("noise_speckle", (2.6e4, 0.7 * BW)), 7),
        6,
        True,
        {
            "cutoff_hz": (20080.306485652418, 56.92451926987196),
            "bandwidth": (62944.77341826235, 114.96378676667842),
            "amplitude": (1.0015138520380193, 0.002280137934782498),
            "offset": (-0.002453754419444314, 0.002351825635356302),
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_FITS))
def test_fits_are_pinned(name):
    (model, theta, start, seed), iterations, converged, expect = _GOLDEN_FITS[name]
    lag = (np.arange(400) + 0.5) * 1e-6
    lag = np.concatenate([-lag[::-1], lag])
    fit = fit_g2(_noisy_curve(model, theta, lag, seed=seed), start)
    assert fit.model == FitModel(model, tuple(fit.params[key] for key in start.names))
    assert fit.iterations == iterations
    assert fit.converged is converged
    assert set(fit.params) == set(expect)
    for key, (value, sigma) in expect.items():
        assert fit.params[key] == pytest.approx(value, rel=1e-12), key
        assert fit.sigmas[key] == pytest.approx(sigma, rel=1e-12), key


def test_unidentified_parameter_gets_its_own_infinite_sigma():
    # a modulation in antiphase asks for a negative contrast: the fit ends
    # on the bound 0, where mod_omega no longer changes the curve
    tau = (np.arange(400) + 0.5) * 1e-6
    tau = np.concatenate([-tau[::-1], tau])
    clean = (1.0 - 0.2 * np.cos(W0 * tau)) * g2_speckle(tau, BW)
    curve = G2Curve(tau=tau, value=clean, stderr=np.full(tau.size, 0.01))
    fit = fit_g2(curve, FitModel("sinusoid_speckle", (0.3, W0, BW)))
    assert fit.params["contrast"] == 0.0
    assert fit.converged
    assert fit.sigmas["mod_omega"] == np.inf
    for key in ("contrast", "bandwidth", "amplitude", "offset"):
        assert np.isfinite(fit.sigmas[key]) and fit.sigmas[key] > 0, key
