"""Closed-form correlation curves and weighted least-squares fitting.

The modulated laser and the rotating ground glass fluctuate independently,
so every g2 curve of this source is a product of two factors,

    g2(tau) = g2_mod(tau) * g2_speckle(tau),
    g2_speckle(tau) = 1 + sinc^2(bw * tau / 2),

with sinc(x) = sin(x)/x and one modulation factor per fit model:

    speckle             g2_mod = 1
    sinusoid_speckle    g2_mod = (1 + 2 c cos^2(w0 tau / 2)) / (1 + c)
    noise_speckle       g2_mod = 1 + sinc^2(pi f0 tau)

`c` is the modulation contrast parameter: the sinusoid curve peaks at
2 + 2c/(1+c) and its background oscillates between 1 and (1+2c)/(1+c)
around a mean of 1.  The noise curve peaks at 4 over a background of 1.

Each factor is written once, as a function of (tau, *parameters) that
returns its value and one derivative column per parameter.  A fit model
is a frozen dataclass whose fields are its modulation factor's parameters
followed by `bandwidth`; `_Product` turns the two factors into the curve
and, by the product rule, its Jacobian.  A new modulation therefore
slots in as one factor function plus one model class that names the
factor, its `[analysis] model` name and its parameter bounds, listed in
MODELS.

Fitting uses damped Gauss-Newton steps on weighted residuals with these
analytic Jacobians; an overall amplitude and offset ride along as
nuisance parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from .correlator import G2Curve

_SMALL = 1e-4


def _sinc(x):
    """sin(x)/x with a series expansion below |x| = 1e-4."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SMALL
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def _dsinc(x):
    """d/dx of sin(x)/x, series below |x| = 1e-4."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SMALL
    safe = np.where(small, 1.0, x)
    exact = (np.cos(safe) - np.sin(safe) / safe) / safe
    return np.where(small, -x / 3.0 + x**3 / 30.0, exact)


def _scalar_ok(out, tau):
    return float(out) if np.ndim(tau) == 0 else out


# factors: each returns its value and one derivative column per parameter


def _unmodulated(tau):
    """Constant intensity: the factor 1, with no parameters."""
    return 1.0, ()


def _sinusoid(tau, c, w0):
    """Sinusoidal drive with contrast parameter c and angular frequency w0."""
    cos_half = np.cos(w0 * tau / 2.0)
    value = (1.0 + 2.0 * c * cos_half * cos_half) / (1.0 + c)
    d_c = (2.0 * cos_half * cos_half - 1.0) / (1.0 + c) ** 2
    d_w0 = -(c * tau * np.sin(w0 * tau)) / (1.0 + c)
    return value, (d_c, d_w0)


def _thermal(x, dx, outer=1.0):
    """1 + sinc^2(x), the factor of thermal light, and a derivative column.

    `dx` is the derivative of x by the parameter, and `outer` the factor
    this one multiplies.  `outer` enters the product first, so the column
    rounds as the left-to-right product outer * 2 s sinc'(x) * dx that
    tests/test_analytic.py pins.
    """
    s = _sinc(x)
    return 1.0 + s * s, outer * 2.0 * s * _dsinc(x) * dx


def _noise(tau, f0):
    """Thermal-statistics noise over a flat band f0 wide."""
    value, d_f0 = _thermal(np.pi * f0 * tau, np.pi * tau)
    return value, (d_f0,)


def _speckle(tau, bw, outer=1.0):
    """The speckle factor, and the bandwidth derivative of `outer` times it."""
    return _thermal(tau * bw / 2.0, tau / 2.0, outer)


class _Product:
    """g2 = factor(tau, *fields before bandwidth) * speckle(tau, bandwidth)."""

    names: tuple = ()  # the dataclass fields, in order; set by _fit_model
    factor = staticmethod(_unmodulated)

    def start(self):
        return [getattr(self, k) for k in self.names]

    @classmethod
    def min_points(cls) -> int:
        """Curve points a fit needs: five per parameter, amplitude and offset included."""
        return 5 * (len(cls.names) + 2)

    @classmethod
    def curve(cls, tau, theta):
        tau_arr = np.asarray(tau, dtype=float)
        *args, bw = theta
        mod = cls.factor(tau_arr, *args)[0]
        return _scalar_ok(mod * _speckle(tau_arr, bw)[0], tau)

    @classmethod
    def jacobian(cls, tau, theta):
        *args, bw = theta
        mod, d_mod = cls.factor(tau, *args)
        spk, d_bw = _speckle(tau, bw, mod)
        return np.column_stack([d * spk for d in d_mod] + [d_bw])


def _fit_model(cls):
    """Freeze a model class into a dataclass whose fields name its parameters."""
    cls = dataclass(frozen=True)(cls)
    cls.names = tuple(f.name for f in fields(cls))
    return cls


@_fit_model
class SpeckleOnly(_Product):
    """Free parameter: speckle bandwidth (rad/s)."""

    bandwidth: float

    name = "speckle"
    bounds = ((1e-12, np.inf),)


@_fit_model
class SinusoidSpeckle(_Product):
    """Free parameters: contrast, drive angular frequency, bandwidth."""

    contrast: float
    mod_omega: float
    bandwidth: float

    name = "sinusoid_speckle"
    bounds = ((0.0, 1.0), (1e-12, np.inf), (1e-12, np.inf))
    factor = staticmethod(_sinusoid)


@_fit_model
class NoiseSpeckle(_Product):
    """Free parameters: noise cutoff (Hz) and bandwidth (rad/s)."""

    cutoff_hz: float
    bandwidth: float

    name = "noise_speckle"
    bounds = ((1e-12, np.inf), (1e-12, np.inf))
    factor = staticmethod(_noise)


TheoryModel = Union[SpeckleOnly, SinusoidSpeckle, NoiseSpeckle]

# [analysis] model name -> fit model class
MODELS = {cls.name: cls for cls in (SpeckleOnly, SinusoidSpeckle, NoiseSpeckle)}


def g2_speckle(tau, bandwidth):
    """Unmodulated pseudothermal curve, peak 2 over background 1."""
    return SpeckleOnly.curve(tau, (bandwidth,))


def g2_sinusoid(tau, contrast, mod_omega, bandwidth):
    """Sinusoidally modulated curve; `contrast` in [0, 1]."""
    return SinusoidSpeckle.curve(tau, (contrast, mod_omega, bandwidth))


def g2_zero_sinusoid(contrast):
    """Zero-lag value 2 + 2c/(1+c); runs from 2 (c=0) to 3 (c=1)."""
    return 2.0 + 2.0 * contrast / (1.0 + contrast)


def gamma_noise(tau, cutoff_hz):
    """Autocorrelation of band-limited thermal-statistics noise modulation."""
    return _scalar_ok(_noise(np.asarray(tau, dtype=float), cutoff_hz)[0], tau)


def g2_noise(tau, cutoff_hz, bandwidth):
    """Noise modulation on speckle: peak 4 over background 1."""
    return NoiseSpeckle.curve(tau, (cutoff_hz, bandwidth))


@dataclass(frozen=True)
class FitResult:
    params: dict
    sigmas: dict
    rss: float
    converged: bool
    iterations: int
    model: type  # the fitted model class

    def g2_model(self, tau):
        """Evaluate the fitted physics curve (amplitude and offset applied)."""
        theta = [self.params[k] for k in self.model.names]
        base = self.model.curve(np.asarray(tau, dtype=float), theta)
        return self.params["offset"] + self.params["amplitude"] * base


def _bounded_step(damped, grad, theta, lo, hi):
    """Solve the damped normal equations, holding any parameter that sits on
    a bound the solved step pushes against.  Merely projecting that step
    would leave the other parameters' steps computed for a move that never
    happens, and the iteration would not settle.
    """
    delta = np.linalg.solve(damped, grad)
    free = ~(((theta <= lo) & (delta < 0)) | ((theta >= hi) & (delta > 0)))
    if not free.all():
        delta = np.zeros_like(theta)
        delta[free] = np.linalg.solve(damped[np.ix_(free, free)], grad[free])
    return delta


def fit_g2(curve: G2Curve, model: TheoryModel, max_iter: int = 200, tol: float = 1e-6) -> FitResult:
    """Weighted least squares with damped Gauss-Newton steps.

    Weights are 1/stderr^2 (unit weights when the curve carries no
    errors).  The model's field values are the starting point and must lie
    inside its bounds; a parameter on a bound that a step pushes against
    is held there for that step.  An overall amplitude and offset are
    fitted along with the physics parameters.  Convergence is declared
    when the relative parameter change drops below `tol`; exhausted
    iterations leave `converged` False.  A parameter the final curve does
    not depend on gets sigma inf; should the others' normal matrix still
    be singular, every sigma is inf and `converged` is False.
    """
    names = model.names + ("amplitude", "offset")
    n_phys = len(model.names)
    n_par = n_phys + 2
    if len(curve) < model.min_points():
        raise ValueError(
            f"need at least {model.min_points()} points to fit {n_par} parameters"
        )
    bounds = list(model.bounds) + [(1e-12, np.inf), (-np.inf, np.inf)]
    lo, hi = np.array(bounds).T
    theta = np.concatenate([np.asarray(model.start(), dtype=float), [1.0, 0.0]])
    if not np.all((lo <= theta) & (theta <= hi)):
        raise ValueError("initial guess outside parameter bounds")

    tau = curve.tau
    y = curve.value
    if np.all(curve.stderr == 0):
        w = np.ones_like(y)
    else:
        sigma = np.where(curve.stderr > 0, curve.stderr, np.inf)
        w = 1.0 / sigma**2

    # per-parameter scales for the relative-change stop rule; every
    # parameter here is either O(1) or large, so floor the scale at 1
    scales = np.maximum(np.abs(theta), 1.0)

    def residual(th):
        return y - (th[n_phys + 1] + th[n_phys] * model.curve(tau, th[:n_phys]))

    def jacobian(th):
        base = model.curve(tau, th[:n_phys])
        cols = th[n_phys] * model.jacobian(tau, th[:n_phys])
        return np.column_stack([cols, base, np.ones_like(tau)])

    r = residual(theta)
    chi2 = float(np.sum(w * r * r))
    damping = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jac = jacobian(theta)
        jtw = jac.T * w
        hess = jtw @ jac
        grad = jtw @ r
        stepped = False
        for _ in range(30):
            damped = hess + damping * np.diag(np.maximum(np.diag(hess), 1e-300))
            try:
                delta = _bounded_step(damped, grad, theta, lo, hi)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = np.clip(theta + delta, lo, hi)
            r_trial = residual(trial)
            chi2_trial = float(np.sum(w * r_trial * r_trial))
            if np.isfinite(chi2_trial) and chi2_trial <= chi2:
                rel = np.max(np.abs(trial - theta) / scales)
                theta, r, chi2 = trial, r_trial, chi2_trial
                damping = max(damping * 0.3, 1e-12)
                stepped = True
                if rel < tol:
                    converged = True
                break
            damping *= 10.0
            if damping > 1e14:
                break
        if converged or not stepped:
            break

    jac = jacobian(theta)
    jtw = jac.T * w
    hess = jtw @ jac
    # a parameter the curve does not depend on where the fit ended (the
    # drive frequency at contrast 0) has an all-zero row: only it is
    # unidentified, so invert over the rest and give it alone sigma inf
    known = np.diag(hess) > 0
    sig = np.full(n_par, np.inf)
    try:
        cov = np.linalg.inv(hess[np.ix_(known, known)])
        sig[known] = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        converged = False
    return FitResult(
        params=dict(zip(names, theta.tolist())),
        sigmas=dict(zip(names, sig.tolist())),
        rss=float(np.sum(r * r)),
        converged=converged,
        iterations=iterations,
        model=type(model),
    )
