"""Closed-form correlation curves and weighted least-squares fitting.

Every measured g2 curve of this source factors into a modulation part and
a speckle part:

    speckle only        g2(tau) = 1 + sinc^2(bw * tau / 2)
    sinusoid modulated  g2(tau) = (1 + 2 c cos^2(w0 tau / 2)) / (1 + c)
                                  * (1 + sinc^2(bw * tau / 2))
    noise modulated     g2(tau) = (1 + sinc^2(pi f0 tau))
                                  * (1 + sinc^2(bw * tau / 2))

with sinc(x) = sin(x)/x.  `c` is the modulation contrast parameter: the
sinusoid curve peaks at 2 + 2c/(1+c) and its background oscillates between
1 and (1+2c)/(1+c) around a mean of 1.  The noise curve peaks at 4 over a
background of 1.

Fitting uses damped Gauss-Newton steps on weighted residuals with analytic
Jacobians; an overall amplitude and offset ride along as nuisance
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _scalar_ok(out, *inputs):
    if all(np.ndim(v) == 0 for v in inputs):
        return float(out)
    return out


def g2_speckle(tau, bandwidth):
    """Unmodulated pseudothermal curve, peak 2 over background 1."""
    s = _sinc(np.asarray(tau, dtype=float) * bandwidth / 2.0)
    return _scalar_ok(1.0 + s * s, tau)


def g2_sinusoid(tau, contrast, mod_omega, bandwidth):
    """Sinusoidally modulated curve; `contrast` in [0, 1]."""
    tau_arr = np.asarray(tau, dtype=float)
    cos_half = np.cos(mod_omega * tau_arr / 2.0)
    mod = (1.0 + 2.0 * contrast * cos_half * cos_half) / (1.0 + contrast)
    s = _sinc(tau_arr * bandwidth / 2.0)
    return _scalar_ok(mod * (1.0 + s * s), tau)


def g2_zero_sinusoid(contrast):
    """Zero-lag value 2 + 2c/(1+c); runs from 2 (c=0) to 3 (c=1)."""
    return 2.0 + 2.0 * contrast / (1.0 + contrast)


def gamma_noise(tau, cutoff_hz):
    """Autocorrelation of band-limited thermal-statistics noise modulation."""
    s = _sinc(np.pi * cutoff_hz * np.asarray(tau, dtype=float))
    return _scalar_ok(1.0 + s * s, tau)


def g2_noise(tau, cutoff_hz, bandwidth):
    """Noise modulation on speckle: peak 4 over background 1."""
    tau_arr = np.asarray(tau, dtype=float)
    sn = _sinc(np.pi * cutoff_hz * tau_arr)
    ss = _sinc(tau_arr * bandwidth / 2.0)
    return _scalar_ok((1.0 + sn * sn) * (1.0 + ss * ss), tau)


# ---------------------------------------------------------------------------
# fit models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeckleOnly:
    """Free parameter: speckle bandwidth (rad/s)."""

    bandwidth: float

    name = "speckle"
    names = ("bandwidth",)
    bounds = ((1e-12, np.inf),)

    def start(self):
        return [self.bandwidth]

    @staticmethod
    def curve(tau, theta):
        (bw,) = theta
        return g2_speckle(tau, bw)

    @staticmethod
    def jacobian(tau, theta):
        (bw,) = theta
        x = tau * bw / 2.0
        col = 2.0 * _sinc(x) * _dsinc(x) * (tau / 2.0)
        return np.column_stack([col])


@dataclass(frozen=True)
class SinusoidSpeckle:
    """Free parameters: contrast, drive angular frequency, bandwidth."""

    contrast: float
    mod_omega: float
    bandwidth: float

    name = "sinusoid_speckle"
    names = ("contrast", "mod_omega", "bandwidth")
    bounds = ((0.0, 1.0), (1e-12, np.inf), (1e-12, np.inf))

    def start(self):
        return [self.contrast, self.mod_omega, self.bandwidth]

    @staticmethod
    def curve(tau, theta):
        c, w0, bw = theta
        return g2_sinusoid(tau, c, w0, bw)

    @staticmethod
    def jacobian(tau, theta):
        c, w0, bw = theta
        cos_half = np.cos(w0 * tau / 2.0)
        cos2 = cos_half * cos_half
        mod = (1.0 + 2.0 * c * cos2) / (1.0 + c)
        x = tau * bw / 2.0
        s = _sinc(x)
        spk = 1.0 + s * s
        d_c = (2.0 * cos2 - 1.0) / (1.0 + c) ** 2 * spk
        d_w0 = -(c * tau * np.sin(w0 * tau)) / (1.0 + c) * spk
        d_bw = mod * 2.0 * s * _dsinc(x) * (tau / 2.0)
        return np.column_stack([d_c, d_w0, d_bw])


@dataclass(frozen=True)
class NoiseSpeckle:
    """Free parameters: noise cutoff (Hz) and bandwidth (rad/s)."""

    cutoff_hz: float
    bandwidth: float

    name = "noise_speckle"
    names = ("cutoff_hz", "bandwidth")
    bounds = ((1e-12, np.inf), (1e-12, np.inf))

    def start(self):
        return [self.cutoff_hz, self.bandwidth]

    @staticmethod
    def curve(tau, theta):
        f0, bw = theta
        return g2_noise(tau, f0, bw)

    @staticmethod
    def jacobian(tau, theta):
        f0, bw = theta
        xn = np.pi * f0 * tau
        xs = tau * bw / 2.0
        sn, ss = _sinc(xn), _sinc(xs)
        d_f0 = 2.0 * sn * _dsinc(xn) * (np.pi * tau) * (1.0 + ss * ss)
        d_bw = (1.0 + sn * sn) * 2.0 * ss * _dsinc(xs) * (tau / 2.0)
        return np.column_stack([d_f0, d_bw])


TheoryModel = Union[SpeckleOnly, SinusoidSpeckle, NoiseSpeckle]

# [analysis] model name -> fit model class
MODELS = {cls.name: cls for cls in (SpeckleOnly, SinusoidSpeckle, NoiseSpeckle)}


@dataclass(frozen=True)
class FitResult:
    params: dict
    sigmas: dict
    rss: float
    converged: bool
    iterations: int

    def g2_model(self, model_cls, tau):
        """Evaluate the fitted physics curve (amplitude and offset applied)."""
        names = model_cls.names
        theta = [self.params[k] for k in names]
        base = model_cls.curve(np.asarray(tau, dtype=float), theta)
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
    iterations or a singular normal system leave `converged` False.
    """
    names = model.names + ("amplitude", "offset")
    n_phys = len(model.names)
    n_par = n_phys + 2
    if len(curve) < 5 * n_par:
        raise ValueError(
            f"need at least {5 * n_par} points to fit {n_par} parameters"
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
    try:
        cov = np.linalg.inv(hess)
        sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        sig = np.full(n_par, np.inf)
        converged = False
    return FitResult(
        params=dict(zip(names, theta.tolist())),
        sigmas=dict(zip(names, sig.tolist())),
        rss=float(np.sum(r * r)),
        converged=converged,
        iterations=iterations,
    )
