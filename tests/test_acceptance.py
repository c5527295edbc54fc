"""End-to-end acceptance checks.

Each test runs one full scenario at fixed seed and asserts the physics
it must reproduce, printing one PASS/FAIL line with the measured
numbers (visible with pytest -s; the -v listing carries the verdicts).
Monte Carlo budgets are sized so every tolerance sits several standard
errors away from the measured value at the frozen seed.
"""

import functools
import itertools
import json
import time

import numpy as np
import pytest

from superbunch import (
    DetectorConfig,
    FitModel,
    G2Curve,
    PhotonStream,
    Sinusoid,
    SpeckleParams,
    apply_speckle,
    build_config,
    coincidence_histogram,
    detect_photons,
    fit_g2,
    g2_speckle,
    g2_zero_estimate,
    generate_speckle_field,
    normalize_g2,
    run_pipeline,
    sample_intensity,
)
from superbunch.cli import main
from superbunch.seeding import substream_seed

from autocorrelation import modulation_autocorrelation
from test_correlator import brute_force  # the all-pairs oracle

BW = 2 * np.pi * 1e4  # speckle bandwidth used throughout


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run(seed, duration_s, dt_s, modulation, rate_hz, bin_s, window_s, model="none"):
    raw = {
        "run": {"seed": str(seed), "duration_s": repr(duration_s), "dt_s": repr(dt_s)},
        "modulation": modulation,
        "speckle": {"bandwidth_rad_s": repr(BW)},
        "detection": {"rate_hz": repr(rate_hz)},
        "correlator": {"bin_s": repr(bin_s), "window_s": repr(window_s)},
        "analysis": {"model": model},
    }
    return run_pipeline(build_config(raw), threads=1)


def _sinusoid(depth, frequency_hz):
    return {
        "kind": "sinusoid",
        "intensity": "1.0",
        "depth": repr(float(depth)),
        "frequency_hz": repr(float(frequency_hz)),
    }


def test_01_thermal_baseline():
    t0 = time.monotonic()
    res = _run(11, 30.0, 1e-5, {"kind": "constant", "intensity": "1.0"},
               3e4, 2e-6, 5e-4, model="speckle")
    wall = time.monotonic() - t0
    coincidences = int(res.histogram.counts.sum())
    rms = float(np.sqrt(np.mean((res.curve.value - g2_speckle(res.curve.tau, BW)) ** 2)))
    ok = (
        coincidences >= 1_000_000
        and abs(res.g2_zero - 2.0) <= 0.05
        and rms < 0.02
        and res.fit.converged
        and wall < 120.0
    )
    _report(1, ok,
            f"g2(0)={res.g2_zero:.4f}+-{res.g2_zero_err:.4f} (want 2.00+-0.05), "
            f"envelope rms={rms:.4f} (want <0.02), "
            f"coincidences={coincidences} (want >=1e6), wall={wall:.1f}s (want <120)")


def test_02_sinusoid_superbunching():
    res = _run(21, 20.0, 1e-6, _sinusoid(1.0, 50e3), 3e4, 0.5e-6, 2.5e-4,
               model="sinusoid_speckle")
    contrast = res.fit.params["contrast"]
    freq = res.fit.params["mod_omega"] / (2 * np.pi)
    ok = (
        abs(res.g2_zero - 3.0) <= 0.10
        and abs(res.peak.ratio / 3.0 - 1.0) <= 0.05
        and res.fit.converged
        and contrast >= 0.95
        and abs(freq / 50e3 - 1.0) <= 0.01
        and abs(res.fit_g2_zero - 3.0) <= 0.10
    )
    _report(2, ok,
            f"g2(0)={res.g2_zero:.4f}+-{res.g2_zero_err:.4f} (want 3.00+-0.10), "
            f"peak:background={res.peak.ratio:.3f} (want 3.00+-5%), "
            f"fit contrast={contrast:.4f} freq={freq:.1f}Hz g2_fit(0)={res.fit_g2_zero:.4f}")


def test_03_contrast_sweep():
    contrasts = (0.0, 0.25, 0.5, 0.75, 1.0)
    got = []
    for i, c in enumerate(contrasts):
        # a classical sinusoid of depth d gives a modulation factor
        # 1 + d^2/2 at zero lag, so the depth that realizes curve
        # contrast C is d = sqrt(2C/(1+C))
        depth = np.sqrt(2 * c / (1 + c)) if c > 0 else 0.0
        res = _run(100 + i, 10.0, 1e-6, _sinusoid(depth, 50e3), 3e4, 0.5e-6, 2.5e-4)
        got.append(res.g2_zero)
    targets = [2 + 2 * c / (1 + c) for c in contrasts]
    devs = [g - t for g, t in zip(got, targets)]
    monotone = all(b > a for a, b in zip(got, got[1:]))
    ok = monotone and all(abs(d) <= 0.1 for d in devs)
    pts = ", ".join(f"C={c:g}:{g:.3f}({d:+.3f})" for c, g, d in zip(contrasts, got, devs))
    _report(3, ok, f"{pts} (want |dev|<=0.1 each, monotone={monotone})")


def test_04_noise_superbunching():
    res = _run(41, 60.0, 1e-5,
               {"kind": "band_noise", "intensity": "1.0", "cutoff_hz": "200"},
               1e4, 1e-5, 1e-2, model="noise_speckle")
    cutoff = res.fit.params["cutoff_hz"]
    ok = (
        abs(res.g2_zero - 4.0) <= 0.15
        and res.fit.converged
        and abs(cutoff / 200.0 - 1.0) <= 0.05
    )
    _report(4, ok,
            f"g2(0)={res.g2_zero:.4f}+-{res.g2_zero_err:.4f} (want 4.00+-0.15), "
            f"fitted cutoff={cutoff:.2f}Hz (want 200+-5%)")


def test_05_clipping_and_quantization():
    # zero-lag values for a unit-mean exponential clipped at c, from the
    # closed-form moments <X> = 1-e^-c and <X^2> = 2-2(c+1)e^-c
    cases = (("3.0", 3.54796), ("realistic", 3.17790), ("1.5", 2.93148))
    got = []
    for i, (clip, _) in enumerate(cases):
        res = _run(500 + i, 40.0, 1e-5,
                   {"kind": "band_noise", "intensity": "1.0", "cutoff_hz": "200",
                    "clip_level": clip, "quantization_bits": "8"},
                   1e4, 1e-5, 1e-2)
        got.append(res.g2_zero)
    decreasing = got[0] > got[1] > got[2]
    below = all(g < 4.0 for g in got)
    in_band = 2.4 <= got[1] <= 3.6
    near = all(abs(g - x) <= 0.15 for g, (_, x) in zip(got, cases))
    ok = decreasing and below and in_band and near
    pts = ", ".join(f"clip {c}: {g:.3f} (expect {x:.3f})" for g, (c, x) in zip(got, cases))
    _report(5, ok, f"{pts}; decreasing={decreasing}, defaults in [2.4,3.6]={in_band}")


def _segmented_g2_zero(stream, bin_s, window_s, nseg=10):
    """g2(0) plus an error bar from the scatter over time segments.

    The segment scatter captures source-realization noise on top of the
    pair-count shot noise; the quoted sigma is the larger of the two so
    a lucky scatter draw cannot shrink the bar below the shot-noise
    floor.
    """
    edges = np.linspace(0, stream.duration_s * 1e9, nseg + 1)
    vals = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg = PhotonStream(
            d1=stream.d1[(stream.d1 >= lo) & (stream.d1 < hi)],
            d2=stream.d2[(stream.d2 >= lo) & (stream.d2 < hi)],
            resolution_ns=stream.resolution_ns,
            duration_s=(hi - lo) / 1e9,
        )
        vals.append(g2_zero_estimate(coincidence_histogram(seg, bin_s, window_s))[0])
    vals = np.asarray(vals)
    scatter = float(vals.std(ddof=1) / np.sqrt(nseg))
    full, shot = g2_zero_estimate(coincidence_histogram(stream, bin_s, window_s))
    return full, max(scatter, shot)


def test_06_frequency_invariance():
    depth = np.sqrt(2 * 0.5 / 1.5)  # fixed C = 0.5
    rows = []
    for i, f in enumerate((10e3, 25e3, 50e3, 100e3)):
        res = _run(800 + i, 10.0, 1e-6, _sinusoid(depth, f), 2e4, 0.25e-6, 1e-4)
        g, s = _segmented_g2_zero(res.stream, 0.25e-6, 1e-4)
        rows.append((f, g, s))
    zmax = max(
        abs(ga - gb) / np.hypot(sa, sb)
        for (_, ga, sa), (_, gb, sb) in itertools.combinations(rows, 2)
    )
    ok = zmax <= 2.0
    pts = ", ".join(f"{f/1e3:g}kHz:{g:.3f}+-{s:.3f}" for f, g, s in rows)
    _report(6, ok, f"{pts}; max pairwise |diff|/combined sigma = {zmax:.2f} (want <=2)")


# Gate of criterion 7, from first principles for 100 bins of z values that
# are standard normal on correct physics: the chi-square upper 0.999 point
# with 100 degrees of freedom, and the two-sided Bonferroni bound on the
# largest |z| at family-wise 1e-3 (per-bin tail 1e-5).
_CHI2_999_100 = 149.45
_ZMAX_BONFERRONI = 4.417
# 1.0 s spans 1e4 coherence times of the 2*pi*10 kHz speckle
_DT7, _N7, _BIN7, _WINDOW7 = 1e-6, 1_000_000, 4e-6, 2e-4


@functools.lru_cache(maxsize=None)
def _factorization_run(seed):
    dt, n, bin_s, window_s = _DT7, _N7, _BIN7, _WINDOW7
    det = DetectorConfig(rate_hz=1e4)
    mod = Sinusoid(base_intensity=1.0, depth=0.8, omega=2 * np.pi * 25e3)
    trace = sample_intensity(mod, 0.0, dt, n, substream_seed(seed, "modulation"))
    speckle = generate_speckle_field(
        SpeckleParams(bandwidth=BW, seed=substream_seed(seed, "speckle")),
        0.0, dt, n,
    )
    # same speckle realization with and without modulation; independent
    # detection substreams keep the two runs' shot noise uncorrelated so
    # the pointwise error bars are exact
    joint = apply_speckle(trace, speckle)
    curve_j = normalize_g2(coincidence_histogram(
        detect_photons(joint, det, substream_seed(seed, "detect-joint")), bin_s, window_s))
    curve_s = normalize_g2(coincidence_histogram(
        detect_photons(speckle, det, substream_seed(seed, "detect-speckle")), bin_s, window_s))
    return curve_j, curve_s


def _factorization_z(depth, seed=1700):
    """z per bin of g2_joint - Gamma*g2_speckle, Gamma from a depth-`depth` drive.

    The joint run is always modulated at depth 0.8; any other `depth` is a
    deliberately wrong prediction.
    """
    dt, n, bin_s, window_s = _DT7, _N7, _BIN7, _WINDOW7
    curve_j, curve_s = _factorization_run(seed)
    mod = Sinusoid(base_intensity=1.0, depth=depth, omega=2 * np.pi * 25e3)
    trace = sample_intensity(mod, 0.0, dt, n, substream_seed(seed, "modulation"))
    # modulation autocorrelation predicted per histogram bin: timestamps
    # are uniform within a sample, so a lattice lag spreads over
    # neighboring bins as a unit triangle; integrating it over a bin of
    # B lattice steps gives the trapezoid rule over the covered lags
    half = int(round(window_s / bin_s))
    B = int(round(bin_s / dt))
    lat = modulation_autocorrelation(trace, (B * half + B) * dt).value
    gamma_pos = np.empty(half)
    for q in range(half):
        lo = B * q
        gamma_pos[q] = (lat[lo] / 2 + lat[lo + 1:lo + B].sum() + lat[lo + B] / 2) / B
    gamma = np.concatenate([gamma_pos[::-1], gamma_pos])

    diff = curve_j.value - gamma * curve_s.value
    sigma = np.hypot(curve_j.stderr, gamma * curve_s.stderr)
    return diff / sigma


def _factorization_gate(z):
    chi2 = float(np.sum(z * z))
    zmax = float(np.max(np.abs(z)))
    return chi2 < _CHI2_999_100 and zmax < _ZMAX_BONFERRONI, chi2, zmax


def test_07_factorization():
    z = _factorization_z(0.8)
    ok, chi2, zmax = _factorization_gate(z)
    _report(7, ok,
            f"max |g2_joint - Gamma*g2_speckle|/sigma = {zmax:.2f} over {z.size} bins "
            f"(want <{_ZMAX_BONFERRONI}), sum z^2 = {chi2:.1f} (want <{_CHI2_999_100})")


def test_07_gate_rejects_a_wrong_gamma():
    # negative control: Gamma from a depth-0.6 drive against the depth-0.8 run
    ok, chi2, zmax = _factorization_gate(_factorization_z(0.6))
    assert not ok, f"wrong Gamma passed: sum z^2 = {chi2:.1f}, max |z| = {zmax:.2f}"


def test_08_brute_force_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    largest = 0
    for trial in range(50):
        if trial < 5:
            n1 = n2 = 10_000
        else:
            n1 = int(rng.integers(1, 4000))
            n2 = int(rng.integers(1, 4000))
        span = int(rng.integers(10_000, 10_000_000))
        # coarse quantization keeps duplicate and zero-lag pairs common
        quant = int(rng.integers(1, 50))
        d1 = np.sort(rng.integers(0, span, n1) // quant * quant)
        d2 = np.sort(rng.integers(0, span, n2) // quant * quant)
        dtau_ns = int(rng.integers(1, 1000))
        half_bins = int(rng.integers(10, 40))
        stream = PhotonStream(d1=d1, d2=d2, resolution_ns=1, duration_s=(span + 1) / 1e9)
        hist = coincidence_histogram(stream, dtau_ns * 1e-9, dtau_ns * half_bins * 1e-9)
        assert hist.half_bins == half_bins
        expect = brute_force(d1, d2, dtau_ns, half_bins)
        assert np.array_equal(hist.counts, expect), f"trial {trial} mismatch"
        checked += 1
        largest = max(largest, n1 * n2)
    _report(8, checked == 50,
            f"{checked}/50 random streams match the all-pairs oracle exactly "
            f"(largest {largest} pairs)")


def test_09_fit_round_trips():
    rng = np.random.default_rng(7)
    tau = np.linspace(-2.5e-4, 2.5e-4, 1001)
    true_sin = (0.8, 2 * np.pi * 50e3, BW)
    y = FitModel("sinusoid_speckle", true_sin).curve(tau)
    noisy = y * (1 + 0.01 * rng.standard_normal(tau.size))
    fit_sin = fit_g2(G2Curve(tau, noisy, 0.01 * y),
                     FitModel("sinusoid_speckle", (0.5, 2 * np.pi * 50e3, 1.2 * BW)))
    c_err = abs(fit_sin.params["contrast"] / true_sin[0] - 1.0)
    w_err = abs(fit_sin.params["mod_omega"] / true_sin[1] - 1.0)

    tau_n = np.linspace(-1e-2, 1e-2, 1201)
    true_noise = (200.0, BW)
    yn = FitModel("noise_speckle", true_noise).curve(tau_n)
    noisy_n = yn * (1 + 0.01 * rng.standard_normal(tau_n.size))
    fit_noise = fit_g2(G2Curve(tau_n, noisy_n, 0.01 * yn),
                       FitModel("noise_speckle", (250.0, 0.8 * BW)))
    nu_err = abs(fit_noise.params["cutoff_hz"] / true_noise[0] - 1.0)

    # analytic jacobians against central differences, column by column
    jac_ok = True
    worst = 0.0
    cases = (
        ("speckle", tau, np.array([BW])),
        ("sinusoid_speckle", tau, np.array(true_sin)),
        ("noise_speckle", tau_n, np.array(true_noise)),
    )
    for name, grid, theta in cases:
        jac = FitModel(name, theta).jacobian(grid)
        for k in range(theta.size):
            h = 1e-5 * max(abs(theta[k]), 1.0)
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (FitModel(name, tp).curve(grid) - FitModel(name, tm).curve(grid)) / (2 * h)
            rel = np.linalg.norm(jac[:, k] - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
            jac_ok = jac_ok and rel <= 1e-6

    ok = (fit_sin.converged and fit_noise.converged
          and c_err <= 0.02 and w_err <= 0.01 and nu_err <= 0.02 and jac_ok)
    _report(9, ok,
            f"contrast err={c_err:.2%} (want <=2%), omega err={w_err:.3%} (want <=1%), "
            f"cutoff err={nu_err:.2%} (want <=2%), worst jacobian dev={worst:.1e} "
            f"(want <=1e-6)")


@pytest.mark.usefixtures("many_cpus")
def test_10_thread_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nseed = 77\nduration_s = 2.0\ndt_s = 1e-6\n\n"
        "[modulation]\nkind = sinusoid\nintensity = 1.0\ndepth = 0.9\nfrequency_hz = 50e3\n\n"
        f"[speckle]\nbandwidth_rad_s = {BW!r}\n\n"
        "[detection]\nrate_hz = 3e4\n\n"
        "[correlator]\nbin_s = 1e-6\nwindow_s = 1e-4\n\n"
        "[analysis]\nmodel = sinusoid_speckle\n"
    )
    outs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        code = main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads), "--format", "binary"])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = True
    for out in outs[1:]:
        identical = identical and names == sorted(p.name for p in out.iterdir())
        for name in names:
            identical = identical and (
                (outs[0] / name).read_bytes() == (out / name).read_bytes()
            )
    n_events = json.loads((outs[0] / "manifest.json").read_text())
    ok = identical and len(names) >= 5
    _report(10, ok,
            f"{len(names)} artifacts byte-identical across 1/2/8 worker threads "
            f"(seed {n_events['seed']})")
