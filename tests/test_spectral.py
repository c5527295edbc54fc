import sys
import tracemalloc

import numpy as np
import pytest

from superbunch import _spectral, _workers


def _one_shot(n, dt, half_band_hz, seed):
    # the same draws in the same order, placed on every n-point mode and
    # transformed at once
    rng = np.random.default_rng(seed)
    mask = np.abs(np.fft.fftfreq(n, dt)) <= half_band_hz * (1.0 + 1e-12)
    m = int(mask.sum())
    re = rng.standard_normal(m)
    im = rng.standard_normal(m)
    coef = np.zeros(n, dtype=np.complex128)
    coef[mask] = (re + 1j * im) / np.sqrt(2.0)
    return np.fft.ifft(coef) * (n / np.sqrt(m)), m


def _max_rel(got, want):
    # relative to the largest sample: an intensity near zero has no useful
    # elementwise relative error
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


# (n, dt, half band): the transform length n_c and phase count L they give
_CASES = {
    "L>1": (200_000, 1e-6, 5e3),  # m 2001, n_c 2500, L 80
    "prime_n": (10_007, 1e-4, 300.0),  # L 1: one n-point transform
    "odd_n": (9_009, 1e-4, 200.0),  # m 361, n_c 429, L 21
    "n_c_equals_m": (1_000, 1e-3, 62.0),  # m 125 = n_c, L 8
    "whole_band": (1_000, 1e-3, 600.0),  # every mode, Nyquist included
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_interleaved_synthesis_matches_one_shot_transform(case):
    n, dt, half_band = _CASES[case]
    field, m = _one_shot(n, dt, half_band, seed=4)
    p, q = _spectral._band_modes(n, dt, half_band)
    assert p + q == m
    intensity = np.abs(field) ** 2
    got = _spectral.bandlimited_intensity(n, dt, half_band, 2.5, np.random.default_rng(4))
    assert _max_rel(got, intensity * (2.5 / intensity.mean())) <= 1e-12
    noise = np.sqrt(2.0) * field.real
    got = _spectral.bandlimited_real_noise(n, dt, half_band, np.random.default_rng(4))
    assert _max_rel(got, noise / noise.std()) <= 1e-12


@pytest.mark.parametrize("batch", [1, 3 * 2500, 1 << 30])
def test_batch_size_does_not_change_samples(monkeypatch, batch):
    # one phase per transform, three (written out eight phases at a time,
    # so each group ends in a batch of two) and all 80 phases at once
    monkeypatch.setattr(_spectral, "_BATCH", batch)
    n, dt, half_band = _CASES["L>1"]
    field, _ = _one_shot(n, dt, half_band, seed=4)
    intensity = np.abs(field) ** 2
    got = _spectral.bandlimited_intensity(n, dt, half_band, 1.0, np.random.default_rng(4))
    assert _max_rel(got, intensity / intensity.mean()) <= 1e-12


# (case, _BATCH) of grids that split into batches differently: "L>1"
# fits its 80 phases in one batch; below n_c it takes 80 batches of one
# phase; at three rows, 27 batches, the last of two phases; "prime_n" is
# one batch of one phase
_THREAD_GRIDS = {
    "L>1": ("L>1", _spectral._BATCH),
    "rows=1": ("L>1", 2000),
    "rows=3_partial_last": ("L>1", 3 * 2500),
    "prime_n": ("prime_n", _spectral._BATCH),
}


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("grid", sorted(_THREAD_GRIDS))
def test_thread_count_does_not_change_samples(monkeypatch, grid):
    # three workers start at batches 26 and 53 (or 9 and 18), between the
    # batches whose start is evaluated directly
    case, batch = _THREAD_GRIDS[grid]
    monkeypatch.setattr(_spectral, "_BATCH", batch)
    n, dt, half_band = _CASES[case]

    def draw(threads):
        rng = np.random.default_rng(6)
        intensity = _spectral.bandlimited_intensity(n, dt, half_band, 1.0, rng, threads=threads)
        noise = _spectral.bandlimited_real_noise(n, dt, half_band, rng, threads=threads)
        return intensity.tobytes(), noise.tobytes()

    want = draw(1)
    for threads in (2, 3):
        assert draw(threads) == want, f"threads={threads}"


# (grid, _BATCH, SCRATCH_BYTES) and the (rows transformed at once, phases
# staged) one worker takes on them.  On "L>1", one batch of all 80 phases
# or 27 of three: blocks that end short of a batch's end (80 = 13 * 6 +
# 2, 3 = 2 + 1), one row at a time, and stages of phases from three
# batches.  On "n_c_equals_m", four batches of two phases whose stage
# would be as large as the output: each phase goes straight into its
# strided samples of it
_BLOCK_SHAPES = {
    "one_batch_rows_of_1": ("L>1", _spectral._BATCH, 2**12, (1, 8)),
    "one_batch_blocks_of_6": ("L>1", _spectral._BATCH, 2**18, (6, 12)),
    "one_batch_blocks_of_26": ("L>1", _spectral._BATCH, 2**20, (26, 26)),
    "batches_of_3_blocks_of_2": ("L>1", 3 * 2500, 100_000, (2, 8)),
    "batches_of_3_staged_across": ("L>1", 3 * 2500, 2**18, (3, 9)),
    "straight_to_the_output": ("n_c_equals_m", 2 * 125, 2**10, (1, 0)),
}


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("shape", sorted(_BLOCK_SHAPES))
def test_block_shape_does_not_change_samples(monkeypatch, shape):
    # each row is the same transform in a block as in its whole batch, so
    # the budget changes no bit, at any thread count
    case, batch, budget, blocks = _BLOCK_SHAPES[shape]
    monkeypatch.setattr(_spectral, "_BATCH", batch)
    n, dt, half_band = _CASES[case]

    def draw(threads):
        rng = np.random.default_rng(6)
        intensity = _spectral.bandlimited_intensity(n, dt, half_band, 1.0, rng, threads=threads)
        noise = _spectral.bandlimited_real_noise(n, dt, half_band, rng, threads=threads)
        return intensity.tobytes(), noise.tobytes()

    want = draw(1)
    monkeypatch.setattr(_spectral, "SCRATCH_BYTES", budget)
    m = sum(_spectral._band_modes(n, dt, half_band))
    n_c = _spectral._transform_length(n, m)
    assert _spectral._block_shape(n_c, min(n // n_c, batch // n_c), n // n_c, 1) == blocks
    assert draw(1) == want
    # three workers write their phases to the output with no lock, and
    # share its lines: a write lost or misplaced between them would
    # show, the more often the interpreter switches threads
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert draw(3) == want
    finally:
        sys.setswitchinterval(interval)


def test_case_geometry():
    # the cases above cover what their names say
    def geometry(n, dt, half_band):
        m = sum(_spectral._band_modes(n, dt, half_band))
        n_c = _spectral._transform_length(n, m)
        return m, n_c, n // n_c

    assert geometry(*_CASES["L>1"]) == (2001, 2500, 80)
    assert geometry(*_CASES["prime_n"])[1:] == (10_007, 1)
    assert geometry(*_CASES["odd_n"]) == (361, 429, 21)
    assert geometry(*_CASES["n_c_equals_m"]) == (125, 125, 8)
    assert geometry(*_CASES["whole_band"]) == (1000, 1000, 1)


@pytest.mark.parametrize("n, dt", [(1000, 1e-3), (1001, 1e-3), (999, 3e-4), (3000, 1e-5)])
def test_band_edge_on_a_mode(n, dt):
    # an edge of k * step / (1 + 1e-12) ties with mode k after the
    # tolerance, and edge / step then rounds to either side of k; the mode
    # count must follow fftfreq all the same
    freqs = np.abs(np.fft.fftfreq(n, dt))
    half = (n - 1) // 2 + 1
    step = 1.0 / (n * dt)
    for k in range(1, n // 2 + 1):
        tie = k * step / (1.0 + 1e-12)
        for edge in (k * step, tie, np.nextafter(tie, 0), np.nextafter(tie, np.inf)):
            mask = freqs <= edge * (1.0 + 1e-12)
            want = (int(mask[:half].sum()), int(mask[half:].sum()))
            assert _spectral._band_modes(n, dt, edge) == want


def test_transform_length_is_smallest_divisor_at_least_m():
    for n in (2, 12, 97, 1000, 30_030, 65_536):
        for m in (1, 2, 5, 11, 25, 26, n // 3 + 1, n):
            if m > n:
                continue
            want = min(d for d in range(1, n + 1) if n % d == 0 and d >= m)
            assert _spectral._transform_length(n, m) == want


def test_slow_synthesis_flags_a_sample_count_without_a_divisor_near_the_band():
    # the README speckle's 5 kHz half band: m = 20001 modes over 2 s at 1 us
    slow = lambda n: _spectral.slow_synthesis(n, 1e-6, 5e3)
    assert not slow(2_000_000)  # 80 transforms of 25000 points
    assert slow(2_000_003)  # prime: one transform of n points
    assert slow(2_000_006)  # twice a prime: two of n / 2
    # a prime below one batch transforms fast enough
    assert not slow(200_003)
    assert slow(262_147)


def test_synthesis_memory_stays_near_its_output():
    # README speckle at 2M samples: 20001 modes, n_c 25000, L 80; a one-shot
    # n-point complex transform traces several 32 MB arrays
    n = 2_000_000
    tracemalloc.start()
    try:
        samples = _spectral.bandlimited_intensity(n, 1e-6, 5e3, 1.0, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.nbytes == 8 * n
    assert peak < 2 * samples.nbytes, f"peak {peak / 1e6:.1f} MB"


# the benchmark's syntheses at 2M samples: (n, dt, half band)
_BENCHMARK_GEOMETRIES = {
    "readme_speckle": (2_000_000, 1e-6, 5e3),  # 20001 modes, n_c 25000, batches of 10 phases
    "sweep_speckle": (2_000_000, 1e-5, 5e3),  # 200001 modes, n_c 250000: a 4 MB row
    "sweep_noise": (2_000_000, 1e-5, 100.0),  # 4001 modes, n_c 5000, batches of 52 phases
}


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("geometry", sorted(_BENCHMARK_GEOMETRIES))
def test_synthesis_scratch_is_a_budget_per_worker(geometry, threads):
    # the traced peak beyond the output: per worker a block and a stage
    # of at most the budget each (an eighth of these 16 MB outputs is
    # less; one phase's row, reduced straight into the output, in place
    # of both when the row alone is more), its start vector and
    # 2**18 bytes of numpy's temporaries; shared by the workers the
    # coefficients and twiddle table (16 bytes per mode and phase of a
    # batch) and the modes' k and steps (24 bytes each)
    n, dt, half_band = _BENCHMARK_GEOMETRIES[geometry]
    p, q = _spectral._band_modes(n, dt, half_band)
    m, starts = p + q, max(p - 1, q) + 1
    n_c = _spectral._transform_length(n, m)
    rows = max(1, _spectral._BATCH // n_c)
    tracemalloc.start()
    try:
        samples = _spectral.bandlimited_intensity(
            n, dt, half_band, 1.0, np.random.default_rng(1), threads=threads
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = _workers.SCRATCH_BYTES
    worker = max(2 * budget, 16 * n_c) + 16 * starts + 2**18
    bound = threads * worker + 16 * m * rows + 24 * starts
    scratch = peak - samples.nbytes
    assert scratch <= bound, f"{scratch / 1e6:.2f} MB against {bound / 1e6:.2f} MB"
    # the rows transformed at once fit the budget, unless one row alone is
    # more, and so does the stage
    height, staged = _spectral._block_shape(n_c, rows, n // n_c, threads)
    assert 16 * height * n_c <= max(budget, 16 * n_c) and 8 * staged * n_c <= budget


@pytest.mark.usefixtures("many_cpus")
def test_two_workers_trace_no_more_than_one_did():
    # the sweep_noise_threads speckle: 200001 modes, n_c 250000 and eight
    # phases of one batch each; one worker with a twiddle table and an
    # exponential per mode and batch traced 56.8 MB.  Two that reduce each
    # phase straight into the output trace 33.0 MB: the 16 MB output,
    # 3.2 MB of coefficients, 2.4 MB of k and steps, each worker's 4 MB
    # row and 1.6 MB start vector, and 0.2 MB of numpy's temporaries
    # (numpy 2.4; the peak on the numpy 2.0 floor is unmeasured).  The
    # bound is the 33.8 MB that held when each worker also had a 128 kB
    # piece, less those 0.26 MB, so any numpy keeps the slack it had
    # under that bound: 0.54 MB on numpy 2.4
    n = 2_000_000
    tracemalloc.start()
    try:
        samples = _spectral.bandlimited_intensity(
            n, 1e-5, 5e3, 1.0, np.random.default_rng(1), threads=2
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.nbytes == 8 * n
    assert peak <= 33.54e6, f"peak {peak / 1e6:.1f} MB"


def test_threads_beyond_the_cpus_cost_what_the_cpus_do(monkeypatch):
    # the same speckle: eight batches, so eight threads would each hold a
    # workspace; on two CPUs two workers hold what threads=2's do
    monkeypatch.setattr(_workers, "_cpus", lambda: 2)
    n = 2_000_000

    def draw(threads):
        tracemalloc.start()
        try:
            samples = _spectral.bandlimited_intensity(
                n, 1e-5, 5e3, 1.0, np.random.default_rng(1), threads=threads
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return samples.tobytes(), peak

    one, _ = draw(1)
    _, peak_two = draw(2)
    eight, peak_eight = draw(8)
    assert eight == one
    # the pool's own frames and futures move the peak by some hundred
    # bytes from run to run; eight workspaces would add 34 MB
    assert peak_eight <= peak_two + 2**16, f"{peak_eight / 1e6:.2f} against {peak_two / 1e6:.2f} MB"


def test_synthesis_rejects_degenerate_input():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="2 samples"):
        _spectral.bandlimited_intensity(1, 1e-3, 10.0, 1.0, rng)
    with pytest.raises(ValueError, match="positive"):
        _spectral.bandlimited_real_noise(100, 1e-3, 0.0, rng)
