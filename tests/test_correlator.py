import threading
import tracemalloc

import numpy as np
import pytest

from superbunch import (
    CoincidenceHistogram,
    DataError,
    G2Curve,
    PhotonStream,
    coincidence_histogram,
    g2_zero_estimate,
    merge,
    normalize_g2,
    peak_background_ratio,
    write_g2_csv,
    write_histogram_csv,
)
from superbunch import _corr_np, _kernels, _workers
from superbunch.correlator import WINDOW_LIMIT_NS, histogram_geometry


def brute_force(d1, d2, dtau_ns, half_bins):
    """All-pairs reference: mirror-symmetric bins, zero lag excluded,
    |tau| up to half_bins * dtau_ns inclusive."""
    counts = np.zeros(2 * half_bins, dtype=np.int64)
    window = dtau_ns * half_bins
    d2 = np.asarray(d2, dtype=np.int64)
    for chunk_start in range(0, len(d1), 512):
        chunk = np.asarray(d1[chunk_start : chunk_start + 512], dtype=np.int64)
        tau = chunk[:, None] - d2[None, :]
        tau = tau.ravel()
        tau = tau[(tau != 0) & (np.abs(tau) <= window)]
        q = (np.abs(tau) - 1) // dtau_ns
        bins = np.where(tau > 0, half_bins + q, half_bins - 1 - q)
        counts += np.bincount(bins, minlength=2 * half_bins)
    return counts


def _random_stream(rng, n1=None, n2=None, span=1_000_000):
    n1 = n1 or int(rng.integers(1, 800))
    n2 = n2 or int(rng.integers(1, 800))
    d1 = np.sort(rng.integers(0, span, n1))
    d2 = np.sort(rng.integers(0, span, n2))
    return PhotonStream(d1, d2, 1, span * 1e-9)


def test_matches_brute_force_random_streams():
    rng = np.random.default_rng(123)
    for trial in range(10):
        stream = _random_stream(rng, span=50_000)
        bin_s, window_s = 100e-9, 2000e-9
        hist = coincidence_histogram(stream, bin_s, window_s)
        expected = brute_force(stream.d1, stream.d2, 100, 20)
        assert np.array_equal(hist.counts, expected), f"trial {trial}"
        assert hist.counts.sum() > 0


def test_histogram_geometry_bounds_the_bins_per_side():
    # a +-1 ms window at 1 ns bins fits; 2**20 bins per side is the most
    assert histogram_geometry(1e-9, 1e-3, 1) == (1, 10**6)
    assert histogram_geometry(1e-9, 2**20 * 1e-9, 1) == (1, 2**20)
    for window_s in ((2**20 + 1) * 1e-9, 10.0):
        with pytest.raises(ValueError, match="window_s must span at most 2\\*\\*20 bins of bin_s"):
            histogram_geometry(1e-9, window_s, 1)


def test_histogram_geometry_refuses_a_bin_of_a_fraction_of_ticks():
    with pytest.raises(ValueError, match="whole number of 100 ns timestamp ticks, got 250 ns"):
        histogram_geometry(2.5e-7, 2.5e-5, 100)
    assert histogram_geometry(3e-7, 2.5e-5, 100) == (300, 83)


def test_histogram_geometry_refuses_a_window_rounded_past_the_limit():
    # 2.88e8 ns is below 2**58 ns (about 2.882e17), but rounds to 29 bins
    # of 1e16 ns: a 2.9e17 ns window the int64 timestamps cannot hold
    assert 2.88e8 * 1e9 < WINDOW_LIMIT_NS < 29 * 10**16
    with pytest.raises(ValueError, match="window_s must be shorter than 2\\*\\*58 ns"):
        histogram_geometry(1e7, 2.88e8, 1)
    # 28 bins of 1e16 ns stay below it
    assert histogram_geometry(1e7, 2.8e8, 1) == (10**16, 28)


def test_exact_window_edge_inclusive():
    # |tau| == half_bins * dtau lands in the outermost bin; one tick beyond is dropped
    d1 = np.array([10_000])
    d2 = np.array([10_000 - 2000, 10_000 + 2000, 10_000 - 2001, 10_000 + 2001])
    stream = PhotonStream(d1, np.sort(d2), 1, 1e-4)
    hist = coincidence_histogram(stream, 100e-9, 2000e-9)
    assert hist.counts.sum() == 2
    assert hist.counts[0] == 1 and hist.counts[-1] == 1


def test_zero_lag_pairs_are_counted_nowhere():
    d1 = np.array([5000, 6000])
    d2 = np.array([5000, 6000])
    stream = PhotonStream(d1, d2, 1, 1e-5)
    hist = coincidence_histogram(stream, 100e-9, 1000e-9)
    # the two cross pairs at +-1000 ns survive; the two zero-lag pairs do not
    assert hist.counts.sum() == 2


def test_self_correlation_is_exactly_symmetric():
    rng = np.random.default_rng(7)
    ts = np.sort(rng.integers(0, 10_000_000, 3000))
    stream = PhotonStream(ts, ts.copy(), 1, 1e-2)
    hist = coincidence_histogram(stream, 1e-6, 50e-6)
    assert np.array_equal(hist.counts, hist.counts[::-1])


def test_merge_equals_full_histogram():
    rng = np.random.default_rng(21)
    stream = _random_stream(rng, n1=900, n2=700)
    kwargs = dict(bin_s=1e-6, window_s=20e-6)
    full = coincidence_histogram(stream, **kwargs)
    parts = [
        coincidence_histogram(stream, d1_range=(0, 300), **kwargs),
        coincidence_histogram(stream, d1_range=(300, 600), **kwargs),
        coincidence_histogram(stream, d1_range=(600, 900), **kwargs),
    ]
    combined = merge(merge(parts[0], parts[1]), parts[2])
    assert np.array_equal(combined.counts, full.counts)
    assert combined.n1 == full.n1 and combined.n2 == full.n2


def test_merge_rejects_mismatched_metadata():
    rng = np.random.default_rng(3)
    stream = _random_stream(rng)
    a = coincidence_histogram(stream, 1e-6, 20e-6)
    b = coincidence_histogram(stream, 2e-6, 40e-6)
    with pytest.raises(ValueError):
        merge(a, b)


@pytest.mark.usefixtures("many_cpus")
def test_threads_do_not_change_counts(monkeypatch):
    # a slice per 1000 D1 events, so three threads get three slices
    monkeypatch.setattr(_corr_np, "_BLOCK", 1000)
    rng = np.random.default_rng(17)
    stream = _random_stream(rng, n1=5000, n2=5000, span=10_000_000)
    a = coincidence_histogram(stream, 1e-6, 30e-6, threads=1)
    b = coincidence_histogram(stream, 1e-6, 30e-6, threads=3)
    assert np.array_equal(a.counts, b.counts)


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("threads", [1, 3])
def test_kernel_runs_on_the_calling_thread_only_when_serial(monkeypatch, threads):
    # one thread starts no worker; the kernel is looked up per call
    seen = []
    kernel = _kernels.pair_histogram

    def spy(*args):
        seen.append(threading.get_ident())
        return kernel(*args)

    monkeypatch.setattr(_kernels, "pair_histogram", spy)
    monkeypatch.setattr(_corr_np, "_BLOCK", 100)  # 500 events fill five slices
    stream = _random_stream(np.random.default_rng(19), n1=500, n2=500)
    coincidence_histogram(stream, 1e-6, 30e-6, threads=threads)
    assert len(seen) == threads
    assert (threading.get_ident() in seen) == (threads == 1)


class _Pools:
    """Stands in for ThreadPoolExecutor: records each pool and maps inline."""

    def __init__(self):
        self.workers = []

    def __call__(self, max_workers):
        self.workers.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *blocks):
        return map(fn, *blocks)


@pytest.mark.usefixtures("many_cpus")
@pytest.mark.parametrize("n1, slices", [(1000, 1), (3 * _corr_np._BLOCK + 7, 3)])
def test_slices_never_outnumber_the_work(monkeypatch, n1, slices):
    # a slice per _BLOCK D1 events at most, however many threads are asked for
    pools = _Pools()
    monkeypatch.setattr(_workers, "ThreadPoolExecutor", pools)
    calls = []
    kernel = _kernels.pair_histogram

    def spy(*args):
        calls.append(args[4:])
        return kernel(*args)

    monkeypatch.setattr(_kernels, "pair_histogram", spy)
    stream = _random_stream(np.random.default_rng(23), n1=n1, n2=1000, span=10**9)
    many = coincidence_histogram(stream, 1e-6, 30e-6, threads=5000)
    assert len(calls) == slices
    assert pools.workers == ([] if slices == 1 else [slices])
    one = coincidence_histogram(stream, 1e-6, 30e-6, threads=1)
    assert many.counts.tobytes() == one.counts.tobytes()


@pytest.mark.usefixtures("many_cpus")
def test_a_pool_has_no_more_workers_than_blocks(monkeypatch):
    pools = _Pools()
    monkeypatch.setattr(_workers, "ThreadPoolExecutor", pools)
    assert _workers.map_blocks(str, range(3), threads=5000) == ["0", "1", "2"]
    assert _workers.map_blocks(str, [7], threads=5000) == ["7"]  # inline: no pool
    assert pools.workers == [3]


def test_workers_are_the_fewest_of_threads_blocks_and_cpus(monkeypatch):
    monkeypatch.setattr(_workers, "_cpus", lambda: 2)
    assert _workers.worker_count(8, 5) == 2
    assert _workers.worker_count(8, 1) == 1
    assert _workers.worker_count(1, 5) == 1
    assert _workers.worker_count(8, 0) == 1  # no work still runs inline
    pools = _Pools()
    monkeypatch.setattr(_workers, "ThreadPoolExecutor", pools)
    assert _workers.map_blocks(str, range(3), threads=5000) == ["0", "1", "2"]
    n1 = 3 * _corr_np._BLOCK + 7
    stream = _random_stream(np.random.default_rng(23), n1=n1, n2=1000, span=10**9)
    coincidence_histogram(stream, 1e-6, 30e-6, threads=5000)
    assert pools.workers == [2, 2]


def test_uncorrelated_stream_normalizes_to_unity():
    rng = np.random.default_rng(2)
    duration = 5.0
    n = rng.poisson(2e4 * duration)
    d1 = np.sort(rng.integers(0, int(duration * 1e9), n))
    d2 = np.sort(rng.integers(0, int(duration * 1e9), rng.poisson(2e4 * duration)))
    stream = PhotonStream(d1, d2, 1, duration)
    curve = normalize_g2(coincidence_histogram(stream, 1e-5, 5e-4))
    assert curve.value.mean() == pytest.approx(1.0, abs=0.01)
    assert np.max(np.abs(curve.value - 1.0) / curve.stderr) < 6.0


def test_symmetric_normalization_pools_mirror_bins():
    # g2(0) normalizes the two bins either side of zero lag as one bin of
    # twice the width, empty ones included
    rng = np.random.default_rng(31)
    for _ in range(300):
        half = int(rng.integers(10, 40))
        counts = rng.poisson(rng.uniform(0.0, 3.0), 2 * half)
        hist = CoincidenceHistogram(
            dtau_ns=int(rng.integers(1, 1000)),
            half_bins=half,
            counts=counts,
            n1=int(rng.integers(1, 10**6)),
            n2=int(rng.integers(1, 10**6)),
            duration_s=float(rng.uniform(0.1, 100.0)),
        )
        curve = normalize_g2(hist)
        value, err = g2_zero_estimate(hist)
        pooled = int(counts[half - 1] + counts[half])
        assert value == pytest.approx((curve.value[half - 1] + curve.value[half]) / 2.0)
        if pooled:
            assert err == pytest.approx(value / np.sqrt(pooled))
        else:
            assert value == 0.0
            assert err == pytest.approx(curve.stderr[half] / 2.0)


def test_g2_zero_estimate_uses_innermost_bins():
    counts = np.zeros(40, dtype=np.int64)
    counts[19] = 70
    counts[20] = 50
    hist = CoincidenceHistogram(
        dtau_ns=1000, half_bins=20, counts=counts, n1=1000, n2=1000, duration_s=1.0
    )
    value, err = g2_zero_estimate(hist)
    scale = 1.0 / (1000 * 1000 * 1e-6)
    assert value == pytest.approx(120 * scale / 2)
    assert err == pytest.approx(value / np.sqrt(120))


def test_peak_background_ratio():
    half = 50
    counts = np.full(2 * half, 1000, dtype=np.int64)
    counts[half] = 3000
    counts[half - 1] = 3000
    hist = CoincidenceHistogram(
        dtau_ns=1000, half_bins=half, counts=counts, n1=10_000, n2=10_000, duration_s=1.0
    )
    pb = peak_background_ratio(hist)
    assert pb.ratio == pytest.approx(3.0)
    assert not pb.background_unresolved
    # a peak spanning most of the window leaves no clean plateau
    wide = 1000 + 2000 * np.exp(-np.linspace(-1, 1, 2 * half) ** 2)
    hist2 = CoincidenceHistogram(
        dtau_ns=1000,
        half_bins=half,
        counts=wide.astype(np.int64),
        n1=10_000,
        n2=10_000,
        duration_s=1.0,
    )
    assert peak_background_ratio(hist2).background_unresolved


def test_a_flat_histogram_has_no_unresolved_background():
    hist = CoincidenceHistogram(
        dtau_ns=1000, half_bins=50, counts=np.full(100, 7), n1=100, n2=100, duration_s=1.0
    )
    pb = peak_background_ratio(hist)
    assert pb.ratio == 1.0
    assert not pb.background_unresolved


def test_validation_errors():
    stream = PhotonStream(np.array([100]), np.array([200]), 10, 1e-5)
    with pytest.raises(ValueError):
        coincidence_histogram(stream, 5e-9, 1e-6)  # bin below resolution
    with pytest.raises(ValueError):
        coincidence_histogram(stream, 100e-9, 500e-9)  # fewer than 10 bins
    empty = PhotonStream(np.array([], dtype=np.int64), np.array([100]), 1, 1e-5)
    with pytest.raises(DataError):
        coincidence_histogram(empty, 10e-9, 1000e-9)


def test_csv_writers(tmp_path):
    counts = np.arange(40, dtype=np.int64)
    hist = CoincidenceHistogram(
        dtau_ns=500, half_bins=20, counts=counts, n1=100, n2=100, duration_s=2.0
    )
    curve = normalize_g2(hist)
    g2_path = tmp_path / "g2.csv"
    write_g2_csv(curve, g2_path)
    data = np.loadtxt(g2_path, delimiter=",", skiprows=1)
    assert data.shape == (40, 3)
    assert np.allclose(data[:, 0], curve.tau)
    assert np.allclose(data[:, 1], curve.value)
    hist_path = tmp_path / "hist.csv"
    write_histogram_csv(hist, hist_path)
    data = np.loadtxt(hist_path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1].astype(np.int64), counts)
    assert g2_path.read_text().splitlines()[0] == "tau_s,g2,stderr"
    assert hist_path.read_text().splitlines()[0] == "tau_s,counts"


def test_csv_writers_golden_bytes(tmp_path):
    # floats are written as their shortest round-trip repr, counts in decimal
    curve = G2Curve(
        tau=np.array([-2.5e-04, 1e-07]),
        value=np.array([0.1 + 0.2, 2.0]),
        stderr=np.array([1e-07, 0.0]),
    )
    write_g2_csv(curve, tmp_path / "g2.csv")
    assert (tmp_path / "g2.csv").read_bytes() == (
        b"tau_s,g2,stderr\n-0.00025,0.30000000000000004,1e-07\n1e-07,2.0,0.0\n"
    )
    hist = CoincidenceHistogram(
        dtau_ns=100, half_bins=2, counts=np.array([3, 0, 12, 1]), n1=1, n2=1, duration_s=1.0
    )
    write_histogram_csv(hist, tmp_path / "hist.csv")
    assert (tmp_path / "hist.csv").read_bytes() == (
        b"tau_s,counts\n"
        b"-1.5000000000000002e-07,3\n"
        b"-5.0000000000000004e-08,0\n"
        b"5.0000000000000004e-08,12\n"
        b"1.5000000000000002e-07,1\n"
    )


def test_bin_centers():
    hist = CoincidenceHistogram(
        dtau_ns=1000,
        half_bins=2,
        counts=np.zeros(4, dtype=np.int64),
        n1=1,
        n2=1,
        duration_s=1.0,
    )
    assert np.allclose(hist.bin_centers_s(), [-1.5e-6, -0.5e-6, 0.5e-6, 1.5e-6])


# --- the pair kernel: edge cases of the bin formula, blocks and tail ---


def _kernel_counts(stream, dtau_ns, half_bins, d1_range=None):
    return coincidence_histogram(
        stream, dtau_ns * 1e-9, dtau_ns * half_bins * 1e-9, d1_range=d1_range
    ).counts


def test_duplicates_and_zero_lags_match_brute_force():
    # timestamps drawn from a few hundred values: many duplicates in each
    # channel and many exact zero-lag pairs, which must land in no bin
    rng = np.random.default_rng(41)
    for trial in range(5):
        d1 = np.sort(rng.integers(0, 300, 400))
        d2 = np.sort(rng.integers(0, 300, 500))
        stream = PhotonStream(d1, d2, 1, 1e-6)
        assert np.intersect1d(d1, d2).size > 0
        expected = brute_force(d1, d2, 3, 20)
        assert np.array_equal(_kernel_counts(stream, 3, 20), expected), f"trial {trial}"


def test_lags_at_bin_edges_match_brute_force():
    # on a grid of multiples of dtau every lag is a bin edge, on both signs
    rng = np.random.default_rng(43)
    dtau = 7
    d1 = np.sort(rng.integers(0, 400, 300)) * dtau
    d2 = np.sort(rng.integers(0, 400, 300)) * dtau
    stream = PhotonStream(d1, d2, 1, 1e-5)
    counts = _kernel_counts(stream, dtau, 12)
    assert np.array_equal(counts, brute_force(d1, d2, dtau, 12))
    # a lag of exactly +-q*dtau closes bin q-1 on its side
    one = PhotonStream(np.array([700]), np.array([700 - 2 * dtau, 700 + 2 * dtau]), 1, 1e-6)
    counts = _kernel_counts(one, dtau, 12)
    assert counts[12 + 1] == 1 and counts[12 - 2] == 1 and counts.sum() == 2


def _burst_stream(rng):
    # sparse channels plus a dense cluster in D2 that a few D1 events sit in:
    # those events have far more in-window partners than the median one
    d1 = np.sort(np.concatenate([rng.integers(0, 40_000, 300), [20_000, 20_003, 20_003]]))
    d2 = np.sort(np.concatenate([rng.integers(0, 40_000, 300), rng.integers(19_500, 20_500, 900)]))
    return PhotonStream(d1, d2, 1, 4e-5)


def _kernel_cases(rng):
    """(stream, dtau_ns, half_bins) cases for the kernel against brute_force."""
    cases = [(_random_stream(rng, span=20_000), 50, 40) for _ in range(3)]
    dup = np.sort(rng.integers(0, 300, 400)), np.sort(rng.integers(0, 300, 500))
    cases.append((PhotonStream(*dup, 1, 1e-6), 3, 20))
    grid = np.sort(rng.integers(0, 400, 300)) * 7, np.sort(rng.integers(0, 400, 300)) * 7
    cases.append((PhotonStream(*grid, 1, 1e-5), 7, 12))
    cases.append((_burst_stream(rng), 40, 25))
    return cases


@pytest.mark.parametrize("tail", [1, 2, 3, 7])
@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_block_and_tail_sizes_match_brute_force(monkeypatch, block, tail):
    # tiny blocks and tail thresholds send most pairs through the offset
    # loop, and a tail budget of 5 pairs splits tail runs across chunks
    monkeypatch.setattr(_corr_np, "_BLOCK", block)
    monkeypatch.setattr(_corr_np, "_TAIL", tail)
    monkeypatch.setattr(_corr_np, "_TAIL_PAIRS", 5)
    rng = np.random.default_rng(59)
    for i, (stream, dtau, half) in enumerate(_kernel_cases(rng)):
        expected = brute_force(stream.d1, stream.d2, dtau, half)
        assert np.array_equal(_kernel_counts(stream, dtau, half), expected), f"case {i}"


@pytest.mark.parametrize("pairs", [1, 2, 3, 7, 64, 1000])
def test_pair_budget_does_not_change_counts(monkeypatch, pairs):
    # with the offset loop off, every pair goes through the flat tail in
    # chunks of `pairs`, whose edges cut through runs
    rng = np.random.default_rng(47)
    streams = [_random_stream(rng, span=20_000) for _ in range(4)]
    # one D1 event with far more in-window partners than the budget
    streams.append(PhotonStream(np.array([5000, 5000, 9000]), np.arange(0, 10_000, 3), 1, 1e-5))
    expected = [_kernel_counts(s, 50, 40) for s in streams]
    monkeypatch.setattr(_corr_np, "_TAIL", 1 << 62)
    monkeypatch.setattr(_corr_np, "_TAIL_PAIRS", pairs)
    for s, want in zip(streams, expected):
        assert np.array_equal(_kernel_counts(s, 50, 40), want)
        assert np.array_equal(want, brute_force(s.d1, s.d2, 50, 40))


def test_d1_range_slices_match_brute_force(monkeypatch):
    monkeypatch.setattr(_corr_np, "_BLOCK", 3)
    monkeypatch.setattr(_corr_np, "_TAIL", 2)
    monkeypatch.setattr(_corr_np, "_TAIL_PAIRS", 5)
    rng = np.random.default_rng(53)
    stream = _random_stream(rng, n1=600, n2=600, span=30_000)
    for _ in range(20):
        i0, i1 = np.sort(rng.integers(0, 601, 2))
        counts = _kernel_counts(stream, 20, 15, d1_range=(int(i0), int(i1)))
        assert np.array_equal(counts, brute_force(stream.d1[i0:i1], stream.d2, 20, 15))


def test_runs_of_65536_partners_or_more_sort_by_their_full_length(monkeypatch):
    # one D1 event has 65546 partners before it, one more than 65536 + 9,
    # so a 16-bit sort key would place its run among the short ones and
    # cut it from the offset loop's suffix; the others have about 60 a run
    monkeypatch.setattr(_corr_np, "_TAIL", 2)
    rng = np.random.default_rng(61)
    d1 = np.concatenate([[70_000], np.sort(rng.integers(150_000, 400_000, 40))])
    d2 = np.concatenate([np.arange(4454, 70_000), np.sort(rng.integers(70_001, 400_000, 300))])
    stream = PhotonStream(d1, d2, 1, 4e-4)
    assert np.searchsorted(d2, 70_000) == 65546
    assert np.array_equal(_kernel_counts(stream, 700, 100), brute_force(d1, d2, 700, 100))


def test_kernel_memory_is_bounded_by_the_pair_budget(monkeypatch):
    # about 1000 in-window partners per D1 event, millions of pairs in all;
    # with 4096-event blocks the larger stream spans four of them
    monkeypatch.setattr(_corr_np, "_BLOCK", 1 << 12)
    # a dozen int64 arrays per run of a block, 40 bytes per tail pair
    bound = 2 * 96 * _corr_np._BLOCK + 40 * _corr_np._TAIL_PAIRS
    streams = [
        (np.sort(np.random.default_rng(n1).integers(1000, 2000, n1)), np.arange(0, 3000), 10, 50)
        for n1 in (8000, 16000)
    ]
    # three events whose million-partner windows all go to the flat tail
    huge = np.array([1_000_000, 1_000_000, 1_000_001]), np.arange(0, 2_000_000), 10_000, 100
    for d1, d2, dtau_ns, half_bins in [*streams, huge]:
        n1 = d1.size
        tracemalloc.start()
        try:
            counts = _corr_np.pair_histogram(d1, d2, dtau_ns, half_bins)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = int(counts.sum()) + n1  # plus the one zero-lag pair per event
        assert pairs >= 1000 * n1
        assert peak < bound, f"peak {peak / 1e6:.1f} MB for {pairs} pairs"
        assert 8 * pairs > 3 * bound  # whole-pair temporaries would not fit
