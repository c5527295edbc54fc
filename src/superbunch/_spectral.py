"""Spectral synthesis of band-limited Gaussian processes.

A stationary circular complex Gaussian process with a flat power spectrum
is generated by drawing independent complex Gaussian Fourier coefficients
c_k for every FFT mode k of an n-sample record inside the band and
transforming back.  The normalized field autocorrelation of a flat band
of total width B (Hz) is sinc(pi*B*tau), so the intensity |a(t)|^2 has
autocorrelation 1 + sinc^2(pi*B*tau) by the Gaussian moment theorem.

Only the m modes inside the band are nonzero, and m is often a hundredth
of n, so the Fourier sum is evaluated interleaved (polyphase) rather than
as one n-point transform.  With n_c the smallest divisor of n that is at
least m and L = n / n_c, the samples s, s+L, s+2L, ... of phase s < L are
one n_c-point inverse FFT of c_k e^{2 pi i k s / n}, each signed mode k
placed at k mod n_c (m <= n_c keeps them apart).  The phases fall in
batches of r = `_BATCH` // n_c phases (at least one), which share one
start of the twiddle rule below.  The sum is the same one the n-point
transform evaluates, so the samples agree with it up to rounding; when n
has no such divisor (a prime n, say) L = 1 and it is that transform.

Twiddle rule.  A batch of phases s0..s0+r-1 needs e^{2 pi i k s0 / n}
for its first phase, times e^{2 pi i k j / n} (one table, rows j >= 1)
for the others; a batch of one phase needs no table.  Mode -k takes the
conjugate of mode k's factor, so only k >= 0 are evaluated.  The first
phase's factors are evaluated by `exp` at every `_ANCHOR`-th batch and
multiplied by the one-batch step e^{2 pi i k r / n} from there for the
batches in between, so m complex exponentials per batch become one
complex product.  Every angle is at most pi (k <= n_c / 2 and
s0 < n / n_c), and seven steps add at most a few units in the last
place: the samples move by about 1e-15 of the largest from evaluating
every start by `exp`.  The rule depends on the batch index alone.

Threads.  The workers (`_workers.worker_count` of `threads` and the
batches) take contiguous runs of batches, so each steps through its own
starts; one that begins between anchors first steps up from the anchor
below, as a single worker would have.  Every batch is therefore the
same arithmetic on the same numbers for any thread count, and so are
the samples.  A worker writes only the samples of its own phases, and
no worker reads the output, so the writes take no lock.

Memory.  A worker's scratch is sized in bytes against
`_workers.SCRATCH_BYTES`, not in samples, so it does not grow with n.
The worker transforms a block of a batch's rows at a time, each row the
same transform, bit for bit, as in the whole batch: the most rows whose
complex samples (16 bytes each) fit the budget.  It stages the blocks'
floats (8 bytes each) and writes them to the output together, at least
eight phases at a time where they fit, so a write fills whole 64-byte
lines of the output.  A stage holds at most the budget, or, when that
is more, its share of an eighth of the output: written a phase at a
time, an output too large for the cache is passed over once per phase
(at the README 20 s speckle, L = 80, that doubled the synthesis time).
Where not even two phases fit the stage, the worker has none: it
reduces each phase straight into its strided samples of the output.
So it is for the 2M-sample 10 kHz speckle at dt = 10 us (n_c = 250000,
L = 8): a worker holds one 4 MB row and a 1.6 MB start vector beside
the 16 MB output.  One phase is the floor, so a prime n still holds one
n-point transform.  The buffers are allocated on the calling thread
(`_workers.map_runs`).  The workers share the m coefficients, the steps
and the twiddle table, which holds fewer than `_BATCH` complex values.
As the workers are never more than the CPUs, `-j 8` on two CPUs holds
what `-j 2` does.

That intensity is thermal light, and the package uses it twice: as the
rotating ground-glass speckle and as the noise modulation.  Both draw it
from `bandlimited_intensity`, so for equal band, mean and generator state
the two are the same samples.
"""

import math

import numpy as np

from ._workers import SCRATCH_BYTES, map_runs, worker_count

_BATCH = 1 << 18  # complex samples of the phases that share one start
_ANCHOR = 8  # a batch start is evaluated directly once per this many batches


def _band_modes(n: int, dt: float, half_band_hz: float) -> tuple[int, int]:
    """Counts (p, q) of the in-band modes k = 0..p-1 and k = -q..-1.

    The same modes as `np.abs(np.fft.fftfreq(n, dt)) <= half_band_hz * (1 +
    1e-12)`, whose k-th frequency is k * (1 / (n * dt)), found without it.
    """
    step = 1.0 / (n * dt)
    # tolerate rounding at the band edge so the mode count is stable
    edge = half_band_hz * (1.0 + 1e-12)
    # edge / step is within rounding of the last in-band k: test its neighbours
    near = min(int(edge / step), n) + np.arange(-1, 2)
    last = int(near[near * step <= edge].max())
    return 1 + min(last, (n - 1) // 2), min(last, n // 2)


def _transform_length(n: int, m: int) -> int:
    """Smallest divisor of n that is at least m."""
    best = n
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            for c in (d, n // d):
                if m <= c < best:
                    best = c
    return best


def slow_synthesis(n: int, dt: float, half_band_hz: float) -> bool:
    """Whether n samples of this band get transforms far longer than the band needs.

    `_synthesize` runs n / n_c transforms of n_c points, n_c the smallest
    divisor of n that is at least the band's m modes.  A sample count
    with no divisor near m (a prime, or twice one) gets one or two
    transforms of about n points, often of a large prime length: at the
    README speckle (m = 20001, at -j 1) n = 2000003 took 0.64 s where
    n = 2000000 took 0.045 s.  Flagged is an n_c above both 2 m and one
    batch, as a transform shorter than a batch is cheap whatever its length.
    """
    p, q = _band_modes(n, dt, half_band_hz)
    return _transform_length(n, p + q) > max(2 * (p + q), _BATCH)


def _synthesize(n, dt, half_band_hz, rng, reduce, threads=1) -> np.ndarray:
    """reduce(field) for the flat-band circular Gaussian field of n samples.

    The field has unit mean intensity in expectation (the exact empirical
    mean is left to the caller to normalize).  `reduce(block, out)` writes
    floats for complex samples into `out`, of their shape.  Draw order is
    fixed (real parts first, then imaginary) so results are reproducible
    for a given generator state.  Up to `threads` workers share the
    batches, each with its scratch, and the samples are the same bits for
    any count.
    """
    if n < 2:
        raise ValueError("need at least 2 samples for spectral synthesis")
    if half_band_hz <= 0:
        raise ValueError("band edge must be positive")
    p, q = _band_modes(n, dt, half_band_hz)
    m = p + q
    re = rng.standard_normal(m)
    im = rng.standard_normal(m)
    # each of the m modes carries unit power
    coef = (re + 1j * im) / np.sqrt(2.0 * m)
    del re, im
    # before the buffers: freed on return, they leave one contiguous hole
    # that the next synthesis reuses
    out = np.empty(n)
    n_c = _transform_length(n, m)
    phases = n // n_c
    rows = max(1, min(phases, _BATCH // n_c))
    batches = -(-phases // rows)
    height, staged = _block_shape(n_c, rows, phases, worker_count(threads, batches))
    # e^{2 pi i k s / n} of mode -k is the conjugate of mode k's, so only
    # k = 0..max(p - 1, q) are evaluated
    k = np.arange(max(p - 1, q) + 1, dtype=float)
    step = _phasors(k, rows, n)  # from one batch's first phase to the next's
    # e^{2 pi i k j / n} over the signed modes, for the rows j = 1.. of a
    # batch (none when a batch is one phase)
    signed = np.concatenate([np.arange(p), np.arange(-q, 0)])
    twiddle = np.exp((2j * np.pi / n) * np.outer(np.arange(1, rows), signed))
    del signed
    # grid[r, s] is sample s + phases * r; a worker writes only the
    # columns of its own phases, and no worker reads the output
    grid = out.reshape(n_c, phases)

    def scratch():
        start = np.empty(k.size, dtype=np.complex128)
        return start, np.empty((height, n_c), dtype=np.complex128), np.empty((staged, n_c))

    def run(buffers, b0, b1):
        start, buffer, stage = buffers
        held = 0  # phases in the stage
        for b in range(b0, b1):
            # e^{2 pi i k s0 / n} at the batch's first phase s0: evaluated
            # at every _ANCHOR-th batch and stepped from it in between, so
            # each batch's start depends on its index alone
            if b == b0 or b % _ANCHOR == 0:
                a = b - b % _ANCHOR
                _phasors(k, a * rows, n, out=start)
                for _ in range(b - a):
                    start *= step
            else:
                start *= step
            s0 = b * rows
            size = min(rows, phases - s0)
            for j0 in range(0, size, height):
                block = buffer[: min(height, size - j0)]  # rows j0.. of the batch
                # the first phase's modes, k >= 0 at k and -k at n_c - k
                first = block[0]
                np.multiply(coef[:p], start[:p], out=first[:p])
                first[p : n_c - q] = 0
                np.conjugate(start[q:0:-1], out=first[n_c - q :])
                first[n_c - q :] *= coef[p:]
                block[1:, p : n_c - q] = 0
                # row j of the batch is those modes times twiddle row j - 1;
                # the block's first row last, as the others read it
                for r in range(len(block) - 1, -1, -1):
                    if j0 + r:
                        tw = twiddle[j0 + r - 1]
                        np.multiply(tw[:p], first[:p], out=block[r, :p])
                        np.multiply(tw[p:], first[n_c - q :], out=block[r, n_c - q :])
                # in place (`out` needs numpy 2): a fresh array per block is slower
                np.fft.ifft(block, axis=1, norm="forward", out=block)
                s = s0 + j0
                if not staged:
                    reduce(first, grid[:, s])
                    continue
                # the stage's `held` phases are the phases s - held..s - 1
                if held + len(block) > staged:
                    grid[:, s - held : s] = stage[:held].T
                    held = 0
                reduce(block, stage[held : held + len(block)])
                held += len(block)
        if held:
            s = min(b1 * rows, phases)
            grid[:, s - held : s] = stage[:held].T

    map_runs(run, batches, scratch, threads=threads)
    return out


def _block_shape(n_c: int, rows: int, phases: int, workers: int) -> tuple[int, int]:
    """(rows a worker transforms at once, phases it stages per write).

    The block's complex samples, 16 bytes each, fit SCRATCH_BYTES unless
    one row alone is more.  The stage holds whole blocks, enough to cover
    eight phases where they fit: the workers' stages together take at
    most an eighth of the output (8 bytes a sample), or each the budget
    when that is more.  A stage of one phase is none (0), which happens
    only with blocks of one row: a worker then reduces each phase
    straight into its strided samples of the output.
    """
    height = max(1, min(rows, SCRATCH_BYTES // (16 * n_c)))
    room = max(SCRATCH_BYTES, n_c * phases // workers) // (8 * n_c)  # phases
    staged = min(phases, height * min(room // height, -(-8 // height)))
    return height, staged if staged > 1 else 0


def _phasors(k, s, n, out=None):
    """e^{2 pi i k s / n} for the modes `k` (floats) at phase s."""
    out = np.empty(k.size, dtype=np.complex128) if out is None else out
    # the angle rounds as (2 pi / n) * (k * s) does
    np.multiply(k, s, out=out.imag)
    out.imag *= 2 * np.pi / n
    out.real = 0.0
    return np.exp(out, out=out)


def _intensity(field, out):
    np.abs(field, out=out)
    np.square(out, out=out)


def _real_part(field, out):
    np.multiply(field.real, np.sqrt(2.0), out=out)


def bandlimited_intensity(
    n: int,
    dt: float,
    half_band_hz: float,
    mean: float,
    rng: np.random.Generator,
    *,
    threads: int = 1,
) -> np.ndarray:
    """Thermal intensity |a|^2 of the flat band |f| <= half_band_hz, empirical mean `mean`."""
    samples = _synthesize(n, dt, half_band_hz, rng, _intensity, threads)
    samples *= mean / samples.mean()
    return samples


def bandlimited_real_noise(
    n: int, dt: float, half_band_hz: float, rng: np.random.Generator, *, threads: int = 1
) -> np.ndarray:
    """Real band-limited Gaussian noise with unit variance (empirically)."""
    v = _synthesize(n, dt, half_band_hz, rng, _real_part, threads)
    sd = v.std()
    if sd == 0.0:
        raise ValueError("degenerate noise realization")
    v /= sd
    return v

