"""Bit-identity check of the compiled pair-counting kernel against numpy.

The numpy fallback (`superbunch._corr_np`) is the reference.  When the
compiled extension (`superbunch._corr_cy`) can be imported, both count
synthetic streams of growing size, whole and over a partial D1 range,
and must agree bin for bin.  Without the extension the check is skipped
with the import error as its reason.
"""

from __future__ import annotations

import time

import numpy as np

from superbunch import _corr_np

DTAU_NS, HALF_BINS = 1000, 250
SIZES = (2000, 8000, 32000)


def _best_time(fn, *args, repeats=3):
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return out, best


def kernel_self_check(seed: int) -> dict:
    try:
        from superbunch import _corr_cy
    except ImportError as exc:
        return {"status": "skipped", "reason": f"no compiled kernel: {exc}"}
    rng = np.random.default_rng(seed)
    cases = []
    for n in SIZES:
        # density chosen so each event pairs with ~40 partners in window
        span = n * DTAU_NS * HALF_BINS // 20
        d1 = np.sort(rng.integers(0, span, n)).astype(np.int64)
        d2 = np.sort(rng.integers(0, span, n)).astype(np.int64)
        for start, stop in ((0, n), (n // 3, 2 * n // 3)):
            args = (d1, d2, DTAU_NS, HALF_BINS, start, stop)
            ref, t_np = _best_time(_corr_np.pair_histogram, *args)
            out, t_cy = _best_time(_corr_cy.pair_histogram, *args)
            if not np.array_equal(ref, np.asarray(out)):
                return {
                    "status": "failed",
                    "reason": f"kernels disagree at n={n}, range=({start}, {stop})",
                }
            cases.append(
                {"events": n, "range": [start, stop], "pairs": int(ref.sum()),
                 "numpy_s": t_np, "compiled_s": t_cy}
            )
    return {"status": "passed", "cases": cases}
