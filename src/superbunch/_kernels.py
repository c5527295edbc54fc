"""The pair-counting kernel the correlator calls.

The numpy implementation in _corr_np is the only one; the correlator
looks it up here at call time, so it can be wrapped from outside for
timing.  COMPILED and FORCE_FALLBACK are constant False: no compiled
kernel ships with the package, so there is none to select or bypass.
Run reports record both.
"""

from ._corr_np import pair_histogram

COMPILED = False
FORCE_FALLBACK = False

__all__ = ["pair_histogram", "COMPILED", "FORCE_FALLBACK"]
