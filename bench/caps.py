"""Per-call time caps for in-process work.

The benchmark is single-threaded, so a cap is a real-time interval timer
whose signal raises `Timeout` inside the capped call.  `Timeout` derives
from BaseException so no `except Exception` on the way can swallow it.
"""

from __future__ import annotations

import signal
from time import perf_counter


class Timeout(BaseException):
    def __init__(self, elapsed: float = 0.0):
        super().__init__("cap reached after %.3f s" % elapsed)
        self.elapsed = elapsed


def _raise(signum, frame):
    raise Timeout()


def capped(fn, cap_s: float):
    """Return (fn(), seconds); raise Timeout once cap_s has passed.

    Any exception fn raises gets an `elapsed` attribute before it
    propagates.
    """
    old = signal.signal(signal.SIGALRM, _raise)
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        out = fn()
    except Timeout:
        raise Timeout(perf_counter() - t0) from None
    except Exception as exc:
        exc.elapsed = perf_counter() - t0
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return out, perf_counter() - t0
