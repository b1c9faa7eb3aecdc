"""Wall-clock stage timings for run records."""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["stage_timer"]


@contextmanager
def stage_timer(timings: dict, name: str):
    """Store the wall seconds of the ``with`` body as ``timings[name]``.

    Uses ``time.perf_counter``; a body that raises records nothing.
    """
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start
