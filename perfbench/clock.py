"""Time at a fixed reference speed.

The benchmark runs on a shared machine whose speed changes from second to
second and from minute to minute: other tenants share its cores, caches and
memory.  A wall-clock time then says as much about them as about the
package.  This module measures that speed with a calibration loop, a fixed
piece of pure-Python work that needs nothing from the package, and scales a
wall-clock time to the speed at which the loop takes `NOMINAL_S`:

    scaled = wall * NOMINAL_S / loop time measured around it

The loop is timed right before and right after each stretch of timed work,
so both see the same load.  It mixes the kinds of work the package does: a
walk over a table of tuples laid out like a host's adjacency (memory bound,
like a degree scan), and small tuples, dicts and sets built on the way
(interpreter bound, like the engine).  A change to the package changes the
wall time and leaves the loop alone, so it shows in the scaled time.
"""

from __future__ import annotations

from time import perf_counter

# About the loop's time on an unloaded 2-vCPU Intel Xeon VM at 2.1 GHz
# (Python 3.11), the machine the benchmark was tuned on: scaled times read
# as seconds on that machine when nothing else runs.
NOMINAL_S = 2.0e-3

ROWS, DIM, SLICE = 1 << 12, 14, 512
_TABLE = [tuple((q, v ^ (1 << q), (q * 5 + v) % 17) for q in range(DIM)) for v in range(ROWS)]
_BANNED = frozenset({2, 3, 5})
_offset = 0


def _loop() -> int:
    """One slice of the table: a degree scan and a small dict build.  Each
    call takes the next slice, so the calls walk the whole table in turn."""
    global _offset
    rows = _TABLE[_offset:_offset + SLICE]
    _offset = (_offset + SLICE) % ROWS
    least = min(sum(1 for q, _, c in row if c not in _BANNED) for row in rows)
    seen = {}
    for row in rows:
        for q, v, c in row[:4]:
            seen[v] = (q, c, {q, c})
    return least + len(seen)


def loop_seconds() -> float:
    """Wall time of the calibration loop: two calls, back to back."""
    start = perf_counter()
    _loop()
    _loop()
    return perf_counter() - start


def scale(wall: float, before: float, after: float) -> float:
    """`wall` seconds, measured between loop times `before` and `after`,
    at the reference speed."""
    return wall * NOMINAL_S * 2 / (before + after)
