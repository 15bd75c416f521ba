"""Counter-based deterministic 64-bit generator (SplitMix64).

The state advances by the golden-gamma constant 0x9E3779B97F4A7C15 and each
output is the finalizing mix

    z  = state
    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

all modulo 2^64.  The algorithm is fixed here, not delegated to a library,
so identical seeds give bit-identical streams on every platform; bounded
draws use plain modulo reduction, which keeps the stream layout stable.
"""

from __future__ import annotations

from typing import MutableSequence

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Draw from [0, n)."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        return self.next_u64() % n

    def shuffle(self, seq: MutableSequence) -> None:
        """Fisher-Yates from the back: item i swaps with randrange(i + 1).
        The draw is next_u64 written out in the loop, so the state and the
        swaps are those of calling randrange, without two calls per item."""
        s = self._state
        for i in range(len(seq) - 1, 0, -1):
            self._state = s = (s + _GAMMA) & _MASK
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            j = (z ^ (z >> 31)) % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def derive_seed(master: int, index: int) -> int:
    """Stable per-trial seed: the (index+1)-th output of the master stream.

    SplitMix64 is counter-based, so the stream can be entered at any offset
    in O(1) by advancing the state arithmetic directly.
    """
    rng = SplitMix64((master + index * _GAMMA) & _MASK)
    return rng.next_u64()
