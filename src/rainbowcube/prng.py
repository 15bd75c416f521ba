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

The i-th draw from state s is mix(s + i*gamma), so `draws` mixes a block
of draws at once, each in its own 128-bit lane of one Python int: lane i,
from 0, holds s + (i+1)*gamma, masked to its low 64 bits.  The mix stays
exact lane by lane.  A right shift moves the next lane's low bits into bits
64-127 of this lane, and the xor leaves them there; masking each lane back
to 64 bits before the multiply clears them, so the multiply sees this
lane's z alone.
A product of a 64-bit z and a 64-bit constant is below 2^128, so it fills
at most its own lane and carries nothing into the next; masking it again
is the reduction modulo 2^64.  The last shift's stray bits land in bits
64-127 and are dropped when the low half of each lane is read out.
"""

from __future__ import annotations

import sys
from array import array
from typing import MutableSequence

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CHUNK = 256  # lanes per block that `draws` mixes at once
_SWAP = sys.byteorder == "big"  # array('Q') reads native order; the lanes are written little-endian
# per lane of a full block: 1, (i+1)*gamma mod 2^64, and the 64-bit mask;
# built on the first draw, so that importing the package costs nothing
_LANES: tuple[int, int, int] | None = None


def _lanes() -> tuple[int, int, int]:
    global _LANES

    def packed(values) -> int:
        return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")

    _LANES = (packed([1] * _CHUNK), packed(i * _GAMMA & _MASK for i in range(1, _CHUNK + 1)),
              packed([_MASK] * _CHUNK))
    return _LANES


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

    def draws(self, k: int) -> array:
        """The next k outputs of next_u64, in order, as an array('Q'); the
        state advances as k calls would advance it.  A block of at most
        _CHUNK draws is mixed at once in 128-bit lanes (see the module
        docstring); a shorter block masks the lane constants down to its
        lanes."""
        ones, steps, mask = _LANES or _lanes()
        s, out = self._state, array("Q")
        while k > 0:
            n = min(k, _CHUNK)
            if n < _CHUNK:
                cut = (1 << 128 * n) - 1
                ones, steps, mask = ones & cut, steps & cut, mask & cut
            z = (s * ones + steps) & mask
            z = ((z ^ z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
            z = ((z ^ z >> 27) & mask) * 0x94D049BB133111EB & mask
            lanes = array("Q", (z ^ z >> 31).to_bytes(16 * n, "little"))
            if _SWAP:
                lanes.byteswap()
            out += lanes[::2]
            s = (s + n * _GAMMA) & _MASK
            k -= n
        self._state = s
        return out

    def randrange(self, n: int) -> int:
        """Draw from [0, n)."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        return self.next_u64() % n

    def shuffle(self, seq: MutableSequence) -> None:
        """Fisher-Yates from the back: item i swaps with randrange(i + 1).
        The draws come from `draws`, and the state is then put one draw past
        the last swap tried, so the draws, the list and the state, also
        after a swap that raises, are those of calling randrange per item."""
        s, top = self._state, len(seq) - 1
        i = top + 1  # the swap of item i takes draw top + 1 - i
        try:
            for i, z in zip(range(top, 0, -1), self.draws(top)):
                j = z % (i + 1)
                seq[i], seq[j] = seq[j], seq[i]
        finally:
            self._state = (s + (top + 1 - i) * _GAMMA) & _MASK


def derive_seed(master: int, index: int) -> int:
    """Stable per-trial seed: the (index+1)-th output of the master stream.

    SplitMix64 is counter-based, so the stream can be entered at any offset
    in O(1) by advancing the state arithmetic directly.
    """
    rng = SplitMix64((master + index * _GAMMA) & _MASK)
    return rng.next_u64()
