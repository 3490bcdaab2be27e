"""Portable deterministic PRNG used by every randomized component.

All sampling in this package goes through :class:`XorShift64Star` so that
golden tests reproduce bit-for-bit across platforms and Python versions.
The generator is Marsaglia's xorshift64* (64-bit state, period 2**64 - 1);
seeds are expanded through splitmix64 so that small or zero seeds still
start from well-mixed state.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class XorShift64Star:
    """xorshift64* generator with a splitmix64-seeded state."""

    def __init__(self, seed: int = 0):
        state = _splitmix64(int(seed) & _MASK64)
        self._state = state if state != 0 else 1

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n). Modulo bias is negligible for n << 2**64."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
