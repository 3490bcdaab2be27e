"""Portable deterministic PRNG used by every randomized component.

All sampling in this package goes through :class:`XorShift64Star` so that
golden tests reproduce bit-for-bit across platforms and Python versions.
The generator is Marsaglia's xorshift64* (64-bit state, period 2**64 - 1);
seeds are expanded through splitmix64 so that small or zero seeds still
start from well-mixed state.

:func:`block_u64` and :func:`block_random` draw the next n values of the
same stream at once. The stream is cut into lanes of m = 2**a consecutive
states. The state step is linear over GF(2), so 2**k steps are one fixed
64 x 64 bit matrix applied to the state (Haramoto et al., "Efficient jump
ahead for F2-linear random number generators", INFORMS J. Computing 2008);
jump-ahead by such matrices reaches each lane's first state. The lanes are
then stepped together, one shift-xor step of all of them at a time. A
block equals n scalar draws and leaves the generator where they would.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .index import _check_number

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
        _check_number("seed", seed, "(-inf, inf)", int)
        state = _splitmix64(seed & _MASK64)
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
        """Uniform integer in [0, n), n a positive int. Modulo bias is negligible for n << 2**64."""
        if type(n) is not int or n <= 0:
            raise ValueError(f"n must be a positive int, got {n!r}")
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


def _jump(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The linear map whose byte tables are ``table``, applied to each of states."""
    state_bytes = states.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = table[0].take(state_bytes[:, 0])
    for b in range(1, 8):
        out ^= table[b].take(state_bytes[:, b])
    return out


@functools.cache
def _jump_table(k: int) -> np.ndarray:
    """Byte tables of the state step applied 2**k times.

    ``[b][v]`` is where the step takes a state whose byte b is v and whose
    other bits are 0; a state's image is the XOR of its 8 bytes' entries.
    """
    if k == 0:
        one_step = XorShift64Star()
        images = []
        for i in range(64):
            one_step._state = 1 << i
            one_step.next_u64()
            images.append(one_step._state)
        images = np.array(images, dtype=np.uint64)
    else:
        half = _jump_table(k - 1)
        images = _jump(half, _jump(half, np.uint64(1) << np.arange(64, dtype=np.uint64)))
    table = np.zeros((8, 256), dtype=np.uint64)
    for b in range(8):
        for j in range(8):
            table[b, 1 << j:2 << j] = table[b, :1 << j] ^ images[8 * b + j]
    table.flags.writeable = False       # one cached table serves every caller
    return table


def block_u64(rng: XorShift64Star, n: int) -> np.ndarray:
    """The next n ``rng.next_u64()`` values as a uint64 array; rng ends where n calls leave it.

    Draw i is step i % m of lane i // m, for m = 2**a steps per lane (16
    from n = 256 on; fewer for short blocks, so that they are no slower).
    The L = ceil(n / m) lane starts come by recursive doubling: with the
    first c in hand, the jump of c * m steps gives the next c. Row r of the
    (m x L) grid is then row r - 1 after one scalar step, taken by all
    lanes at once, so the grid's transpose read row by row is the stream.
    """
    n = operator.index(n)          # numpy integers too, as np.empty took them
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    a = min(4, (n.bit_length() - 1) // 2)
    m = 1 << a
    lanes = -(-n // m)
    grid = np.empty((m, lanes), dtype=np.uint64)
    starts = grid[0]
    starts[0] = _jump(_jump_table(0), np.array([rng._state], dtype=np.uint64))[0]
    c, k = 1, a
    while c < lanes:
        step = min(c, lanes - c)
        starts[c:c + step] = _jump(_jump_table(k), starts[:step])
        c, k = c + step, k + 1
    shifted = np.empty(lanes, dtype=np.uint64)
    for r in range(1, m):
        x = grid[r]
        np.right_shift(grid[r - 1], 12, out=shifted)
        np.bitwise_xor(grid[r - 1], shifted, out=x)
        np.left_shift(x, 25, out=shifted)      # drops the bits past 64, as & _MASK64 does
        x ^= shifted
        np.right_shift(x, 27, out=shifted)
        x ^= shifted
    rng._state = int(grid[(n - 1) % m, (n - 1) // m])
    return np.multiply(grid.T, np.uint64(_XORSHIFT_MULT), order="C").reshape(-1)[:n]   # wraps mod 2**64


def block_random(rng: XorShift64Star, n: int) -> np.ndarray:
    """The next n ``rng.random()`` values as a float64 array."""
    return (block_u64(rng, n) >> 11).astype(np.float64) * (2.0 ** -53)
