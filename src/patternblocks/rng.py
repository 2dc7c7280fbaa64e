"""Seedable uniform random source backing every sampler in the package.

The generator is xoshiro256** (Blackman & Vigna) seeded through splitmix64.
Every word is a pure function of the seed, bit-exact across platforms.
Cryptographic strength is explicitly not a goal; the generator only has to
feed rejection samplers with well-equidistributed uniforms.

Words are made 65,536 at a time on numpy uint64 lanes. Lane j holds the
state at stream position t + j*STEPS; a round steps every lane STEPS times,
so read lane by lane the round is the next LANES*STEPS words in stream
order. xoshiro256**'s state transition is linear over GF(2), so the next
round's lanes are this round's start lanes times the 256x256 bit matrix
A**(LANES*STEPS), where A is the one-step transition; the product is an
XOR of byte lookup tables. No BLAS: its worker threads would spin.
"""

from __future__ import annotations

import functools
from operator import length_hint

import numpy as np

_MASK64 = (1 << 64) - 1

# splitmix64 increment and finalizer constants (Vigna's reference code).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB

LANES = 256  # a power of two: lanes are filled by doubling
STEPS = 256  # words per lane per round
ROUND = LANES * STEPS
HAND_OUT = 4096  # Python floats made at a time from a round


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; return (new_state, output word)."""
    state = (state + _SM_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _SM_MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_MIX2) & _MASK64
    return state, z ^ (z >> 31)


# shift counts as uint64 scalars: the shifts of uint64 arrays then skip
# converting a Python int on every call
_U7, _U11, _U17, _U19, _U45, _U57 = (np.uint64(k) for k in (7, 11, 17, 19, 45, 57))


def _step(states: np.ndarray, steps: int, words: np.ndarray | None = None) -> None:
    """Apply the xoshiro256** transition `steps` times to every column of
    the (4, N) uint64 array states, in place. When words (steps, N) is
    given, words[k] receives each lane's s1 before step k: the input of the
    ** scrambler."""
    s0, s1, s2, s3 = states
    s01, s23 = states[0:2], states[2:4]
    t = np.empty_like(s1)
    left_shift = np.left_shift
    for k in range(steps):
        if words is not None:
            words[k] = s1
        left_shift(s1, _U17, t)
        s23 ^= s01  # s2 ^= s0; s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        left_shift(s3, _U45, t)
        s3 >>= _U19
        s3 |= t


def _table(cols: np.ndarray) -> np.ndarray:
    """Byte tables of the GF(2) matrix whose column c, the image of bit c,
    is row c of the (256, 4) uint64 array cols: entry [p, v] is the image
    of byte value v at byte p of a state, shape (32, 256, 4)."""
    bit_images = cols.reshape(32, 8, 4)
    table = np.zeros((32, 1, 4), dtype=np.uint64)
    for b in range(8):
        table = np.concatenate([table, table ^ bit_images[:, b : b + 1]], axis=1)
    return table


_BYTES = np.arange(32)


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The matrix of table times each of the (N, 4) uint64 states: the XOR
    of the images of the states' 32 bytes."""
    by = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    return np.bitwise_xor.reduce(table[_BYTES, by], axis=1)


@functools.cache
def _jumps() -> tuple[np.ndarray, ...]:
    """Columns of A**(2**i * STEPS) for i = 0 .. log2(LANES), built once.

    Stepping the 256 unit states STEPS times gives the columns of A**STEPS;
    each further matrix is the square of the one before. The last one
    moves a lane forward by a whole round.
    """
    bit = np.arange(256)
    units = np.zeros((4, 256), dtype=np.uint64)
    units[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    _step(units, STEPS)
    cols = [units.T.copy()]
    for _ in range(LANES.bit_length() - 1):
        cols.append(_apply(_table(cols[-1]), cols[-1]))
    return tuple(cols)


@functools.cache
def _round_table() -> np.ndarray:
    return _table(_jumps()[-1])


class UniformSource:
    """xoshiro256** generator emitting doubles in [0, 1).

    Unit conversion takes the top 53 bits of each 64-bit word scaled by
    2**-53, so 1.0 is never produced and every double in the sequence is a
    pure function of the seed. The instance is mutable single-threaded
    state: give each sampler its own source, never share one across threads.

    Nothing is computed until the first draw; the jump matrices are then
    built once per process and each round of ROUND words is made as the
    previous one runs out, handed out HAND_OUT Python floats at a time.
    """

    def __init__(self, seed: int):
        s = seed & _MASK64
        state = []
        for _ in range(4):
            s, word = _splitmix64(s)
            state.append(word)
        self._lanes = None  # start states of the round being handed out
        self._first = state  # state at stream position 0
        self._units = None
        self._offset = ROUND  # hand-out position within the round
        self._chunk = iter(())
        self._chunk_end = 0  # stream position just past the current chunk

    @property
    def draws_issued(self) -> int:
        """Number of next_unit calls so far."""
        return self._chunk_end - length_hint(self._chunk)

    def next_unit(self) -> float:
        """Next uniform value in [0, 1); draws_issued goes up by one."""
        try:
            return next(self._chunk)
        except StopIteration:
            self._hand_out()
            return next(self._chunk)

    def _hand_out(self) -> None:
        if self._offset == ROUND:
            self._round()
        chunk = self._units[self._offset : self._offset + HAND_OUT].tolist()
        self._offset += HAND_OUT
        self._chunk = iter(chunk)
        self._chunk_end += HAND_OUT

    def _round(self) -> None:
        if self._lanes is None:
            lanes = np.zeros((LANES, 4), dtype=np.uint64)
            lanes[0] = self._first
            filled = 1
            for jump in _jumps()[:-1]:
                lanes[filled : 2 * filled] = _apply(_table(jump), lanes[:filled])
                filled *= 2
            self._raw = np.empty((STEPS, LANES), dtype=np.uint64)
            self._units = np.empty(ROUND, dtype=np.float64)
        else:
            lanes = _apply(_round_table(), self._lanes)
        self._lanes = lanes
        states = lanes.T.copy()
        w = self._raw
        _step(states, STEPS, w)
        # ** scrambler: rotl(s1 * 5, 7) * 9, then the top 53 bits
        w *= 5
        t = w << _U7
        w >>= _U57
        w |= t
        w *= 9
        w >>= _U11
        # transposed, the (step, lane) words read lane by lane
        np.multiply(w.T, 2.0**-53, out=self._units.reshape(LANES, STEPS))
        self._offset = 0
