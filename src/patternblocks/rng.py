"""Seedable uniform random source backing every sampler in the package.

The generator is numpy's PCG64 (O'Neill 2014), seeded with the seed taken
mod 2**64. numpy promises that a fixed seed always gives the same stream of
raw 64-bit words, so every double handed out is a pure function of the
seed. Cryptographic strength is explicitly not a goal; the generator only
has to feed rejection samplers with well-equidistributed uniforms.

A source hands out its main stream one unit at a time (next_unit) or as
arrays (units), and can step back over units it handed out (rewind).
PatternBlockSampler reads the main stream in fixed slots of SLOT units per
attempt, and gives block i an overflow stream of its own, PCG64(seed)
jumped i + 1 times, for the units a block sample needs beyond its slot.
Because every attempt's units sit at a fixed place, a batch of attempts
can be drawn ahead and the streams rewound to just after the last attempt
used (the idea behind counter-based generators; Salmon et al. 2011).
"""

from __future__ import annotations

from operator import index, length_hint

import numpy as np

_MASK64 = (1 << 64) - 1
HAND_OUT = 4096  # words next_unit draws and turns into Python floats at a time
SLOT = 4  # main-stream units per sampling attempt: selection, then 3 for the block


class UniformSource:
    """PCG64 generator emitting doubles in [0, 1).

    Unit conversion takes the top 53 bits of each 64-bit word scaled by
    2**-53, so 1.0 is never produced. The instance is mutable
    single-threaded state: give each sampler its own source, never share
    one across threads. No word is drawn before the first draw.
    """

    def __init__(self, seed: int):
        self._seed = index(seed) & _MASK64
        self._bits = np.random.PCG64(self._seed)
        self._hand_out = []  # next_unit's current hand-out
        self._chunk = iter(())  # its unread rest
        self._chunk_end = 0  # stream position just past the current chunk
        self._overflow = {}

    @property
    def draws_issued(self) -> int:
        """Units handed out so far, less those rewound."""
        return self._chunk_end - length_hint(self._chunk)

    def next_unit(self) -> float:
        """Next uniform value in [0, 1); draws_issued goes up by one."""
        try:
            return next(self._chunk)
        except StopIteration:
            words = self._bits.random_raw(HAND_OUT)
            self._hand_out = ((words >> 11) * 2.0**-53).tolist()
            self._chunk = iter(self._hand_out)
            self._chunk_end += HAND_OUT
            return next(self._chunk)

    def units(self, k: int) -> np.ndarray:
        """The next k units as a float64 array, the values k next_unit
        calls would give."""
        self._drop_chunk()
        self._chunk_end += k
        return (self._bits.random_raw(k) >> 11) * 2.0**-53

    def rewind(self, k: int) -> None:
        """Step back k units: the next k draws repeat the last k."""
        read = len(self._hand_out) - length_hint(self._chunk)
        if 0 <= k <= read:
            # within next_unit's hand-out: no word is drawn again, and a
            # list iterator takes its position (pickle's __setstate__) uncopied
            self._chunk = iter(self._hand_out)
            self._chunk.__setstate__(read - k)
            return
        self._drop_chunk()
        if not 0 <= k <= self._chunk_end:
            raise ValueError(f"cannot rewind {k} of {self._chunk_end} units")
        self._bits.advance(-k)
        self._chunk_end -= k

    def overflow(self, i: int) -> UniformSource:
        """Block i's overflow stream, PCG64(seed) jumped i + 1 times; made
        on first use and kept, so its position carries over between calls."""
        stream = self._overflow.get(i)
        if stream is None:
            stream = self._overflow[i] = UniformSource(self._seed)
            stream._bits = stream._bits.jumped(i + 1)
        return stream

    def _drop_chunk(self):
        # step the generator back over the unread rest of next_unit's hand-out
        unread = length_hint(self._chunk)
        if unread:
            self._bits.advance(-unread)
            self._chunk_end -= unread
        self._hand_out = []
        self._chunk = iter(())
