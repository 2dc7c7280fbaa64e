"""Seedable uniform random source backing every sampler in the package.

The generator is numpy's PCG64 (O'Neill 2014), seeded with the seed taken
mod 2**64. numpy promises that a fixed seed always gives the same stream of
raw 64-bit words, so every double handed out is a pure function of the
seed. Cryptographic strength is explicitly not a goal; the generator only
has to feed rejection samplers with well-equidistributed uniforms.

A source hands out its stream as arrays (units), or one word at a time
(next_unit) for the few scalar samples a run still takes, and steps back
over units it handed out by moving the generator back (rewind).
PatternBlockSampler reads the main stream in fixed slots of SLOT units per
attempt. Block i has an overflow stream, PCG64(seed) jumped i + 1 times,
and each block kind reads its first block's stream for the units a block
sample needs beyond its slot.
Because every attempt's units sit at a fixed place, a batch of attempts
can be drawn ahead and the streams rewound to just after the last attempt
used (the idea behind counter-based generators; Salmon et al. 2011).
"""

from __future__ import annotations

from operator import index

import numpy as np

_MASK64 = (1 << 64) - 1
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
        self.draws_issued = 0  # units handed out so far, less those rewound
        self._overflow = {}

    def next_unit(self) -> float:
        """Next uniform value in [0, 1), from one word; draws_issued goes
        up by one."""
        self.draws_issued += 1
        return (self._bits.random_raw() >> 11) * 2.0**-53

    def units(self, k: int) -> np.ndarray:
        """The next k units as a float64 array, the values k next_unit
        calls would give."""
        self.draws_issued += k
        return (self._bits.random_raw(k) >> 11) * 2.0**-53

    def rewind(self, k: int) -> None:
        """Step back k units: the next k draws repeat the last k."""
        if not 0 <= k <= self.draws_issued:
            raise ValueError(f"cannot rewind {k} of {self.draws_issued} units")
        self._bits.advance(-k)
        self.draws_issued -= k

    def overflow(self, i: int) -> UniformSource:
        """Block i's overflow stream, PCG64(seed) jumped i + 1 times; made
        on first use and kept, so its position carries over between calls."""
        stream = self._overflow.get(i)
        if stream is None:
            stream = self._overflow[i] = UniformSource(self._seed)
            stream._bits = stream._bits.jumped(i + 1)
        return stream
