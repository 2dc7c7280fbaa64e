"""Seedable uniform random source backing every sampler in the package.

The generator is numpy's PCG64 (O'Neill 2014), seeded with the seed taken
mod 2**64. numpy promises that a fixed seed always gives the same stream of
raw 64-bit words, so every double handed out is a pure function of the
seed. Cryptographic strength is explicitly not a goal; the generator only
has to feed rejection samplers with well-equidistributed uniforms.
"""

from __future__ import annotations

from operator import index, length_hint

import numpy as np

_MASK64 = (1 << 64) - 1
HAND_OUT = 4096  # words drawn and turned into Python floats at a time


class UniformSource:
    """PCG64 generator emitting doubles in [0, 1).

    Unit conversion takes the top 53 bits of each 64-bit word scaled by
    2**-53, so 1.0 is never produced. The instance is mutable
    single-threaded state: give each sampler its own source, never share
    one across threads. No word is drawn before the first next_unit call.
    """

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(index(seed) & _MASK64)
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
            words = self._bits.random_raw(HAND_OUT)
            self._chunk = iter(((words >> 11) * 2.0**-53).tolist())
            self._chunk_end += HAND_OUT
            return next(self._chunk)
