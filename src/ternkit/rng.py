"""Deterministic random number generation.

The generator is Philox4x64-10, a counter-based block cipher RNG: output
block ``i`` is a pure function of (key, i), so bulk fills and one-at-a-time
draws read the exact same stream. The cipher is numpy's compiled
``np.random.Philox``. The 128-bit key is derived from the 64-bit seed with
two rounds of SplitMix64.

Stream layout, fixed by this module:

* block ``i`` is Philox4x64-10 applied to counter ``(i, 0, 0, 0)`` with the
  seed-derived key; its four 64-bit words are emitted in order. numpy's
  Philox steps its counter before each block, so it starts at -1 (all
  ones) and block 0 comes out first.
* ``uniforms`` maps each word ``x`` to ``(x >> 11) * 2**-53`` in [0, 1).
* ``normals`` consumes words in pairs via Box-Muller; the radius uniform
  uses the shifted map ``((x >> 11) + 1) * 2**-53`` in (0, 1] so the log is
  always finite.

``normals`` transforms one block of ``_BLOCK_WORDS`` words (an even count,
so whole pairs) at a time. Each variate depends only on its pair, so the
stream is the same as one pass over the whole draw would give, and the
scratch arrays stay a few MB however many variates are drawn.

Integer and uniform outputs are bit-reproducible everywhere (pure integer
arithmetic plus exact float scaling). Normal variates additionally go
through libm's log/cos/sin, so they are bit-reproducible per platform but
may differ in the last ulp across C libraries.
"""

from __future__ import annotations

import math

import numpy as np

_U64_TO_UNIT = 2.0 ** -53
# words per block of a Box-Muller draw; even, so each block holds whole pairs
_BLOCK_WORDS = 1 << 15


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (new_state, output), both 64-bit."""
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = z ^ (z >> 31)
    return state, z


class Rng:
    """Seeded deterministic generator over a single Philox4x64-10 stream.

    The stream is one numpy Philox bit generator keyed from the seed;
    ``_pos`` counts the 64-bit words already consumed. Every word comes out
    in stream order, so any method's effect on the stream is its documented
    word consumption and nothing else.
    """

    def __init__(self, seed: int):
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        state, k0 = splitmix64(seed)
        _, k1 = splitmix64(state)
        self.seed = seed
        self._philox = np.random.Philox(key=np.array([k0, k1], dtype=np.uint64),
                                        counter=2**256 - 1)
        self._pos = 0

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, pos={self._pos})"

    def raw_u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words of the stream."""
        if n < 0:
            raise ValueError("n must be non-negative")
        self._pos += n
        return self._philox.random_raw(n)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 uniforms in [0, 1); consumes n words."""
        return (self.raw_u64(n) >> np.uint64(11)).astype(np.float64) * _U64_TO_UNIT

    def uniforms_open(self, n: int) -> np.ndarray:
        """n float64 uniforms in (0, 1]; consumes n words. Safe under log."""
        return ((self.raw_u64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * _U64_TO_UNIT

    def normals(self, n: int, sigma: float = 1.0) -> np.ndarray:
        """n float64 N(0, sigma^2) draws via Box-Muller; consumes 2*ceil(n/2) words."""
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, _BLOCK_WORDS):
            block = out[start:start + _BLOCK_WORDS]
            words = self.raw_u64(block.size + block.size % 2)
            # radius uniform in (0, 1], angle uniform in [0, 1)
            u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _U64_TO_UNIT
            u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * _U64_TO_UNIT
            r = np.sqrt(-2.0 * np.log(u1))
            theta = 2.0 * math.pi * u2
            block[0::2] = r * np.cos(theta)
            # an odd last block drops the sine of its last pair
            block[1::2] = (r * np.sin(theta))[:block.size // 2]
            block *= sigma
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of n raw words."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return np.argsort(self.raw_u64(n), kind="stable")

    def integers(self, bound: int, n: int) -> np.ndarray:
        """n int64 draws uniform on [0, bound) via floor(u * bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum((self.uniforms(n) * bound).astype(np.int64), bound - 1)
