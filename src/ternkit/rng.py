"""Deterministic random number generation.

The generator is Philox4x64-10, a counter-based block cipher RNG: output
block ``i`` is a pure function of (key, i), so bulk fills and one-at-a-time
draws read the exact same stream. The 128-bit key is derived from the
64-bit seed with two rounds of SplitMix64.

Stream layout, fixed by this module:

* block ``i`` is Philox4x64-10 applied to counter ``(i, 0, 0, 0)`` with the
  seed-derived key; its four 64-bit words are emitted in order.
* ``uniforms`` maps each word ``x`` to ``(x >> 11) * 2**-53`` in [0, 1).
* ``normals`` consumes words in pairs via Box-Muller; the radius uniform
  uses the shifted map ``((x >> 11) + 1) * 2**-53`` in (0, 1] so the log is
  always finite.

Bulk draws run in fixed blocks of ``_BLOCK_WORDS`` words: ``raw_u64`` runs
the cipher over one block's counters at a time into one preallocated
output, and ``normals`` transforms one block of whole pairs at a time. Each
word depends only on its counter and each variate only on its pair, so the
stream is the same as one pass over the whole draw would give, and the
scratch arrays stay a few MB however many words are drawn.

Integer and uniform outputs are bit-reproducible everywhere (pure integer
arithmetic plus exact float scaling). Normal variates additionally go
through libm's log/cos/sin, so they are bit-reproducible per platform but
may differ in the last ulp across C libraries.
"""

from __future__ import annotations

import math

import numpy as np

_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_ROUNDS = 10

_U64_TO_UNIT = 2.0 ** -53
# words per block of a bulk draw; a multiple of 4 (whole cipher blocks) and
# of 2 (whole Box-Muller pairs)
_BLOCK_WORDS = 1 << 15


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (new_state, output), both 64-bit."""
    state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = z ^ (z >> 31)
    return state, z


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full 64x64 -> 128 bit product as (hi, lo), via 32-bit limbs."""
    lo = a * b  # wraps mod 2**64, which is exactly the low word
    a_lo, a_hi = a & _MASK32, a >> _SH32
    b_lo, b_hi = b & _MASK32, b >> _SH32
    t = a_lo * b_lo
    cross = (t >> _SH32) + ((a_hi * b_lo) & _MASK32) + ((a_lo * b_hi) & _MASK32)
    hi = a_hi * b_hi + ((a_hi * b_lo) >> _SH32) + ((a_lo * b_hi) >> _SH32) + (cross >> _SH32)
    return hi, lo


def philox4x64(key: tuple[int, int], start_block: int, nblocks: int) -> np.ndarray:
    """Raw Philox4x64-10 outputs for blocks [start_block, start_block+nblocks).

    Returns a (nblocks, 4) uint64 array. Counter word 0 carries the block
    index; words 1..3 are zero.
    """
    with np.errstate(over="ignore"):
        k0 = np.uint64(key[0])
        k1 = np.uint64(key[1])
        c0 = (np.uint64(start_block) + np.arange(nblocks, dtype=np.uint64)).astype(np.uint64)
        c1 = np.zeros(nblocks, dtype=np.uint64)
        c2 = np.zeros(nblocks, dtype=np.uint64)
        c3 = np.zeros(nblocks, dtype=np.uint64)
        for r in range(_ROUNDS):
            hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
            hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
            c0 = hi1 ^ c1 ^ k0
            c1 = lo1
            c2 = hi0 ^ c3 ^ k1
            c3 = lo0
            if r < _ROUNDS - 1:
                k0 = k0 + _PHILOX_W0
                k1 = k1 + _PHILOX_W1
    return np.stack([c0, c1, c2, c3], axis=1)


class Rng:
    """Seeded deterministic generator over a single Philox4x64-10 stream.

    State is just (key, position): ``position`` counts 64-bit words already
    consumed, so any method's effect on the stream is its documented word
    consumption and nothing else.
    """

    def __init__(self, seed: int):
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        state, k0 = splitmix64(seed)
        _, k1 = splitmix64(state)
        self.seed = seed
        self._key = (k0, k1)
        self._pos = 0

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, pos={self._pos})"

    def raw_u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words of the stream."""
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.empty(n, dtype=np.uint64)
        pos, end = self._pos, self._pos + n
        # runs start on cipher-block boundaries, so each covers whole blocks
        for start in range(pos - pos % 4, end, _BLOCK_WORDS):
            stop = min(start + _BLOCK_WORDS, end)
            words = philox4x64(self._key, start // 4, (stop - start + 3) // 4).ravel()
            first = max(start, pos)
            out[first - pos:stop - pos] = words[first - start:stop - start]
        self._pos = end
        return out

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
