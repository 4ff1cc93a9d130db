import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternkit import rng as rng_module
from ternkit.rng import Rng


def test_same_seed_same_stream():
    a = Rng(42).raw_u64(1000)
    b = Rng(42).raw_u64(1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).raw_u64(100), Rng(2).raw_u64(100))


def test_chunked_reads_match_bulk():
    bulk = Rng(7).raw_u64(100)
    r = Rng(7)
    pieces = np.concatenate([r.raw_u64(n) for n in (1, 2, 3, 5, 8, 13, 21, 34, 13)])
    assert np.array_equal(bulk, pieces)


# Random123's kat_vectors for philox4x64 with 10 rounds: counter words,
# key words, then the four output words
PHILOX4X64_10_KAT = [
    ((0, 0, 0, 0), (0, 0),
     (0x16554d9eca36314c, 0xdb20fe9d672d0fdc, 0xd7e772cee186176b, 0x7e68b68aec7ba23b)),
    ((2**64 - 1,) * 4, (2**64 - 1,) * 2,
     (0x87b092c3013fe90b, 0x438c3c67be8d0224, 0x9cc7d7c69cd777b6, 0xa09caebf594f0ba0)),
    ((0x243f6a8885a308d3, 0x13198a2e03707344, 0xa4093822299f31d0, 0x082efa98ec4e6c89),
     (0x452821e638d01377, 0xbe5466cf34e90c6c),
     (0xa528f45403e61d95, 0x38c72dbd566e9788, 0xa5a1610e72fd18b5, 0x57bd43b5e52b7fe6)),
]


@pytest.mark.parametrize("ctr,key,expected", PHILOX4X64_10_KAT, ids=["zeros", "ones", "pi"])
def test_philox_known_answer_vectors(ctr, key, expected):
    # built the way Rng builds its generator: numpy steps the counter before
    # each block, so it starts one below the first block's counter
    counter = (sum(word << (64 * i) for i, word in enumerate(ctr)) - 1) % 2**256
    philox = np.random.Philox(key=np.array(key, dtype=np.uint64), counter=counter)
    assert philox.random_raw(4).tolist() == list(expected)


def test_uniform_range_and_moments():
    u = Rng(3).uniforms(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_uniforms_open_never_zero():
    u = Rng(11).uniforms_open(100_000)
    assert u.min() > 0.0 and u.max() <= 1.0


def test_normal_moments():
    z = Rng(5).normals(1_000_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normal_sigma_scaling():
    r1, r2 = Rng(9), Rng(9)
    assert np.allclose(r1.normals(100, sigma=3.0), 3.0 * r2.normals(100))


def test_normals_odd_count_prefix_of_even():
    a = Rng(4).normals(7)
    b = Rng(4).normals(8)
    assert np.array_equal(a, b[:7])


def test_permutation_is_permutation_and_deterministic():
    p = Rng(6).permutation(500)
    assert np.array_equal(np.sort(p), np.arange(500))
    assert np.array_equal(p, Rng(6).permutation(500))


def test_integers_within_bound():
    v = Rng(8).integers(7, 10_000)
    assert v.min() >= 0 and v.max() < 7
    assert len(np.unique(v)) == 7


def test_integers_rejects_bad_bound():
    with pytest.raises(ValueError):
        Rng(1).integers(0, 5)


# sha256 of each method's draws of BLOCK - 1, BLOCK and BLOCK + 1 values, each
# from a fresh Rng(2024) after 3 words, plus the next raw word after each
# draw; recorded before bulk draws were split into blocks
BLOCK = 32768
STREAMS = {
    "raw_u64": "2b1ba3b4b074e792e2076ebdc6d9b4db55d37655c35d5ebf25c5b65cd97e1205",
    "uniforms": "28eef644d0e0aa23743f5f63f8b657f82b37d101a61a833c4a19ea6f1331ba05",
    "uniforms_open": "3ea8ca2c66589fc76333b81dd4d3e551a6eab1a2f007cb018b52c34b33e5b07a",
    "normals": "b8518b687d3d36a58f7323132fcc6e6eabfdf7f44bd46bd1dcc58f5e3519844a",
    "permutation": "bfcffc2b7b539ab8b5715ae933477efa7c3544cf0055060169dc58d219c647c9",
}


def test_golden_streams_across_block_edges():
    """Draws one short of, exactly at and one past a block, from a position
    that is not on a cipher block's boundary, so runs start mid-block and
    the last one is partial. The normals are odd counts too, with sigma != 1.
    Normal variates hold per platform (libm); the others everywhere."""
    assert rng_module._BLOCK_WORDS == BLOCK
    got = {}
    for method, kwargs in [("raw_u64", {}), ("uniforms", {}), ("uniforms_open", {}),
                           ("normals", {"sigma": 2.5}), ("permutation", {})]:
        h = hashlib.sha256()
        for n in (BLOCK - 1, BLOCK, BLOCK + 1):
            r = Rng(2024)
            r.raw_u64(3)
            out = getattr(r, method)(n, **kwargs)
            h.update(out.astype(out.dtype.newbyteorder("<")).tobytes())
            h.update(r.raw_u64(1).astype("<u8").tobytes())
        got[method] = h.hexdigest()
    assert got == STREAMS


def test_empty_draws_consume_nothing_and_negative_counts_raise():
    r = Rng(3)
    assert r.normals(0).shape == (0,) and r.raw_u64(0).shape == (0,)
    assert np.array_equal(r.raw_u64(2), Rng(3).raw_u64(2))
    with pytest.raises(ValueError):
        r.raw_u64(-1)


WORD_COUNTS = st.one_of(st.sampled_from([0, 1, 2, 3, 32767, 32768, 32769]), st.integers(0, 70_000))


@given(st.integers(0, 2**64 - 1),
       st.lists(st.tuples(st.sampled_from(["raw_u64", "uniforms", "uniforms_open", "normals",
                                            "permutation", "integers"]), WORD_COUNTS),
                max_size=6))
@settings(max_examples=100, deadline=None)
def test_each_method_consumes_exactly_its_documented_words(seed, draws):
    r = Rng(seed)
    total = 0
    for method, n in draws:
        if method == "integers":
            r.integers(7, n)
        else:
            getattr(r, method)(n)
        total += 2 * -(-n // 2) if method == "normals" else n
    assert r.raw_u64(1)[0] == Rng(seed).raw_u64(total + 1)[total]
