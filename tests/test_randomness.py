import hashlib
import struct

import numpy as np
import pytest
from scipy import stats

from mvmlp.randomness import (
    _stream_key,
    derive_stream,
    sample_brownian_increments,
)


class TestDeriveStream:
    def test_determinism(self):
        a = derive_stream(42, (0, 3, 1))
        b = derive_stream(42, (0, 3, 1))
        assert np.array_equal(a.normals((100,)), b.normals((100,)))
        assert np.array_equal(a.uniforms((100,)), b.uniforms((100,)))

    def test_distinct_indices_uncorrelated(self):
        a = derive_stream(42, (0,))
        b = derive_stream(42, (0, 1, 1, 1))
        x = a.normals((100_000,))
        y = b.normals((100_000,))
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.02

    def test_seed_avalanche(self):
        a = derive_stream(42, (0, 5))
        b = derive_stream(43, (0, 5))
        assert not np.any(a.normals((16,)) == b.normals((16,)))

    def test_domain_separation(self):
        # drawing uniforms first must not shift the Brownian substream
        a = derive_stream(7, (2,))
        b = derive_stream(7, (2,))
        a.uniforms((50,))
        assert np.array_equal(a.normals((10,)), b.normals((10,)))

    def test_index_to_key_injective(self):
        # one million generated indices, no collision
        keys = set()
        count = 0
        for a in range(100):
            for b in range(100):
                for c in range(100):
                    keys.add(_stream_key(0, (a, b, c), 0))
                    count += 1
        assert len(keys) == count == 1_000_000

    def test_key_matches_per_part_encoding(self):
        # the one-pack encoding is the length-prefixed per-part one
        def per_part(root_seed, index, domain):
            h = hashlib.sha256()
            h.update(struct.pack("<QQQ", root_seed % 2**64, domain % 2**64, len(index)))
            for part in index:
                h.update(struct.pack("<Q", part))
            return int.from_bytes(h.digest()[:16], "little")

        rng = np.random.default_rng(0)
        for _ in range(500):
            index = tuple(int(v) for v in rng.integers(0, 2**64, size=rng.integers(0, 20),
                                                          dtype=np.uint64))
            seed, domain = (int(v) for v in rng.integers(-2**62, 2**62, size=2))
            assert _stream_key(seed, index, domain) == per_part(seed, index, domain)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            _stream_key(0, (2, -1), 0)

    def test_length_prefix_prevents_aliasing(self):
        assert _stream_key(0, (1, 2), 0) != _stream_key(0, (1, 2, 0), 0)
        assert _stream_key(0, (), 0) != _stream_key(0, (0,), 0)


class TestBrownianIncrements:
    def test_moments(self):
        dt = 0.03
        draws = sample_brownian_increments(derive_stream(9, (0,)), 1000, 1000, dt)
        n = draws.size
        assert abs(draws.mean()) < 4 * np.sqrt(dt / n)
        assert abs(draws.var() - dt) < 0.01 * dt

    def test_cumsum_is_brownian_scale(self):
        g = sample_brownian_increments(derive_stream(1, (0,)), 10_000, 1, 1e-4)
        w = np.cumsum(g[:, 0])
        # W(1) should be approximately standard normal
        assert abs(w[-1]) < 5

    def test_zero_dt(self):
        draws = sample_brownian_increments(derive_stream(3, (1,)), 8, 4, 0.0)
        assert np.array_equal(draws, np.zeros((8, 4)))


class TestUniform:
    def test_range_and_mean(self):
        s = derive_stream(123, (0,))
        draws = s.uniforms((1_000_000,))
        assert np.all((draws >= 0) & (draws < 1))
        assert abs(draws.mean() - 0.5) < 0.002

    def test_scalar_draw(self):
        s = derive_stream(123, (0, 1))
        u = s.uniform()
        assert 0.0 <= u < 1.0

    def test_kolmogorov_smirnov(self):
        draws = derive_stream(5, (7,)).uniforms((10_000,))
        stat = stats.kstest(draws, "uniform").statistic
        # 1% critical value ~ 1.628 / sqrt(n)
        assert stat < 1.628 / np.sqrt(10_000)
