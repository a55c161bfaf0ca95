import hashlib
import re
import struct
import sys
import threading
import types

import numpy as np
import numpy.random.bit_generator
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from mvmlp import randomness
from mvmlp.mlp import CostLedger, MlpConfig, mlp_estimate
from mvmlp.models import ou_model, random_params
from mvmlp.numerics import TimeGrid
from mvmlp.randomness import (
    _DOMAIN_GAUSS,
    _DOMAIN_UNIFORM,
    _stream_key,
    derive_stream,
    sample_brownian_increments,
)


class _NumpyStream:
    """The reference path: one numpy Generator per substream key."""

    def __init__(self, root_seed, index):
        self._gauss = np.random.Generator(
            np.random.Philox(key=_stream_key(root_seed, index, _DOMAIN_GAUSS)))
        self._uniform = np.random.Generator(
            np.random.Philox(key=_stream_key(root_seed, index, _DOMAIN_UNIFORM)))

    def normals(self, shape):
        # the top integer's uniform rounds to 1, and is clamped below it
        u = (self._gauss.integers(0, 2**53, size=shape) + 0.5) / 2**53
        return ndtri(np.minimum(u, 1 - 2**-53))

    def uniform(self):
        return float(self._uniform.random())

    def uniforms(self, shape):
        return self._uniform.random(shape)


def _draw(stream, kind, shape):
    return getattr(stream, kind)() if kind == "uniform" else getattr(stream, kind)(shape)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        message = "multi-index entry must be in [0, 2**64), got -1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derive_stream(0, (2, -1))

    @pytest.mark.parametrize("index, message", [
        ((1.5,), "must be an integer, got 1.5"),
        ((True, 2), "must be an integer, got True"),
        ((np.float64(2.0),), f"must be an integer, got {np.float64(2.0)!r}"),
        ((0, 2**64), "must be in [0, 2**64), got 18446744073709551616"),
        (("2",), "must be an integer, got '2'"),
    ])
    def test_index_part_that_int_would_alias_rejected(self, index, message):
        # int() would read 1.5 and True as 1; struct.pack refuses a part past 64 bits
        with pytest.raises(ValueError, match=re.escape(f"multi-index entry {message}")):
            derive_stream(0, index)

    def test_multi_index_must_be_a_sequence(self):
        # tuple(5) would end in "'int' object is not iterable", naming no field
        message = "multi-index must be a sequence of integers, got 5"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derive_stream(0, 5)
        grid = TimeGrid(T=1.0, K=4)
        model = ou_model(random_params("ou", 2, derive_stream(0, (0,))))
        for n in (0, 2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                mlp_estimate(model, MlpConfig(n=n, m=2, grid=grid), 5, 0, np.zeros((4, 2)),
                             CostLedger())

    @pytest.mark.parametrize("seed, message", [
        (2**64, "must be in [0, 2**64), got 18446744073709551616"),
        (-1, "must be in [0, 2**64), got -1"),
        (1.5, "must be an integer, got 1.5"),
        (True, "must be an integer, got True"),
        (np.float64(2.0), f"must be an integer, got {np.float64(2.0)!r}"),
        ("2", "must be an integer, got '2'"),
    ])
    def test_root_seed_that_would_alias_rejected(self, seed, message):
        # the key reads the seed mod 2**64: 2**64 would draw seed 0's values
        with pytest.raises(ValueError, match=re.escape(f"root seed {message}")):
            derive_stream(seed, (0,))

    def test_numpy_integer_seed_is_its_int(self):
        for seed in (np.int64(3), np.uint64(2**64 - 1)):
            assert np.array_equal(derive_stream(seed, (0,)).normals(5),
                                  derive_stream(int(seed), (0,)).normals(5))

    def test_numpy_integer_index_is_its_int(self):
        for index in ((np.int64(3), np.uint64(2**64 - 1)), (np.int32(0),)):
            stream = derive_stream(4, index)
            assert stream.index == tuple(map(int, index))
            assert np.array_equal(stream.normals(5),
                                  derive_stream(4, tuple(map(int, index))).normals(5))

    def test_length_prefix_prevents_aliasing(self):
        assert _stream_key(0, (1, 2), 0) != _stream_key(0, (1, 2, 0), 0)
        assert _stream_key(0, (), 0) != _stream_key(0, (0,), 0)


class TestDrawPath:
    """Draws from re-keyed engines equal one numpy generator per substream."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        indices=st.lists(st.lists(st.integers(0, 2**64 - 1), max_size=6),
                         min_size=2, max_size=2, unique_by=tuple),
        draws=st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from(["normals", "uniform", "uniforms"]),
                      st.lists(st.integers(0, 7), max_size=3).map(tuple)),
            max_size=12,
        ),
    )
    def test_interleaved_draws_match_numpy(self, seed, indices, draws):
        # two streams drawn over several calls in an interleaved order, each
        # call at any word position inside a Philox block of four
        ours = [derive_stream(seed, tuple(ix)) for ix in indices]
        ref = [_NumpyStream(seed, tuple(ix)) for ix in indices]
        for which, kind, shape in draws:
            assert _same_bits(_draw(ours[which], kind, shape), _draw(ref[which], kind, shape))

    def test_large_draws_match_numpy(self):
        # arrays past numpy's ufunc buffer, after an odd-sized first draw
        ours, ref = derive_stream(5, (1, 2, 3)), _NumpyStream(5, (1, 2, 3))
        for shape in ((3,), (300, 101), (7, 2, 1000)):
            assert _same_bits(ours.normals(shape), ref.normals(shape))
            assert _same_bits(ours.uniforms(shape), ref.uniforms(shape))

    def test_top_word_gives_a_finite_normal(self, monkeypatch):
        # the words themselves go through normals' own arithmetic: the top
        # word, whose unclamped uniform rounds to 1, the bottom word, and the
        # words just below the top and around the middle, which keep their bits
        words = np.array([2**64 - 1, 0, 2**64 - 2**11 - 1, 2**63, 2**63 - 1], dtype=np.uint64)
        engine = types.SimpleNamespace(random_raw=lambda shape: words.copy().reshape(shape))
        monkeypatch.setattr(randomness, "_generator_at",
                            lambda key, pos: types.SimpleNamespace(bit_generator=engine))
        got = derive_stream(0, (0,)).normals(words.shape)
        assert np.isfinite(got).all()
        assert got[0] == ndtri(1 - 2**-53) > got[2] > 8
        uniforms = ((words >> 11).astype(float) + 0.5) / 2**53
        assert _same_bits(got[1:], ndtri(uniforms[1:]))

    def test_no_entropy_read_in_an_estimator_call(self, monkeypatch):
        reads = []
        real = numpy.random.bit_generator.randbits

        def counting(bits):
            reads.append(bits)
            return real(bits)

        monkeypatch.setattr(numpy.random.bit_generator, "randbits", counting)
        np.random.Philox(key=1)
        assert len(reads) == 1, "the patch must see a seedless Philox read entropy"
        d, grid = 3, TimeGrid(T=1.0, K=8)
        model = ou_model(random_params("ou", d, derive_stream(0, (0,))))
        cfg = MlpConfig(n=3, m=2, grid=grid)
        incr = sample_brownian_increments(derive_stream(0, (1, 0)), grid.K, d, grid.dt)

        def call():
            return mlp_estimate(model, cfg, (1, 0), 0, incr, CostLedger())

        call()      # warm-up
        reads.clear()
        call()
        assert reads == []

    def test_threads_drawing_alternately_get_serial_values(self):
        steps, shape = 6, (5, 3)
        serial = [[(s.normals(shape), s.uniform()) for _ in range(steps)]
                  for s in (derive_stream(4, (t,)) for t in range(2))]
        got = [[], []]
        turn = threading.Condition()
        state = {"next": 0}

        def worker(t):
            stream = derive_stream(4, (t,))
            for _ in range(steps):
                with turn:
                    if not turn.wait_for(lambda: state["next"] == t, timeout=30):
                        return
                    got[t].append((stream.normals(shape), stream.uniform()))
                    state["next"] = 1 - t
                    turn.notify_all()

        _run_threads(worker, 2)
        for t in range(2):
            assert len(got[t]) == steps
            for (z, u), (z0, u0) in zip(got[t], serial[t]):
                assert _same_bits(z, z0) and u == u0

    def test_free_running_threads_get_serial_values(self):
        # more threads than cores, switching often: a draw that another
        # thread could re-key midway would give other values
        n_threads, steps, shape = 6, 40, (7, 3)

        def draws(t):
            stream = derive_stream(8, (t,))
            return [(stream.normals(shape), stream.uniform()) for _ in range(steps)]

        serial = [draws(t) for t in range(n_threads)]
        got = {}

        def worker(t):
            got[t] = draws(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(worker, n_threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(got) == list(range(n_threads))
        for t in range(n_threads):
            for (z, u), (z0, u0) in zip(got[t], serial[t]):
                assert _same_bits(z, z0) and u == u0


def _run_threads(target, count):
    threads = [threading.Thread(target=target, args=(t,)) for t in range(count)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
    assert not any(th.is_alive() for th in threads)


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

    @pytest.mark.parametrize("K, d, message", [
        # each once ended in a numpy TypeError
        (2.5, 3, "K must be an integer, got 2.5"),
        (2, True, "d must be an integer, got True"),
        ("2", 3, "K must be an integer, got '2'"),
    ])
    def test_sizes_must_be_integers(self, K, d, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_brownian_increments(derive_stream(3, (1,)), K, d, 0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dt", [np.nan, np.inf, -1.0, True, "1", "x", 1j])
    def test_dt_must_be_finite_and_nonnegative(self, dt):
        # a value that is not a real number prints as its repr: "1", not 1
        message = f"dt must be finite and nonnegative, got {dt!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_brownian_increments(derive_stream(3, (1,)), 8, 4, dt)


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
