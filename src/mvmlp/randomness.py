"""Deterministic hierarchical randomness addressed by multi-indices.

Every independent randomness source in the recursion is addressed by a
multi-index (a tuple of nonnegative integers). The map
(root_seed, index, domain) -> generator key goes through SHA-256 over a
length-prefixed encoding, so distinct indices can never alias and child
streams are computationally independent of their parents. Gaussian
variates are produced by the inverse-CDF transform applied to Philox
uniforms; this fixed transformation is what makes runs bit-reproducible
regardless of scheduling or platform.

A stream is its keys and its positions, not a generator: each draw sets
one Philox engine per thread to the stream's key and position, draws,
and advances the position. Word p of a key is the word a fresh
`Philox(key=key)` returns as its p-th, so every draw is bit for bit what
a generator of its own would give, without building one (and without the
OS-entropy read that `Philox(key=...)` makes and then discards).
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy.special import ndtri

from .numerics import format_number, integer, is_finite, is_real

MultiIndex = Tuple[int, ...]

# domain tags keep Brownian draws, uniform draws and parameter draws of the
# same index on disjoint substreams
_DOMAIN_GAUSS = 0x67617573
_DOMAIN_UNIFORM = 0x756E6966

_U64 = 2**64
_MASK64 = _U64 - 1
# Philox makes 64-bit words in blocks of 4, one block per counter value
_BLOCK = 4

_local = threading.local()


def _stream_key(root_seed: int, index: MultiIndex, domain: int) -> int:
    for part in index:
        # int() would read 1.5 or True as 1, and struct refuses a part past 64
        # bits; the exact-int test spares the hot path integer's ABC check
        if not (type(part) is int and 0 <= part < _U64):
            integer(part, "multi-index entry", 0, _U64)
    data = struct.pack(f"<QQQ{len(index)}Q", root_seed % _U64, domain % _U64, len(index),
                       *index)
    return int.from_bytes(hashlib.sha256(data).digest()[:16], "little")


def _key_words(key: int) -> Tuple[int, int]:
    # the little-endian 64-bit words Philox(key=key) splits a 128-bit key into
    return key & _MASK64, key >> 64


def _generator_at(key: Tuple[int, int], pos: int) -> np.random.Generator:
    """This thread's generator, its engine set to word `pos` of key `key`.

    A fresh Philox has counter 0 and an empty buffer, and fills its buffer
    from counter c + 1 when it runs out, so after p words its counter is
    p // 4 with an empty buffer when 4 divides p; otherwise the p % 4 words
    of the next block are drawn again and dropped.
    """
    gen = getattr(_local, "generator", None)
    if gen is None:
        # an explicit seed: a seedless Philox would read OS entropy
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    engine = gen.bit_generator
    engine.state = {
        "bit_generator": "Philox",
        "state": {"counter": (pos // _BLOCK, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": _BLOCK,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if pos % _BLOCK:
        engine.random_raw(pos % _BLOCK)
    return gen


@dataclass
class RandomStream:
    """Deterministic stream fully determined by (root_seed, index).

    Brownian-increment draws and uniform draws live on separate Philox
    substreams (one key each), so the order in which the two kinds are
    consumed cannot cause aliasing. Each substream's position counts the
    64-bit words drawn from it; every draw below takes exactly one word
    per value. A stream is single-owner: parallel code derives child
    streams instead of sharing one.
    """

    root_seed: int
    index: MultiIndex
    _gauss_key: Tuple[int, int] = field(repr=False)
    _uniform_key: Tuple[int, int] = field(repr=False)
    _gauss_pos: int = field(default=0, repr=False)
    _uniform_pos: int = field(default=0, repr=False)

    def normals(self, shape) -> np.ndarray:
        """Standard normals, ndtri(((word >> 11) + 1/2) / 2**53) per word.

        (word >> 11) is what `Generator.integers(0, 2**53)` returns for the
        same word: Lemire's bounded draw never rejects at a range of 2**53.
        The +1/2 keeps the uniform above 0; the top value 2**53 - 1/2 rounds
        to 2**53, so its uniform is clamped to 1 - 2**-53, which no other
        word reaches, and the normal stays finite.
        """
        gen = _generator_at(self._gauss_key, self._gauss_pos)
        words = gen.bit_generator.random_raw(shape)
        self._gauss_pos += words.size
        np.right_shift(words, 11, out=words)
        out = words.view(np.float64)
        np.add(words, 0.5, out=out)
        out *= 2.0**-53
        # the largest double below 1, for the top word's 1.0
        np.minimum(out, 1.0 - 2.0**-53, out=out)
        return ndtri(out, out=out)

    def uniform(self) -> float:
        gen = _generator_at(self._uniform_key, self._uniform_pos)
        self._uniform_pos += 1
        return float(gen.random())

    def uniforms(self, shape) -> np.ndarray:
        gen = _generator_at(self._uniform_key, self._uniform_pos)
        out = gen.random(shape)
        self._uniform_pos += out.size
        return out


def multi_index(index) -> MultiIndex:
    """`index` as a tuple, else a ValueError naming the multi-index; the keys check its parts."""
    try:
        return tuple(index)
    except TypeError:   # tuple(5) names no field
        raise ValueError(f"multi-index must be a sequence of integers, got {index!r}") from None


def derive_stream(root_seed: int, index: MultiIndex) -> RandomStream:
    """Stream for a multi-index; equal arguments give identical sequences."""
    # the key reads the seed mod 2**64: a seed outside [0, 2**64) would alias
    # one inside, and struct refuses a float; a numpy integer is read as its
    # int, whose mod does not overflow
    if not (type(root_seed) is int and 0 <= root_seed < _U64):
        root_seed = integer(root_seed, "root seed", 0, _U64)
    index = multi_index(index)
    # the keys first: _stream_key checks each part before int() reads it
    return RandomStream(
        root_seed=root_seed,
        _gauss_key=_key_words(_stream_key(root_seed, index, _DOMAIN_GAUSS)),
        _uniform_key=_key_words(_stream_key(root_seed, index, _DOMAIN_UNIFORM)),
        index=tuple(map(int, index)),
    )


def sample_brownian_increments(
    stream: RandomStream, K: int, d: int, dt: float
) -> np.ndarray:
    """K x d array of i.i.d. N(0, dt) increments."""
    integer(K, "K", 1)
    integer(d, "d", 1)
    if not (is_real(dt) and is_finite(dt) and dt >= 0):
        raise ValueError(f"dt must be finite and nonnegative, got {format_number(dt)}")
    out = stream.normals((K, d))
    out *= np.sqrt(dt)
    return out
