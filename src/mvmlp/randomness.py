"""Deterministic hierarchical randomness addressed by multi-indices.

Every independent randomness source in the recursion is addressed by a
multi-index (a tuple of nonnegative integers). The map
(root_seed, index, domain) -> generator key goes through SHA-256 over a
length-prefixed encoding, so distinct indices can never alias and child
streams are computationally independent of their parents. Gaussian
variates are produced by the inverse-CDF transform applied to Philox
uniforms; this fixed transformation is what makes runs bit-reproducible
regardless of scheduling or platform.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy.special import ndtri

MultiIndex = Tuple[int, ...]

# domain tags keep Brownian draws, uniform draws and parameter draws of the
# same index on disjoint substreams
_DOMAIN_GAUSS = 0x67617573
_DOMAIN_UNIFORM = 0x756E6966

_U64 = 2**64


def _stream_key(root_seed: int, index: MultiIndex, domain: int) -> int:
    for part in index:
        if part < 0:
            raise ValueError(f"multi-index entries must be nonnegative, got {part}")
    data = struct.pack(f"<QQQ{len(index)}Q", root_seed % _U64, domain % _U64, len(index),
                       *index)
    return int.from_bytes(hashlib.sha256(data).digest()[:16], "little")


def _make_generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class RandomStream:
    """Deterministic stream fully determined by (root_seed, index).

    Brownian-increment draws and uniform draws live on separate Philox
    substreams, so the order in which the two kinds are consumed cannot
    cause aliasing. A stream is single-owner: parallel code derives child
    streams instead of sharing one.
    """

    root_seed: int
    index: MultiIndex
    _gauss: np.random.Generator = field(repr=False)
    _uniform: np.random.Generator = field(repr=False)

    def _unit_open_uniforms(self, shape) -> np.ndarray:
        # uniforms strictly inside (0, 1): safe input for the inverse CDF
        bits = self._gauss.integers(0, 2**53, size=shape)
        return (bits + 0.5) / 2**53

    def normals(self, shape) -> np.ndarray:
        return ndtri(self._unit_open_uniforms(shape))

    def uniform(self) -> float:
        return float(self._uniform.random())

    def uniforms(self, shape) -> np.ndarray:
        return self._uniform.random(shape)


def derive_stream(root_seed: int, index: MultiIndex) -> RandomStream:
    """Stream for a multi-index; equal arguments give identical sequences."""
    index = tuple(int(i) for i in index)
    return RandomStream(
        root_seed=root_seed,
        index=index,
        _gauss=_make_generator(_stream_key(root_seed, index, _DOMAIN_GAUSS)),
        _uniform=_make_generator(_stream_key(root_seed, index, _DOMAIN_UNIFORM)),
    )


def sample_brownian_increments(
    stream: RandomStream, K: int, d: int, dt: float
) -> np.ndarray:
    """K x d array of i.i.d. N(0, dt) increments."""
    if K < 1 or d < 1:
        raise ValueError(f"K and d must be >= 1, got K={K}, d={d}")
    if dt < 0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    return np.sqrt(dt) * stream.normals((K, d))
