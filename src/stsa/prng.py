"""Deterministic random streams backed by the ChaCha20 stream cipher.

Every random draw in this package comes from a ChaChaStream, a 20-round
ChaCha keystream (via OpenSSL) keyed from a 64-bit seed and mapped to
uniforms, normals, permutations and gamma variates with fixed algorithms.
Equal (seed, call sequence) gives byte-identical results on one host with
one numpy SIMD target, which makes reruns reproducible. Across CPUs the
normals and gamma variates may differ in their last bits: numpy's ``log``
(and ``exp``, ``sin``, ``cos``, ``**``) dispatch on the CPU, and its AVX-512
``log`` differs from the AVX2 path by an ulp on some inputs.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

MASK64 = (1 << 64) - 1

_DOUBLE_SCALE = 2.0**-53


def derive_seed(seed: int, label: str) -> int:
    """Child seed for a named sub-procedure of a master seed.

    SHA-256 over (label, seed) so that e.g. the partition stream of stage 3
    is independent of the map stream but fully determined by the master seed.
    """
    payload = label.encode("utf-8") + b"\x00" + (seed & MASK64).to_bytes(8, "little")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


class ChaChaStream:
    """Seeded random stream: ChaCha20 keystream mapped to numbers.

    The 64-bit seed is expanded to the 256-bit cipher key with SHA-256.
    Draws consume the keystream in call order. Chunking of calls does not
    change the bytes or the uniforms drawn, but it does change the normals:
    ``standard_normal(n)`` draws ``ceil(n / 2)`` Box-Muller pairs, 16 bytes
    each, so an odd ``n`` drops the second value of its last pair.

    ``offset`` starts the stream that many bytes into the keystream, in RFC
    8439 counter mode: the counter block is ``offset // 64`` and the first
    ``offset % 64`` bytes of that block are dropped. So a stream started at
    the offset a drawn-through one has reached gives the same draws from
    there on.
    """

    def __init__(self, seed: int, offset: int = 0):
        self.seed = seed & MASK64
        block, skip = divmod(offset, 64)
        if not 0 <= block < 1 << 32:
            raise ValueError(f"keystream offset {offset} lies outside [0, 2^38) bytes")
        key = hashlib.sha256(b"stsa-stream\x00" + self.seed.to_bytes(8, "little")).digest()
        # The 16-byte nonce is the 32-bit little-endian block counter, then a
        # 96-bit nonce of zeros.
        nonce = block.to_bytes(4, "little") + bytes(12)
        self._keystream = Cipher(algorithms.ChaCha20(key, nonce), mode=None).encryptor()
        self.bytes(skip)

    def bytes(self, n: int) -> bytes:
        return self._keystream.update(bytes(n))

    def uint64(self, n: int) -> np.ndarray:
        return np.frombuffer(self.bytes(8 * n), dtype="<u8")

    def random(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) with 53-bit resolution."""
        return (self.uint64(n) >> np.uint64(11)) * _DOUBLE_SCALE

    def standard_normal(self, n: int) -> np.ndarray:
        """n i.i.d. N(0, 1) draws via Box-Muller on keystream uniforms."""
        pairs = (n + 1) // 2
        u = self.random(2 * pairs)
        # 1 - u lies in (0, 1], keeping the log argument strictly positive.
        radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        angle = (2.0 * np.pi) * u[1::2]
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n)."""
        if n == 0:
            return np.empty(0, dtype=np.int64)
        return np.argsort(self.random(n), kind="stable").astype(np.int64)

    def gamma(self, alpha: float, n: int) -> np.ndarray:
        """n i.i.d. Gamma(alpha, 1) draws (Marsaglia-Tsang squeeze method)."""
        out, u = self._gamma_parts(alpha, n)
        return out if u is None else out * u ** (1.0 / alpha)

    def _gamma_parts(self, alpha: float, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Gamma draws as (X, U): X ~ Gamma(alpha), U None for alpha >= 1; else
        X ~ Gamma(alpha + 1) and U uniform, with Gamma(alpha) = X * U^(1/alpha)."""
        # A NaN or infinite shape would never be accepted below, so the
        # rejection loop would spin forever.
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"gamma shape must be positive and finite, got {alpha}")
        boost = None
        if alpha < 1.0:
            boost = self.random(n)
            alpha = alpha + 1.0
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n)
        remaining = np.arange(n)
        while remaining.size:
            x = self.standard_normal(remaining.size)
            u = self.random(remaining.size)
            v = (1.0 + c * x) ** 3
            valid = v > 0.0
            with np.errstate(divide="ignore"):
                log_u = np.log(u)
                log_v = np.log(np.where(valid, v, 1.0))
            accept = valid & (log_u < 0.5 * x * x + d - d * v + d * log_v)
            out[remaining[accept]] = d * v[accept]
            remaining = remaining[~accept]
        return out, boost

    def dirichlet(self, alpha: float, k: int) -> np.ndarray:
        """One draw from Dir(alpha * 1_k); finite and summing to 1 for any alpha > 0."""
        if k < 1:
            raise ValueError(f"dirichlet needs k >= 1 categories, got {k}")
        if k == 1 and 0.0 < alpha < math.inf:  # else _gamma_parts rejects alpha
            return np.ones(1)
        while True:
            base, u = self._gamma_parts(alpha, k)
            g = base if u is None else base * u ** (1.0 / alpha)
            with np.errstate(over="ignore"):
                total = g.sum()
            if total == math.inf:
                # At a huge alpha every draw is near alpha and the sum of k
                # of them overflows, so scale by the largest before summing.
                g = g / g.max()
                total = g.sum()
            if total > 0.0:
                return g / total
            # Every boosted draw underflowed, so normalize in log space by the
            # largest log: log g = (alpha log base + log U) / alpha.
            with np.errstate(divide="ignore", over="ignore"):
                scaled = alpha * np.log(base) + np.log(u)
                top = scaled.max()
                if top > -math.inf:  # else every U was exactly 0: draw again
                    w = np.exp((scaled - top) / alpha)
                    return w / w.sum()
