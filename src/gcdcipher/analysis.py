"""Evaluation metrics for the codec.

Covers byte-frequency chi-square between source and cipher files, the
avalanche effect under a one-bit-per-byte flip, the compression ratio,
wall-clock codec timing, and the key-file leakage audit.

``analyze_file`` and ``avalanche`` walk their input in chunks of
``2 * filecodec.CHUNK_BLOCKS`` bytes, so their memory does not grow with
the file. The results are exact: a block's output depends on that block
alone, and frequency counts and bit differences add up chunk by chunk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import filecodec
from .block import RECORD_SIZE
from .filecodec import KeyFile, block_count, decrypt_file, encrypt_file

# default flip target: the 5th bit counting the most significant as 1st (weight 8)
FLIP_MASK = 0x08

# SWAR popcount constants for 64-bit words
_M1, _M2, _M4, _H01 = (np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101,
))


@dataclass(frozen=True)
class AnalysisReport:
    """Per-file metrics row."""

    source_size: int
    cipher_size: int
    encrypt_time: float
    decrypt_time: float
    chi_square: float
    degrees_of_freedom: int
    avalanche_percent: float
    compression_percent: float


def frequency_table(data: bytes) -> np.ndarray:
    """Count occurrences of each byte value; returns a length-256 array."""
    values = np.frombuffer(data, dtype=np.uint8)
    return np.bincount(values, minlength=256).astype(np.int64)


def chi_square(source, encrypted) -> tuple[float, int]:
    """Pearson goodness-of-fit statistic between two byte-frequency tables.

    Expected frequencies come from the source table. Byte values absent
    from the source are left out of both the sum and the degrees of
    freedom, so dof is the number of distinct source values minus one.
    """
    f_e = np.asarray(source, dtype=np.float64)
    f_o = np.asarray(encrypted, dtype=np.float64)
    if f_e.shape != f_o.shape:
        raise ValueError(f"frequency tables differ in shape: {f_e.shape} vs {f_o.shape}")
    present = f_e > 0
    classes = int(present.sum())
    if classes == 0:
        raise ValueError("chi_square is undefined for an empty source table")
    diff = f_o[present] - f_e[present]
    statistic = float(np.sum(diff * diff / f_e[present]))
    return statistic, classes - 1


def hamming_distance(a: bytes, b: bytes) -> int:
    """Number of differing bits between two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    # XOR into a zero-padded buffer and count bits eight bytes at a time; a
    # byte lookup table would make take() cast the bytes to intp, 8x their size
    xored = np.zeros(-(-len(a) // 8) * 8, dtype=np.uint8)
    np.bitwise_xor(np.frombuffer(a, dtype=np.uint8), np.frombuffer(b, dtype=np.uint8),
                   out=xored[: len(a)])
    x = xored.view(np.uint64)
    t = x >> 1
    t &= _M1
    x -= t
    np.right_shift(x, 2, out=t)
    t &= _M2
    x &= _M2
    x += t
    np.right_shift(x, 4, out=t)
    x += t
    x &= _M4
    x *= _H01  # wraps by design: the top byte collects the eight byte counts
    x >>= 56
    return int(x.sum())


def _chunks(data: memoryview) -> Iterator[memoryview]:
    size = 2 * filecodec.CHUNK_BLOCKS  # even, so only the last chunk can be odd
    for start in range(0, len(data), size):
        yield data[start : start + size]


def _changed_bits(chunk: memoryview, flip_mask: int) -> int:
    # a function of its own, so one chunk's outputs are freed before the next
    mutated = (np.frombuffer(chunk, dtype=np.uint8) ^ np.uint8(flip_mask)).tobytes()
    base_cipher, base_key = encrypt_file(chunk)
    mut_cipher, mut_key = encrypt_file(mutated)
    return (hamming_distance(base_cipher, mut_cipher)
            + hamming_distance(base_key.record_bytes, mut_key.record_bytes))


def avalanche(plaintext: bytes, flip_mask: int = FLIP_MASK) -> float:
    """Percentage of output bits that change when every plaintext byte has
    flip_mask XORed into it.

    The compared output is the cipher bytes followed by the key records;
    the constant key-file header is excluded. With flip_mask 0 the mutated
    input equals the original and the result is exactly 0.
    """
    data = memoryview(plaintext).cast("B")
    if not data:
        raise ValueError("avalanche is undefined for an empty plaintext")
    if not 0 <= flip_mask <= 255:
        raise ValueError(f"flip mask out of range: {flip_mask}")
    changed = sum(_changed_bits(chunk, flip_mask) for chunk in _chunks(data))
    return 100.0 * changed / (8 * (1 + RECORD_SIZE) * block_count(len(data)))


def keyfile_leakage_audit(key: KeyFile) -> bytes:
    """Recover the plaintext from the key file alone, never reading the cipher.

    The first two fields of every record are the bitwise complements of
    the block's two plaintext bytes, so complementing them again rebuilds
    the whole file. This is a structural flaw of the scheme, demonstrated
    rather than fixed.
    """
    recs = np.frombuffer(key.record_bytes, dtype=np.uint8).reshape(-1, RECORD_SIZE)
    plain = np.empty(2 * len(recs), dtype=np.uint8)
    plain[0::2] = 255 - recs[:, 0]
    plain[1::2] = 255 - recs[:, 1]
    return plain[: key.plaintext_length].tobytes()


def analyze_file(plaintext: bytes) -> AnalysisReport:
    """Encrypt, decrypt, and measure one file.

    Times sum the pure codec calls over the chunks. The round trip is
    verified chunk by chunk and a mismatch raises RuntimeError, since it
    can only mean a codec bug.
    """
    data = memoryview(plaintext).cast("B")
    if not data:
        raise ValueError("analyze_file needs a non-empty input")

    # first, so the loop's last chunk outputs are not held through it
    avalanche_percent = avalanche(data)
    source_counts = np.zeros(256, dtype=np.int64)
    cipher_counts = np.zeros(256, dtype=np.int64)
    encrypt_time = decrypt_time = 0.0
    for chunk in _chunks(data):
        start = time.perf_counter()
        cipher, key = encrypt_file(chunk)
        encrypt_time += time.perf_counter() - start

        start = time.perf_counter()
        recovered = decrypt_file(cipher, key)
        decrypt_time += time.perf_counter() - start

        if recovered != chunk:
            raise RuntimeError("round-trip mismatch: decryption did not restore the input")
        source_counts += frequency_table(chunk)
        cipher_counts += frequency_table(cipher)

    statistic, dof = chi_square(source_counts, cipher_counts)
    cipher_size = block_count(len(data))
    return AnalysisReport(
        source_size=len(data),
        cipher_size=cipher_size,
        encrypt_time=encrypt_time,
        decrypt_time=decrypt_time,
        chi_square=statistic,
        degrees_of_freedom=dof,
        avalanche_percent=avalanche_percent,
        compression_percent=100.0 * (1.0 - cipher_size / len(data)),
    )
