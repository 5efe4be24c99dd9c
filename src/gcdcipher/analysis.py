"""Evaluation metrics for the codec.

Covers byte-frequency chi-square between source and cipher files, the
avalanche effect under a one-bit-per-byte flip, the compression ratio,
wall-clock codec timing, and the key-file leakage audit.

``analyze_file``, ``avalanche`` and ``audit_stream`` walk their input in
chunks of ``2 * filecodec.CHUNK_BLOCKS`` plaintext bytes, so their memory
does not grow with the file. The results are exact: a block's output
depends on that block alone, and frequency counts and bit differences add
up chunk by chunk, and over the 2 MiB ranges of a file that ``corpus`` hands
to ``_analyze_range`` and sums with ``_report``. ``audit_stream`` takes a
key stream one chunk at a time from ``filecodec._key_files``, each chunk a
key file of its own, and recovers each with ``keyfile_leakage_audit``:
``decrypt``'s own kernel, ``filecodec._decode_blocks``, with no cipher to check.

``avalanche`` encrypts nothing. The block domain is only 2^16, so it looks
up both encryptions of each block, of the original and of the flipped
plaintext, in a table of every block's output built once from
``filecodec.block_table``. It allocates its two chunk outputs once per
call and gathers every chunk into them, so no chunk allocates new output
memory.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np

from . import filecodec
from .block import RECORD_SIZE
from .filecodec import KeyFile, block_count, decrypt_file, encrypt_file

# default flip target: the 5th bit counting the most significant as 1st (weight 8)
FLIP_MASK = 0x08


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
    """Number of differing bits between two buffers of equal byte length.

    Any contiguous buffer is compared as its bytes, so a numpy array of
    any dtype counts its ``nbytes``, not its element count.
    """
    a_bytes, b_bytes = memoryview(a).nbytes, memoryview(b).nbytes
    if a_bytes != b_bytes:
        raise ValueError(f"length mismatch: {a_bytes} vs {b_bytes} bytes")
    # whole 64-bit words when the length allows: a third of the time of bytes
    word = np.uint64 if a_bytes % 8 == 0 else np.uint8
    bits = np.bitwise_xor(np.frombuffer(a, dtype=word), np.frombuffer(b, dtype=word))
    np.bitwise_count(bits, out=bits)
    return int(bits.sum(dtype=np.int64))


def _chunks(data: memoryview) -> Iterator[memoryview]:
    size = 2 * filecodec.CHUNK_BLOCKS  # even, so only the last chunk can be odd
    for start in range(0, len(data), size):
        yield data[start : start + size]


@functools.cache
def _output_table() -> np.ndarray:
    # one uint64 per block: its cipher byte, its 5-byte record and 2 zero pad
    # bytes, which XOR to 0 and so add no bits to a Hamming distance; built
    # on first use and read-only, since every later avalanche reads it
    cipher, records = filecodec.block_table()
    pad = np.zeros((len(cipher), 7 - RECORD_SIZE), dtype=np.uint8)
    table = np.column_stack((cipher, records, pad)).view(np.uint64).reshape(-1)
    table.setflags(write=False)
    return table


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
    # a numpy integer shifts within its own width: np.uint8(8) << 8 is 0
    flip_mask = operator.index(flip_mask)
    if not 0 <= flip_mask <= 255:
        raise ValueError(f"flip mask out of range: {flip_mask}")
    # one pair of output buffers for every chunk, sized to the first, the largest
    blocks = block_count(min(len(data), 2 * filecodec.CHUNK_BLOCKS))
    base_buf, flipped_buf = np.empty(blocks, np.uint64), np.empty(blocks, np.uint64)
    # after the buffers: building the table before them raised corpus's peak RSS
    table = _output_table()
    changed = 0
    for chunk in _chunks(data):
        # both outputs are gathered into the front of the buffers, and "clip"
        # (a 16-bit index never clips) lets take() gather straight into them
        index = filecodec._block_index(chunk)
        n = len(index)
        base = table.take(index, mode="clip", out=base_buf[:n])
        index ^= flip_mask << 8 | flip_mask  # the blocks of the flipped plaintext
        flipped = table.take(index, mode="clip", out=flipped_buf[:n])
        del index  # 8 bytes a block: free it before the distance's XOR buffer
        changed += hamming_distance(base, flipped)
    return 100.0 * changed / (8 * (1 + RECORD_SIZE) * block_count(len(data)))


def keyfile_leakage_audit(key: KeyFile) -> bytes:
    """Recover the plaintext from the key file alone, never reading the cipher.

    The first two fields of every record are the bitwise complements of
    the block's two plaintext bytes, so complementing them again rebuilds
    the whole file. This is a structural flaw of the scheme, demonstrated
    rather than fixed. Raises CorruptRecordError for an odd length not self-paired.
    """
    filecodec._check_self_paired(key.record_bytes, key.plaintext_length, 0)
    return filecodec._decode_blocks(None, key.record_bytes, 0)[: key.plaintext_length].tobytes()


def audit_stream(key_in: BinaryIO, out: BinaryIO) -> int:
    """Recover the plaintext from a key stream alone; returns bytes written.

    Works one chunk at a time, so memory does not grow with the file: a
    chunk's records under a header naming its plaintext length are a key
    file of their own. Raises decrypt's errors for a key, after the chunks
    before the fault are written: KeyFileFormatError for a payload of the
    wrong size, CorruptRecordError for an odd length not self-paired.
    """
    written = 0
    for key in filecodec._key_files(key_in):
        recovered = keyfile_leakage_audit(key)
        out.write(recovered)
        written += len(recovered)
    return written


def analyze_file(plaintext: bytes) -> AnalysisReport:
    """Encrypt, decrypt, and measure one file.

    Times sum the pure codec calls over the chunks. The round trip is
    verified chunk by chunk and a mismatch raises RuntimeError, since it
    can only mean a codec bug.
    """
    return _report([_analyze_range(memoryview(plaintext).cast("B"))])


def _analyze_range(data: memoryview) -> tuple:
    # what one range of a file, starting at an even offset, adds to its report
    if not data:
        raise ValueError("analyze_file needs a non-empty input")
    blocks = block_count(len(data))
    # first, so no chunk output is held through it; as an integer count of changed
    # bits, which ranges add up exactly, unlike percentages: four float steps, each
    # off by at most 2**-53 of the count, leave round() exact below 2**50 bits
    changed = round(avalanche(data) * (8 * (1 + RECORD_SIZE) * blocks) / 100)
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

        if recovered != bytes(chunk):  # bytes with bytes: a memoryview compares per element
            raise RuntimeError("round-trip mismatch: decryption did not restore the input")
        source_counts += frequency_table(chunk)
        cipher_counts += frequency_table(cipher)
    return len(data), blocks, changed, source_counts, cipher_counts, encrypt_time, decrypt_time


def _report(parts) -> AnalysisReport:
    size, blocks, changed, sources, ciphers, encrypt_s, decrypt_s = map(sum, zip(*parts))
    statistic, dof = chi_square(sources, ciphers)
    return AnalysisReport(
        source_size=size,
        cipher_size=blocks,
        encrypt_time=encrypt_s,
        decrypt_time=decrypt_s,
        chi_square=statistic,
        degrees_of_freedom=dof,
        avalanche_percent=100.0 * changed / (8 * (1 + RECORD_SIZE) * blocks),
        compression_percent=100.0 * (1.0 - blocks / size),
    )
