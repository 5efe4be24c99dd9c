"""The one check every chunk loop's tests run, whatever their entry point.

Each entry point is pinned to the definitions in ``oracles``: at every seam
length with 16-byte chunks, and on every block at the real chunk size.
"""

import io
import random
from collections import Counter

import numpy as np
import pytest

from gcdcipher import filecodec
from gcdcipher.analysis import analyze_file, audit_stream, avalanche, chi_square, keyfile_leakage_audit
from gcdcipher.filecodec import KeyFile, decrypt_file, decrypt_stream, encrypt_file, encrypt_stream

from oracles import EVERY_BLOCK, avalanche_oracle, every_block_encrypted, header, scalar_encrypt

# with CHUNK_BLOCKS set to 8, chunks of 16 bytes: within one, at and either side
# of each seam, odd and even, and 63 chunks with an odd last one
SEAM_LENGTHS = [1, 15, 16, 17, 31, 33, 47, 48, 49, 50, 1001]


class CopyingSink:
    """Seekable sink that keeps bytes(b) of every write, as a sink must:
    encrypt_stream hands write a view of a buffer it reuses for the next chunk."""

    def __init__(self):
        self.writes: list[tuple[int, bytes]] = []  # (offset, bytes) in write order
        self.position = 0

    def write(self, b) -> int:
        piece = bytes(b)
        self.writes.append((self.position, piece))
        self.position += len(piece)
        return len(piece)

    def seek(self, position: int) -> int:
        self.position = position
        return position

    def getvalue(self) -> bytes:
        out = bytearray()
        for position, piece in self.writes:
            out[position : position + len(piece)] = piece
        return bytes(out)


def byte_counts(data: bytes) -> np.ndarray:
    out = np.zeros(256, dtype=np.int64)
    for value, count in Counter(data).items():
        out[value] = count
    return out


def assert_exact(entry: str, data: bytes, cipher: bytes, records: bytes, mask: int = 0x08):
    """entry, given data or the cipher and records scalar_encrypt makes of it,
    gives exactly what the definitions give for the whole input."""
    n, key = len(data), header(len(data)) + records
    if entry == "encrypt_file":
        assert encrypt_file(data) == (cipher, KeyFile(n, records))
    elif entry == "encrypt_stream":
        ct, key_out = CopyingSink(), CopyingSink()
        assert encrypt_stream(io.BytesIO(data), ct, key_out) == n
        assert (ct.getvalue(), key_out.getvalue()) == (cipher, key)
        # one cipher write a chunk, and the last chunk no longer than the first
        step = filecodec.CHUNK_BLOCKS
        assert [len(piece) for _, piece in ct.writes] == [
            len(cipher[i : i + step]) for i in range(0, len(cipher), step)]
    elif entry == "decrypt_file":
        assert decrypt_file(cipher, KeyFile(n, records)) == data
    elif entry == "decrypt_stream":
        out = io.BytesIO()
        assert decrypt_stream(io.BytesIO(cipher), io.BytesIO(key), out) == n
        assert out.getvalue() == data
    elif entry == "audit_stream":
        out = io.BytesIO()
        assert audit_stream(io.BytesIO(key), out) == n
        assert out.getvalue() == keyfile_leakage_audit(KeyFile(n, records)) == data
    elif entry == "analyze_file":
        report = analyze_file(data)
        assert (report.source_size, report.cipher_size) == (n, len(cipher))
        assert (report.chi_square, report.degrees_of_freedom) == chi_square(
            byte_counts(data), byte_counts(cipher))
        assert report.avalanche_percent == avalanche_oracle(data, 0x08)
        assert report.compression_percent == 100.0 * (1.0 - len(cipher) / n)
    else:
        assert entry == "avalanche"
        assert avalanche(data, flip_mask=mask) == avalanche_oracle(data, mask)


def assert_exact_at_seam(entry: str, length: int, mask: int = 0x08):
    """assert_exact on random bytes of length, in 16-byte chunks."""
    data = random.Random(length).randbytes(length)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(filecodec, "CHUNK_BLOCKS", 8)
        assert_exact(entry, data, *scalar_encrypt(data), mask)


def assert_exact_on_every_block(entry: str):
    """assert_exact at the real chunk size on EVERY_BLOCK, two whole chunks, then
    with a third of one byte, whose expected outputs come from encrypt_block."""
    cipher, records = every_block_encrypted()
    tail_cipher, tail_records = scalar_encrypt(b"\x2a")
    assert_exact(entry, EVERY_BLOCK, cipher, records)
    assert_exact(entry, EVERY_BLOCK + b"\x2a", cipher + tail_cipher, records + tail_records)
