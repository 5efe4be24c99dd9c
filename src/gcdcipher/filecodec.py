"""File-level encryption, decryption, and the key-file wire format.

Key file layout:

    bytes 0-3    magic "GCDK"
    byte  4      format version, 0x01
    bytes 5-12   plaintext length in bytes, unsigned 64-bit big-endian
    bytes 13...  one 5-byte record per block: zero_weight_first,
                 zero_weight_second, rp_first, quotient, remainder

The cipher file is the bare cipher bytes, one per block, with no framing,
so its size is exactly ceil(n / 2) for an n-byte plaintext. A trailing
unpaired plaintext byte is paired with itself; decryption drops the
duplicate using the header's plaintext length.

Streams are processed in fixed-size chunks, so memory stays bounded
regardless of input size. A block's output depends on that block alone, so
encryption is a lookup: ``block_table`` holds the cipher byte and key
record of all 65,536 blocks, built once on first use, and each chunk is
one gather from it. Tests pin the table exhaustively against the scalar
``block.encrypt_block``, which stays the definition of the cipher.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np

from .block import RECORD_SIZE, KeyRecord, MalformedRecordError

MAGIC = b"GCDK"
VERSION = 1
HEADER_FORMAT = ">4sBQ"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)

CHUNK_BLOCKS = 1 << 15  # 64 KiB of plaintext per chunk


class KeyFileFormatError(ValueError):
    """Key file violates the wire format: magic, version, or size arithmetic."""


class ConsistencyError(ValueError):
    """Cipher file and key file disagree about the block count."""


class CorruptRecordError(MalformedRecordError):
    """A key record failed reconstruction; carries the failing block index."""

    def __init__(self, message: str, block_index: int):
        super().__init__(message)
        self.block_index = block_index


def block_count(plaintext_length: int) -> int:
    """Number of two-byte blocks covering a plaintext, odd tail included."""
    return (plaintext_length + 1) // 2


@dataclass(frozen=True)
class KeyFile:
    """Parsed key file: the plaintext length plus the raw record payload.

    Records are kept as bytes rather than objects so multi-megabyte keys
    stay cheap; use ``record``/``records`` for structured access.
    """

    plaintext_length: int
    record_bytes: bytes

    def __post_init__(self) -> None:
        expected = block_count(self.plaintext_length) * RECORD_SIZE
        if len(self.record_bytes) != expected:
            raise ValueError(
                f"plaintext length {self.plaintext_length} implies "
                f"{expected} record bytes, got {len(self.record_bytes)}"
            )

    @property
    def record_count(self) -> int:
        return len(self.record_bytes) // RECORD_SIZE

    def record(self, index: int) -> KeyRecord:
        if not 0 <= index < self.record_count:
            raise IndexError(f"record index {index} out of range")
        offset = index * RECORD_SIZE
        return KeyRecord(*self.record_bytes[offset : offset + RECORD_SIZE])

    def records(self) -> Iterator[KeyRecord]:
        for offset in range(0, len(self.record_bytes), RECORD_SIZE):
            yield KeyRecord(*self.record_bytes[offset : offset + RECORD_SIZE])

    def to_bytes(self) -> bytes:
        header = struct.pack(HEADER_FORMAT, MAGIC, VERSION, self.plaintext_length)
        return header + self.record_bytes


def parse_key_file(raw: bytes) -> KeyFile:
    """Parse and validate a serialized key file."""
    raw = bytes(raw)
    plaintext_length = _parse_header(raw[:HEADER_SIZE])
    payload = raw[HEADER_SIZE:]
    expected = block_count(plaintext_length) * RECORD_SIZE
    if len(payload) != expected:
        raise KeyFileFormatError(
            f"plaintext length {plaintext_length} implies a {expected}-byte "
            f"record payload, got {len(payload)} bytes"
        )
    return KeyFile(plaintext_length, payload)


def encrypt_file(plaintext: bytes) -> tuple[bytes, KeyFile]:
    """Encrypt a byte string; returns the cipher bytes and the key file."""
    data = bytes(plaintext)
    length = len(data)
    if length % 2:
        data += data[-1:]  # self-pair the trailing byte
    cipher, records = _encode_blocks(data)
    return cipher, KeyFile(length, records)


def decrypt_file(cipher: bytes, key: KeyFile) -> bytes:
    """Invert encrypt_file; cipher length must match the key's record count."""
    cipher = bytes(cipher)
    if len(cipher) != key.record_count:
        raise ConsistencyError(
            f"cipher has {len(cipher)} blocks but key has {key.record_count} records"
        )
    plain = _decode_blocks(cipher, key.record_bytes, 0)
    return plain[: key.plaintext_length].tobytes()


def encrypt_stream(src: BinaryIO, cipher_out: BinaryIO, key_out: BinaryIO) -> int:
    """Encrypt src chunk by chunk; returns the plaintext byte count.

    key_out must be seekable: the header is written up front with a
    placeholder length and patched once the input is exhausted.
    """
    key_out.write(struct.pack(HEADER_FORMAT, MAGIC, VERSION, 0))
    total = 0
    chunk_bytes = 2 * CHUNK_BLOCKS
    while True:
        data = _read_full(src, chunk_bytes)
        got = len(data)
        if not got:
            break
        total += got
        if got % 2:
            data += data[-1:]  # only possible on the final chunk
        cipher, records = _encode_blocks(data)
        cipher_out.write(cipher)
        key_out.write(records)
        if got < chunk_bytes:
            break
    key_out.seek(0)
    key_out.write(struct.pack(HEADER_FORMAT, MAGIC, VERSION, total))
    return total


def decrypt_stream(cipher_in: BinaryIO, key_in: BinaryIO, out: BinaryIO) -> int:
    """Decrypt a cipher stream against a key stream; returns bytes written."""
    plaintext_length = _parse_header(_read_full(key_in, HEADER_SIZE))
    blocks = block_count(plaintext_length)
    done = 0
    while done < blocks:
        k = min(CHUNK_BLOCKS, blocks - done)
        cipher = _read_full(cipher_in, k)
        if len(cipher) < k:
            raise ConsistencyError(
                f"cipher ends after block {done + len(cipher)}, "
                f"key file implies {blocks} blocks"
            )
        records = _read_full(key_in, k * RECORD_SIZE)
        if len(records) < k * RECORD_SIZE:
            raise KeyFileFormatError(
                f"key file record payload truncated near block {done + len(records) // RECORD_SIZE}"
            )
        plain = _decode_blocks(cipher, records, done)
        done += k
        if done == blocks and plaintext_length % 2:
            plain = plain[:-1]  # drop the self-paired duplicate
        out.write(plain.tobytes())
    if cipher_in.read(1):
        raise ConsistencyError(f"cipher continues past the {blocks} blocks implied by the key file")
    if key_in.read(1):
        raise KeyFileFormatError("trailing bytes after the final key record")
    return plaintext_length


def _parse_header(header: bytes) -> int:
    if len(header) < HEADER_SIZE:
        raise KeyFileFormatError(
            f"key file truncated: header needs {HEADER_SIZE} bytes, got {len(header)}"
        )
    magic, version, plaintext_length = struct.unpack(HEADER_FORMAT, header)
    if magic != MAGIC:
        raise KeyFileFormatError(f"not a key file: bad magic {magic!r}")
    if version != VERSION:
        raise KeyFileFormatError(f"unsupported key file version {version}")
    return plaintext_length


@functools.cache
def block_table() -> tuple[np.ndarray, np.ndarray]:
    """Cipher byte and key record of every block, indexed by ``a << 8 | b``.

    Returns a (65536,) array of cipher bytes and a (65536, 5) array of
    records, both read-only: every later encryption in the process reads
    them. Built on the first call rather than at import, so commands that
    never encrypt do not pay for it.
    """
    index = np.arange(1 << 16, dtype=np.uint16)
    a = (index >> 8).astype(np.uint8)
    b = (index & 0xFF).astype(np.uint8)
    g = np.gcd(a, b)
    safe_g = np.where(g == 0, 1, g).astype(np.uint8)
    rp_first = a // safe_g
    rp_second = b // safe_g
    safe_rp = np.where(rp_first == 0, 1, rp_first).astype(np.uint8)
    has_rp = rp_first > 0
    records = np.empty((len(g), RECORD_SIZE), dtype=np.uint8)
    records[:, 0] = 255 - a  # zero-bit weight sum of x is 255 - x
    records[:, 1] = 255 - b
    records[:, 2] = rp_first
    records[:, 3] = np.where(has_rp, rp_second // safe_rp, 0)
    records[:, 4] = np.where(has_rp, rp_second % safe_rp, rp_second)
    g.setflags(write=False)
    records.setflags(write=False)
    return g, records


def _encode_blocks(data: bytes) -> tuple[bytes, bytes]:
    # data length must be even; callers self-pair any odd tail
    cipher, records = block_table()
    index = np.frombuffer(data, dtype=">u2")
    out_cipher = np.empty(len(index), dtype=np.uint8)
    out_records = np.empty((len(index), RECORD_SIZE), dtype=np.uint8)
    # take() casts its index to intp, 8 bytes a block; a whole in-memory
    # file at once would allocate 4x the plaintext, so gather per chunk.
    # A 16-bit index is always in range, so "clip" never clips; it only
    # spares the bounds check and the buffered copy "raise" makes with out=.
    for start in range(0, len(index), CHUNK_BLOCKS):
        stop = start + CHUNK_BLOCKS
        part = index[start:stop].astype(np.intp)
        cipher.take(part, out=out_cipher[start:stop], mode="clip")
        records.take(part, axis=0, out=out_records[start:stop], mode="clip")
        del part  # free the intp index before tobytes() copies the outputs
    return out_cipher.tobytes(), out_records.tobytes()


def _decode_blocks(cipher: bytes, records: bytes, first_block: int) -> np.ndarray:
    # returns the 2 * len(cipher) plaintext bytes as an array, so callers can
    # drop a self-paired tail byte before copying them out
    g = np.frombuffer(cipher, dtype=np.uint8)
    recs = np.frombuffer(records, dtype=np.uint8).reshape(-1, RECORD_SIZE)
    plain = np.empty((len(g), 2), dtype=np.uint8)
    # widen inside the ufuncs, chunk by chunk: casting whole record columns
    # of an in-memory file up front would allocate 12 bytes a block
    for start in range(0, len(g), CHUNK_BLOCKS):
        stop = start + CHUNK_BLOCKS
        g_part, rp_first = g[start:stop], recs[start:stop, 2]
        first = np.multiply(rp_first, g_part, dtype=np.uint16)  # at most 255 * 255
        second = np.multiply(rp_first, recs[start:stop, 3], dtype=np.uint32)
        second += recs[start:stop, 4]
        second *= g_part
        bad = (first > 255) | (second > 255)
        if bad.any():
            index = first_block + start + int(np.argmax(bad))
            raise CorruptRecordError(
                f"key record {index} reconstructs a value above 255", index
            )
        plain[start:stop, 0] = first
        plain[start:stop, 1] = second
    return plain.reshape(-1)


def _read_full(stream: BinaryIO, n: int) -> bytes:
    """Read exactly n bytes unless the stream ends first."""
    buf = bytearray()
    while len(buf) < n:
        piece = stream.read(n - len(buf))
        if not piece:
            break
        buf += piece
    return bytes(buf)
