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
regardless of input size. There is one chunk loop per direction,
``_encode_stream`` and ``_decode_stream``, and it makes every cipher/key
consistency check. The in-memory ``encrypt_file`` and ``decrypt_file`` run
it over ``io.BytesIO`` buffers, so a whole-file ``encrypt_file`` holds its
outputs (3x the input) plus about half a MiB of per-chunk working memory,
and ``decrypt_file`` its output plus about the same. ``_record_chunks`` is
the one reader of a key's record payload, and makes every key check that
needs no cipher: the payload's size, and a self-paired last record for an
odd length, which ``_check_self_paired`` states for the in-memory audit
too. ``_decode_stream`` reads the key through it, and so does ``_key_files``,
which yields each chunk of a key stream as a key file of its own for
``analysis.audit_stream``. Both turn records into plaintext with
``_decode_blocks``, which checks the gcd arithmetic only when decrypting.

``_encode_stream`` allocates its chunk outputs once per call, sized to the
first chunk, and gathers every chunk into them: outputs allocated per
chunk are unmapped or trimmed by the allocator and faulted back in on the
next chunk. So the ``write`` of ``cipher_out`` and ``key_out``
receives a view of a reused buffer that is valid only during the call, as
``io.RawIOBase.write`` specifies; a sink that keeps it must copy it.

A block's output depends on that block alone, so encryption is a lookup:
``block_table`` holds the cipher byte and key record of all 65,536 blocks,
built once on first use, and each chunk is one gather from it. Tests pin
the table exhaustively against the scalar ``block.encrypt_block``, which
stays the definition of the cipher.
"""

from __future__ import annotations

import functools
import io
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np

from .block import RECORD_SIZE, MalformedRecordError

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
    stay cheap.
    """

    plaintext_length: int
    record_bytes: bytes

    def __post_init__(self) -> None:
        if self.plaintext_length < 0:
            raise KeyFileFormatError(f"negative plaintext length {self.plaintext_length}")
        expected = block_count(self.plaintext_length) * RECORD_SIZE
        if len(self.record_bytes) != expected:
            raise KeyFileFormatError(
                f"plaintext length {self.plaintext_length} implies a {expected}-byte "
                f"record payload, got {len(self.record_bytes)} bytes"
            )

    def to_bytes(self) -> bytes:
        return _header(self.plaintext_length) + self.record_bytes


def parse_key_file(raw: bytes) -> KeyFile:
    """Parse and validate a serialized key file."""
    return KeyFile(_parse_header(raw[:HEADER_SIZE]), bytes(raw[HEADER_SIZE:]))


def encrypt_file(plaintext: bytes) -> tuple[bytes, KeyFile]:
    """Encrypt a byte string; returns the cipher bytes and the key file."""
    cipher, records = io.BytesIO(), io.BytesIO()
    length = _encode_stream(io.BytesIO(plaintext), cipher, records)
    return cipher.getvalue(), KeyFile(length, records.getvalue())


def decrypt_file(cipher: bytes, key: KeyFile) -> bytes:
    """Invert encrypt_file; cipher length must match the key's record count."""
    out = io.BytesIO()
    _decode_stream(io.BytesIO(cipher), io.BytesIO(key.record_bytes), key.plaintext_length, out)
    return out.getvalue()


def encrypt_stream(src: BinaryIO, cipher_out: BinaryIO, key_out: BinaryIO) -> int:
    """Encrypt src chunk by chunk; returns the plaintext byte count.

    key_out must be seekable, as its header's length is patched last; a sink
    that cannot seek is refused, by its name, before anything is written.
    """
    try:
        key_out.seek(0)
    except OSError as exc:  # io.UnsupportedOperation, say, for a pipe
        sink = f"key output {key_out.name}" if hasattr(key_out, "name") else "key output"
        raise type(exc)(f"refusing to write {sink}: it must be seekable") from exc
    key_out.write(_header(0))
    total = _encode_stream(src, cipher_out, key_out)
    key_out.seek(0)
    key_out.write(_header(total))
    return total


def decrypt_stream(cipher_in: BinaryIO, key_in: BinaryIO, out: BinaryIO) -> int:
    """Decrypt a cipher stream against a key stream; returns bytes written."""
    plaintext_length = _parse_header(_read_full(key_in, HEADER_SIZE))
    _decode_stream(cipher_in, key_in, plaintext_length, out)
    return plaintext_length


def _encode_stream(src: BinaryIO, cipher_out: BinaryIO, records_out: BinaryIO) -> int:
    # the one encryption loop; returns the plaintext byte count
    chunk_bytes = 2 * CHUNK_BLOCKS
    total = 0
    cipher_buf = records_buf = None
    while True:
        data = _read_full(src, chunk_bytes)
        total += len(data)
        if data:
            if cipher_buf is None:  # sized to the first chunk, which no later one exceeds
                blocks = block_count(len(data))
                cipher_buf = np.empty(blocks, np.uint8)
                records_buf = np.empty((blocks, RECORD_SIZE), np.uint8)
                cipher, records = block_table()
            # gather the chunk's cipher bytes and records into the front of the
            # buffers; a 16-bit index is always in range, so "clip" never clips:
            # it spares the bounds check, and with it take() gathers straight into out
            index = _block_index(data)
            n = len(index)
            chosen_cipher = cipher.take(index, mode="clip", out=cipher_buf[:n])
            chosen = records.take(index, axis=0, mode="clip", out=records_buf[:n])
            del index  # 8 bytes a block: free it before the writes copy the outputs
            # flat uint8 arrays, so len() is the byte count
            cipher_out.write(chosen_cipher)
            records_out.write(chosen.reshape(-1))
        if len(data) < chunk_bytes:
            return total


def _decode_stream(
    cipher_in: BinaryIO, records_in: BinaryIO, plaintext_length: int, out: BinaryIO
) -> None:
    # the one decryption loop, and every cipher/key consistency check
    blocks = block_count(plaintext_length)
    for done, records, keep in _record_chunks(records_in, plaintext_length):
        k = len(records) // RECORD_SIZE
        cipher = _read_full(cipher_in, k)
        if len(cipher) < k:
            raise ConsistencyError(
                f"cipher ends after block {done + len(cipher)}, "
                f"key file implies {blocks} blocks"
            )
        out.write(_decode_blocks(cipher, records, done)[:keep])
    if cipher_in.read(1):
        raise ConsistencyError(f"cipher continues past the {blocks} blocks implied by the key file")


def _key_files(key_in: BinaryIO) -> Iterator[KeyFile]:
    # each chunk of a key stream as a key file of its own: the chunk's records
    # behind a header naming its plaintext length, parsed from one buffer
    # sized to the first chunk, the largest; a fresh one per chunk would fault
    # in new pages each time
    plaintext_length = _parse_header(_read_full(key_in, HEADER_SIZE))
    size = HEADER_SIZE + min(block_count(plaintext_length), CHUNK_BLOCKS) * RECORD_SIZE
    buf = memoryview(bytearray(size))
    for _, records, keep in _record_chunks(key_in, plaintext_length):
        chunk = buf[: HEADER_SIZE + len(records)]
        chunk[:HEADER_SIZE] = _header(keep)
        chunk[HEADER_SIZE:] = records
        del records  # with _record_chunks' own del, freed before the next read
        yield parse_key_file(chunk)


def _record_chunks(records_in: BinaryIO, plaintext_length: int) -> Iterator[tuple[int, bytes, int]]:
    # the one reader of a key's record payload, and every key check that needs
    # no cipher: yields each chunk's first block, its CHUNK_BLOCKS records (the
    # last chunk's fewer) and the count of plaintext bytes they hold
    blocks = block_count(plaintext_length)
    for done in range(0, max(blocks, 1), CHUNK_BLOCKS):  # no payload: one empty chunk
        size = min(CHUNK_BLOCKS, blocks - done) * RECORD_SIZE
        records = _read_full(records_in, size)
        if len(records) < size:
            block = done + len(records) // RECORD_SIZE
            raise KeyFileFormatError(f"key file record payload truncated near block {block}")
        # before the self-paired check: a header length cut short would blame an intact record
        if done + CHUNK_BLOCKS >= blocks and records_in.read(1):
            raise KeyFileFormatError("trailing bytes after the final key record")
        keep = min(2 * CHUNK_BLOCKS, plaintext_length - 2 * done)
        _check_self_paired(records, keep, done)
        yield done, records, keep
        del records  # free the read result before the next chunk is read


def _check_self_paired(records: bytes, plaintext_length: int, first_block: int) -> None:
    # an odd length ends in a self-paired record (equal zero-weight bytes), whose
    # duplicate is dropped; any other means the length was edited from even
    if plaintext_length % 2 and records[-RECORD_SIZE] != records[-RECORD_SIZE + 1]:
        index = first_block + len(records) // RECORD_SIZE - 1
        raise CorruptRecordError(f"key record {index} is not self-paired", index)


def _header(plaintext_length: int) -> bytes:
    return struct.pack(HEADER_FORMAT, MAGIC, VERSION, plaintext_length)


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
    # encrypt_block's steps over every block at once, a 0 divisor replaced by 1:
    # the all-zero block's gcd is 0, and 0 // 1 gives its remaining products 0
    g = np.gcd(a, b)
    rp_first, rp_second = a // np.maximum(g, 1), b // np.maximum(g, 1)
    quotient, remainder = np.divmod(rp_second, np.maximum(rp_first, 1))
    # a first byte of 0, as in the scalar branch: rp_second parked in the remainder
    quotient = np.where(rp_first == 0, 0, quotient)
    remainder = np.where(rp_first == 0, rp_second, remainder)
    # zero-bit weight sum of x is 255 - x
    records = np.stack([255 - a, 255 - b, rp_first, quotient, remainder], axis=1)
    g.setflags(write=False)
    records.setflags(write=False)
    return g, records


def _block_index(data: bytes) -> np.ndarray:
    # the block_table index a << 8 | b of each block, as intp so take() need
    # not cast it; a trailing unpaired byte is paired with itself
    pairs = len(data) // 2
    index = np.empty(block_count(len(data)), dtype=np.intp)
    index[:pairs] = np.frombuffer(data, dtype=">u2", count=pairs)
    if len(data) % 2:
        index[pairs] = data[-1] * 0x101
    return index


def _decode_blocks(cipher: bytes | None, records: bytes, first_block: int) -> np.ndarray:
    """One chunk's plaintext, flat, so the caller can drop a self-paired tail
    byte: the complement of the zero-weight fields. Given the cipher, the first
    block whose gcd arithmetic does not rebuild it raises CorruptRecordError."""
    recs = np.frombuffer(records, dtype=np.uint8).reshape(-1, RECORD_SIZE)
    plain = np.empty((len(recs), 2), dtype=np.uint8)
    for k in range(2):  # a column at a time: one invert over both takes four times as long
        np.invert(recs[:, k], out=plain[:, k])  # a byte's complement, 255 minus it
    if cipher is not None:
        g = np.frombuffer(cipher, dtype=np.uint8)
        rp_first = recs[:, 2]
        # widen inside the ufuncs: casting the record columns first costs 12 bytes a block
        first = np.multiply(rp_first, g, dtype=np.uint16)  # at most 255 * 255
        second = np.multiply(rp_first, recs[:, 3], dtype=np.uint32)
        second += recs[:, 4]
        second *= g
        bad = (first != plain[:, 0]) | (second != plain[:, 1])
        if bad.any():
            index = first_block + int(np.argmax(bad))
            raise CorruptRecordError(f"key record {index} disagrees with its cipher byte", index)
    return plain.reshape(-1)


def _read_full(stream: BinaryIO, n: int) -> bytes:
    """Read exactly n bytes unless the stream ends first."""
    data = stream.read(n)
    if len(data) == n or not data:
        return data
    buf = bytearray(data)  # a short read: keep reading until n or the end
    while len(buf) < n and (piece := stream.read(n - len(buf))):
        buf += piece
    return bytes(buf)
