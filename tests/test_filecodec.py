import io
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gcdcipher
from gcdcipher import filecodec
from gcdcipher.block import (
    RECORD_SIZE,
    KeyRecord,
    MalformedRecordError,
    decrypt_block,
)
from gcdcipher.filecodec import (
    HEADER_SIZE,
    MAGIC,
    ConsistencyError,
    CorruptRecordError,
    KeyFile,
    KeyFileFormatError,
    block_count,
    block_table,
    decrypt_file,
    decrypt_stream,
    encrypt_file,
    encrypt_stream,
    parse_key_file,
)

from chunk_loops import SEAM_LENGTHS, assert_exact_at_seam, assert_exact_on_every_block
from oracles import every_block_encrypted, header, traced_peak

TABLE_RECORD = bytes([150, 145, 21, 1, 1])


def test_encrypt_file_golden_pair():
    cipher, key = encrypt_file(b"in")
    assert cipher == b"\x05"
    assert key.plaintext_length == 2
    assert key.record_bytes == TABLE_RECORD


def test_encrypt_file_empty():
    cipher, key = encrypt_file(b"")
    assert cipher == b""
    assert key.plaintext_length == 0
    assert key.record_bytes == b""
    assert key.to_bytes() == header(0)


def test_encrypt_file_odd_length():
    cipher, key = encrypt_file(bytes([50, 100, 7]))
    assert cipher == bytes([50, 7])
    assert key.plaintext_length == 3
    assert key.record_bytes == bytes([205, 155, 1, 2, 0, 248, 248, 1, 1, 0])
    assert decrypt_file(cipher, key) == bytes([50, 100, 7])


def test_decrypt_file_golden_pair():
    assert decrypt_file(b"\x05", KeyFile(2, TABLE_RECORD)) == b"in"


def test_decrypt_file_empty():
    assert decrypt_file(b"", KeyFile(0, b"")) == b""


@given(st.binary(max_size=4096))
def test_round_trip(data):
    cipher, key = encrypt_file(data)
    assert decrypt_file(cipher, key) == data


@given(st.binary(max_size=4096))
def test_size_laws(data):
    cipher, key = encrypt_file(data)
    blocks = block_count(len(data))
    assert len(cipher) == blocks
    assert len(key.record_bytes) == 5 * blocks
    assert len(key.to_bytes()) == HEADER_SIZE + 5 * blocks


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\x00",
        bytes(1001),
        bytes([7]),
        bytes(range(256)) * 3 + b"\x11",
    ],
    ids=["empty", "single-zero", "all-zero-odd", "single-byte", "all-values-odd"],
)
def test_round_trip_edge_cases(data):
    cipher, key = encrypt_file(data)
    assert decrypt_file(cipher, key) == data


def test_vector_path_matches_scalar_blocks():
    assert_exact_on_every_block("encrypt_file")


@pytest.mark.parametrize("length", SEAM_LENGTHS)
def test_encrypt_file_gathers_across_chunks(length):
    assert_exact_at_seam("encrypt_file", length)


@pytest.mark.parametrize("length", SEAM_LENGTHS)
def test_decrypt_file_reconstructs_across_chunks(length):
    assert_exact_at_seam("decrypt_file", length)


def test_decrypt_file_reports_global_index_of_corrupt_record_in_third_chunk(monkeypatch):
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = bytearray(random.Random(3).randbytes(61))
    data[38:40] = bytes([100, 50])  # block 19, in the third 8-block chunk; gcd 50
    cipher, key = encrypt_file(bytes(data))
    records = bytearray(key.record_bytes)
    records[19 * 5 + 2] = 255  # rp_first 255 with cipher 50 reconstructs 12750
    with pytest.raises(CorruptRecordError) as excinfo:
        decrypt_file(cipher, KeyFile(key.plaintext_length, bytes(records)))
    assert excinfo.value.block_index == 19
    assert "key record 19 " in str(excinfo.value)


def test_block_table_matches_encrypt_block_exhaustively():
    """Encryption reads the table, so every one of its rows is pinned to the spec."""
    ciphers, records = every_block_encrypted()
    table_ciphers, table_records = block_table()
    assert table_ciphers.shape == (65536,) and table_records.shape == (65536, 5)
    assert table_ciphers.tobytes() == ciphers
    assert table_records.tobytes() == records


def test_block_table_is_read_only():
    ciphers, records = block_table()
    with pytest.raises(ValueError):
        ciphers[0] = 1
    with pytest.raises(ValueError):
        records[0, 0] = 1
    assert block_table()[0] is ciphers  # built once, shared by every caller


def test_block_table_built_on_first_encrypt_only():
    script = """
import gcdcipher.cli
from gcdcipher import filecodec
from gcdcipher.analysis import keyfile_leakage_audit
key = filecodec.KeyFile(2, bytes([150, 145, 21, 1, 1]))
assert filecodec.decrypt_file(b"\\x05", key) == b"in"
assert keyfile_leakage_audit(key) == b"in"
assert filecodec.block_table.cache_info().currsize == 0, "built before any encryption"
filecodec.encrypt_file(b"in")
assert filecodec.block_table.cache_info().currsize == 1
"""
    env = {**os.environ, "PYTHONPATH": str(Path(gcdcipher.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_order_preservation():
    data = bytes([105, 110, 50, 100, 0, 0])
    cipher, key = encrypt_file(data)
    assert cipher[0] == 5 and cipher[1] == 50 and cipher[2] == 0
    assert key.record_bytes == TABLE_RECORD + bytes([205, 155, 1, 2, 0, 255, 255, 0, 0, 0])


def test_parse_key_file_single_record():
    key = parse_key_file(header(2) + TABLE_RECORD)
    assert key.plaintext_length == 2
    assert key.record_bytes == TABLE_RECORD


def test_parse_key_file_header_only():
    key = parse_key_file(header(0))
    assert key.plaintext_length == 0
    assert key.record_bytes == b""


def test_parse_key_file_truncated_payload():
    with pytest.raises(KeyFileFormatError):
        parse_key_file(header(2) + TABLE_RECORD[:4])


def test_parse_key_file_truncated_header():
    with pytest.raises(KeyFileFormatError):
        parse_key_file(header(0)[:7])


def test_parse_key_file_bad_magic():
    raw = b"NOPE" + header(2)[4:] + TABLE_RECORD
    with pytest.raises(KeyFileFormatError):
        parse_key_file(raw)


def test_parse_key_file_bad_version():
    raw = MAGIC + b"\x02" + header(2)[5:] + TABLE_RECORD
    with pytest.raises(KeyFileFormatError):
        parse_key_file(raw)


@given(st.binary(max_size=2048))
def test_serialize_parse_round_trip(data):
    _, key = encrypt_file(data)
    assert parse_key_file(key.to_bytes()) == key


def test_key_file_rejects_inconsistent_payload():
    with pytest.raises(KeyFileFormatError):
        KeyFile(2, b"")
    with pytest.raises(KeyFileFormatError):
        KeyFile(0, TABLE_RECORD)
    with pytest.raises(KeyFileFormatError):  # block_count(-1) is 0
        KeyFile(-1, b"")


@pytest.mark.parametrize("cipher", [b"\x05\x05", b""], ids=["too-long", "too-short"])
def test_decrypt_file_count_mismatch(cipher):
    with pytest.raises(ConsistencyError):
        decrypt_file(cipher, KeyFile(2, TABLE_RECORD))


def test_decrypt_file_corrupt_record_reports_block_index():
    data = bytes([50, 100]) * 3
    cipher, key = encrypt_file(data)
    records = bytearray(key.record_bytes)
    records[5 + 2] = 6  # block 1: rp_first 6 with cipher 50 reconstructs 300
    with pytest.raises(CorruptRecordError) as excinfo:
        decrypt_file(cipher, KeyFile(key.plaintext_length, bytes(records)))
    assert excinfo.value.block_index == 1
    assert "1" in str(excinfo.value)


def test_single_byte_mutations_that_overflow_are_caught():
    """Corruptions that push a reconstruction past 255 never pass silently."""
    data = bytes([105, 110, 50, 100])
    cipher, key = encrypt_file(data)
    found = 0
    for pos in range(len(key.record_bytes)):
        mutated = bytearray(key.record_bytes)
        mutated[pos] = 255
        block = pos // 5
        rec = mutated[block * 5 : block * 5 + 5]
        g = cipher[block]
        overflows = rec[2] * g > 255 or (rec[2] * rec[3] + rec[4]) * g > 255
        if not overflows:
            continue
        found += 1
        with pytest.raises(CorruptRecordError) as excinfo:
            decrypt_file(cipher, KeyFile(key.plaintext_length, bytes(mutated)))
        assert excinfo.value.block_index == block
    assert found > 0


def decode_rule(g, zw0, zw1, rp_first, quotient, remainder):
    """Reference decode rule, per block, over integer arrays: accept exactly
    when the gcd arithmetic rebuilds the complement of the zero-weight fields."""
    return (rp_first * g == 255 - zw0) & ((rp_first * quotient + remainder) * g == 255 - zw1)


def test_no_single_byte_edit_of_any_block_decrypts_silently():
    """Every single-byte XOR of each of the 6 output bytes of all 65,536 blocks,
    100,270,080 cases: none is accepted with a wrong plaintext, and the kernel
    agrees with the rule on every edited table."""
    cipher, records = block_table()
    fields = [cipher.astype(np.int32), *records.astype(np.int32).T]  # cipher byte, record
    counts = {"silent": 0, "ignored": 0, "caught": 0}
    for field in range(1 + RECORD_SIZE):
        edited_cipher, edited_records = cipher.copy(), records.copy()
        edited_column = edited_cipher if field == 0 else edited_records[:, field - 1]
        for flip in range(1, 256):
            edited = list(fields)
            edited[field] = edited_column[...] = fields[field] ^ flip
            ok = decode_rule(*edited)
            # an accepted plaintext is the complement of the zero-weight fields
            wrong = (edited[1] != fields[1]) | (edited[2] != fields[2])
            counts["silent"] += int(np.count_nonzero(ok & wrong))
            counts["ignored"] += int(np.count_nonzero(ok & ~wrong))
            counts["caught"] += len(ok) - int(np.count_nonzero(ok))
            # the kernel accepts the blocks the rule accepts, with the complement...
            plain = filecodec._decode_blocks(edited_cipher[ok], edited_records[ok], 0)
            assert np.array_equal(plain, 255 - edited_records[ok, :2].reshape(-1))
            # ...and over the whole table names the first block the rule rejects
            with pytest.raises(CorruptRecordError) as excinfo:
                filecodec._decode_blocks(edited_cipher, edited_records, 0)
            assert excinfo.value.block_index == int(np.argmin(ok))
    # ignored: edits that change nothing decoded, such as the quotient of a block
    # whose first byte is 0; 0.066% of the cases
    assert counts == {"silent": 0, "ignored": 66_045, "caught": 100_204_035}
    assert sum(counts.values()) == 6 * 255 * (1 << 16)


@given(
    st.binary(min_size=1, max_size=300),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=255),
    st.integers(min_value=0, max_value=1 << 40),
)
def test_decode_kernel_rejects_exactly_where_the_rule_does(data, position, flip, first_block):
    """One edited byte of a chunk's cipher or records: the kernel accepts when
    the rule accepts every block, and otherwise names the first it rejects."""
    cipher, key = encrypt_file(data)
    edited = bytearray(cipher + key.record_bytes)
    edited[position % len(edited)] ^= flip
    cipher, records = bytes(edited[: len(cipher)]), bytes(edited[len(cipher) :])
    g = np.frombuffer(cipher, np.uint8).astype(np.int32)
    recs = np.frombuffer(records, np.uint8).reshape(-1, RECORD_SIZE).astype(np.int32)
    ok = decode_rule(g, *recs.T)
    if ok.all():
        plain = filecodec._decode_blocks(cipher, records, first_block)
        assert np.array_equal(plain, 255 - recs[:, :2].reshape(-1))
    else:
        with pytest.raises(CorruptRecordError) as excinfo:
            filecodec._decode_blocks(cipher, records, first_block)
        assert excinfo.value.block_index == first_block + int(np.argmin(ok))


def test_decrypt_file_refuses_an_even_length_edited_to_odd(monkeypatch):
    """An odd length needs a self-paired last record; the one header edit that
    passes is odd to even, which appends a copy of the last byte."""
    cipher, key = encrypt_file(b"hello!")
    with pytest.raises(CorruptRecordError) as excinfo:
        decrypt_file(cipher, KeyFile(5, key.record_bytes))
    assert excinfo.value.block_index == 2
    assert "key record 2 " in str(excinfo.value)
    cipher, key = encrypt_file(b"hello")
    assert decrypt_file(cipher, KeyFile(6, key.record_bytes)) == b"helloo"
    # the last chunk's one block, named by its global index
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    cipher, key = encrypt_file(bytes(range(34)))
    with pytest.raises(CorruptRecordError) as excinfo:
        decrypt_file(cipher, KeyFile(33, key.record_bytes))
    assert excinfo.value.block_index == 16


def test_encrypt_stream_matches_encrypt_file(monkeypatch):
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = bytes(range(256)) * 4 + b"\x2a"  # odd, spans many chunks
    ct, key_out = io.BytesIO(), io.BytesIO()
    assert encrypt_stream(io.BytesIO(data), ct, key_out) == len(data)
    cipher, key = encrypt_file(data)
    assert ct.getvalue() == cipher
    assert key_out.getvalue() == key.to_bytes()


class UnseekableSink(io.RawIOBase):
    """A writable raw stream that keeps every byte written and cannot seek."""

    def __init__(self):
        self.written = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.written += bytes(b)
        return len(b)


def test_encrypt_stream_fails_before_writing_to_a_key_sink_that_cannot_seek():
    ct, key_out = UnseekableSink(), UnseekableSink()
    with pytest.raises(io.UnsupportedOperation):
        encrypt_stream(io.BytesIO(b"hello world"), ct, key_out)
    assert (len(ct.written), len(key_out.written)) == (0, 0)


def test_encrypt_stream_refusal_names_the_key_sink(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # an open read end lets the FIFO be opened for writing without blocking
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with open(fifo, "wb") as key_out, pytest.raises(io.UnsupportedOperation) as excinfo:
            encrypt_stream(io.BytesIO(b"hello world"), io.BytesIO(), key_out)
    finally:
        os.close(reader)
    assert f"refusing to write key output {fifo}:" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, io.UnsupportedOperation)


@pytest.mark.parametrize("length", SEAM_LENGTHS)
def test_encrypt_stream_matches_scalar_blocks_across_chunks(length):
    assert_exact_at_seam("encrypt_stream", length)


def test_decrypt_stream_matches_decrypt_file():
    for length in SEAM_LENGTHS:
        assert_exact_at_seam("decrypt_stream", length)


class TrickleReader(io.RawIOBase):
    """Raw stream that returns at most 7 bytes per read, as a pipe may."""

    def __init__(self, data: bytes):
        self._src = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        piece = self._src.read(min(len(buf), 7))
        buf[: len(piece)] = piece
        return len(piece)


def test_streams_gather_short_reads_into_whole_chunks(monkeypatch):
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = bytes(range(256)) * 2 + b"\x2a"  # odd, spans many chunks
    cipher, key = encrypt_file(data)
    ct, key_out = io.BytesIO(), io.BytesIO()
    assert encrypt_stream(TrickleReader(data), ct, key_out) == len(data)
    assert ct.getvalue() == cipher
    assert key_out.getvalue() == key.to_bytes()
    out = io.BytesIO()
    assert decrypt_stream(TrickleReader(cipher), TrickleReader(key.to_bytes()), out) == len(data)
    assert out.getvalue() == data


def test_stream_round_trip_across_real_chunk_boundary():
    """encrypt_stream's half; decrypt_stream's is the every-block test below."""
    assert_exact_on_every_block("encrypt_stream")


def test_decrypt_stream_cipher_too_short():
    data = b"0123456789"
    cipher, key = encrypt_file(data)
    with pytest.raises(ConsistencyError):
        decrypt_stream(io.BytesIO(cipher[:-1]), io.BytesIO(key.to_bytes()), io.BytesIO())


def test_decrypt_stream_cipher_too_long():
    data = b"0123456789"
    cipher, key = encrypt_file(data)
    with pytest.raises(ConsistencyError):
        decrypt_stream(io.BytesIO(cipher + b"\x01"), io.BytesIO(key.to_bytes()), io.BytesIO())


def test_decrypt_stream_key_payload_truncated():
    data = b"0123456789"
    cipher, key = encrypt_file(data)
    with pytest.raises(KeyFileFormatError):
        decrypt_stream(io.BytesIO(cipher), io.BytesIO(key.to_bytes()[:-2]), io.BytesIO())


def test_decrypt_stream_key_trailing_bytes():
    data = b"0123456789"
    cipher, key = encrypt_file(data)
    with pytest.raises(KeyFileFormatError):
        decrypt_stream(io.BytesIO(cipher), io.BytesIO(key.to_bytes() + b"\x00"), io.BytesIO())


def test_decrypt_file_inverts_scalar_encrypt_on_every_block():
    assert_exact_on_every_block("decrypt_file")


def test_decrypt_stream_inverts_scalar_encrypt_on_every_block():
    assert_exact_on_every_block("decrypt_stream")


@given(st.binary(min_size=6, max_size=6))
def test_decrypt_file_agrees_with_decrypt_block_on_any_record(raw):
    g, record = raw[0], raw[1:]
    try:
        want = bytes(decrypt_block(g, KeyRecord(*record)))
    except MalformedRecordError:
        want = None
    try:
        got = decrypt_file(bytes([g]), KeyFile(2, record))
    except MalformedRecordError:
        got = None
    assert got == want


# 4 MiB + 1 byte: many chunks and a self-paired tail
WHOLE_FILE = np.random.default_rng(11).integers(0, 256, 4 * 2**20 + 1, dtype=np.uint8).tobytes()


def test_whole_file_encrypt_holds_its_outputs_plus_one_chunk():
    block_table()  # built once per process, not part of one call's cost
    (cipher, key), peak = traced_peak(encrypt_file, WHOLE_FILE)
    assert (len(cipher), key.plaintext_length) == (block_count(len(WHOLE_FILE)), len(WHOLE_FILE))
    assert peak < 3.5 * len(WHOLE_FILE)  # the outputs alone are 3x


def test_whole_file_decrypt_holds_its_output_plus_one_chunk():
    cipher, key = encrypt_file(WHOLE_FILE)
    plain, peak = traced_peak(decrypt_file, cipher, key)
    assert plain == WHOLE_FILE
    assert peak < 1.5 * len(WHOLE_FILE)


def test_whole_file_encrypt_stream_holds_chunk_sized_buffers():
    block_table()  # built once per process, not part of one call's cost
    with open(os.devnull, "wb") as ct, open(os.devnull, "wb") as key:
        total, peak = traced_peak(encrypt_stream, io.BytesIO(WHOLE_FILE), ct, key)
    assert total == len(WHOLE_FILE)
    assert peak < 2**20  # chunk-sized buffers, not file-sized ones
