import io
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gcdcipher
from gcdcipher.block import encrypt_block
from gcdcipher.filecodec import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
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

TABLE_RECORD = bytes([150, 145, 21, 1, 1])


def header(length: int) -> bytes:
    return struct.pack(">4sBQ", MAGIC, VERSION, length)


def scalar_encrypt(data: bytes) -> tuple[bytes, bytes]:
    """Reference path: drive the scalar block ops pair by pair."""
    if len(data) % 2:
        data += data[-1:]
    cipher = bytearray()
    records = bytearray()
    for i in range(0, len(data), 2):
        g, rec = encrypt_block(data[i], data[i + 1])
        cipher.append(g)
        records += rec.to_bytes()
    return bytes(cipher), bytes(records)


def test_encrypt_file_golden_pair():
    cipher, key = encrypt_file(b"in")
    assert cipher == b"\x05"
    assert key.plaintext_length == 2
    assert key.record_bytes == TABLE_RECORD


def test_encrypt_file_empty():
    cipher, key = encrypt_file(b"")
    assert cipher == b""
    assert key.plaintext_length == 0
    assert key.record_count == 0
    assert key.to_bytes() == header(0)


def test_encrypt_file_odd_length():
    cipher, key = encrypt_file(bytes([50, 100, 7]))
    assert cipher == bytes([50, 7])
    assert key.plaintext_length == 3
    assert list(key.records()) == [(205, 155, 1, 2, 0), (248, 248, 1, 1, 0)]
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
    """The numpy chunk codec must agree with the scalar ops byte for byte."""
    import random

    rng = random.Random(1234)
    for length in [1, 2, 3, 64, 255, 1024, 4097]:
        data = rng.randbytes(length)
        cipher, key = encrypt_file(data)
        ref_cipher, ref_records = scalar_encrypt(data)
        assert cipher == ref_cipher
        assert key.record_bytes == ref_records


@pytest.mark.parametrize("length", [15, 16, 17, 33, 1001])
def test_encrypt_file_gathers_across_chunks(monkeypatch, length):
    """An in-memory file is gathered chunk by chunk; no block is lost at a seam."""
    import random

    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = random.Random(length).randbytes(length)
    cipher, key = encrypt_file(data)
    assert (cipher, key.record_bytes) == scalar_encrypt(data)


@pytest.mark.parametrize("length", [15, 16, 17, 33, 1001])
def test_decrypt_file_reconstructs_across_chunks(monkeypatch, length):
    """An in-memory file is decoded chunk by chunk; no block is lost at a seam."""
    import random

    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = random.Random(length).randbytes(length)
    assert decrypt_file(*encrypt_file(data)) == data


def test_decrypt_file_reports_global_index_of_corrupt_record_in_third_chunk(monkeypatch):
    import random

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
    ciphers, records = bytearray(), bytearray()
    for a in range(256):
        for b in range(256):
            g, rec = encrypt_block(a, b)
            ciphers.append(g)
            records += rec.to_bytes()
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
    assert key.record(0) == (150, 145, 21, 1, 1)
    assert key.record(1) == (205, 155, 1, 2, 0)
    assert key.record(2) == (255, 255, 0, 0, 0)


def test_parse_key_file_single_record():
    key = parse_key_file(header(2) + TABLE_RECORD)
    assert key.plaintext_length == 2
    assert key.record_count == 1
    assert key.record(0) == (150, 145, 21, 1, 1)


def test_parse_key_file_header_only():
    key = parse_key_file(header(0))
    assert key.plaintext_length == 0
    assert key.record_count == 0


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
    with pytest.raises(ValueError):
        KeyFile(2, b"")
    with pytest.raises(ValueError):
        KeyFile(0, TABLE_RECORD)


def test_key_file_record_index_bounds():
    key = KeyFile(2, TABLE_RECORD)
    with pytest.raises(IndexError):
        key.record(1)


def test_decrypt_file_count_mismatch():
    with pytest.raises(ConsistencyError):
        decrypt_file(b"\x05\x05", KeyFile(2, TABLE_RECORD))


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


def test_encrypt_stream_matches_encrypt_file(monkeypatch):
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = bytes(range(256)) * 4 + b"\x2a"  # odd, spans many chunks
    ct, key_out = io.BytesIO(), io.BytesIO()
    assert encrypt_stream(io.BytesIO(data), ct, key_out) == len(data)
    cipher, key = encrypt_file(data)
    assert ct.getvalue() == cipher
    assert key_out.getvalue() == key.to_bytes()


def test_decrypt_stream_matches_decrypt_file(monkeypatch):
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = b"\x00\xffgcd stream" * 37 + b"!"
    cipher, key = encrypt_file(data)
    out = io.BytesIO()
    n = decrypt_stream(io.BytesIO(cipher), io.BytesIO(key.to_bytes()), out)
    assert n == len(data)
    assert out.getvalue() == data


def test_stream_round_trip_across_real_chunk_boundary():
    import random

    data = random.Random(7).randbytes(150_001)  # > 2 chunks, odd
    ct, key_out = io.BytesIO(), io.BytesIO()
    encrypt_stream(io.BytesIO(data), ct, key_out)
    out = io.BytesIO()
    ct.seek(0)
    key_out.seek(0)
    decrypt_stream(ct, key_out, out)
    assert out.getvalue() == data


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
