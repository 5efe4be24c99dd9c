import dataclasses
import io
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcdcipher import analysis
from gcdcipher.analysis import (
    analyze_file,
    audit_stream,
    avalanche,
    chi_square,
    frequency_table,
    hamming_distance,
    keyfile_leakage_audit,
)
from gcdcipher.filecodec import (
    CorruptRecordError,
    KeyFile,
    KeyFileFormatError,
    block_table,
    decrypt_file,
    decrypt_stream,
    encrypt_file,
)

from chunk_loops import SEAM_LENGTHS, assert_exact_at_seam
from oracles import EVERY_BLOCK, avalanche_oracle, every_block_encrypted, traced_peak


def table(**counts) -> np.ndarray:
    out = np.zeros(256, dtype=np.int64)
    for char, count in counts.items():
        out[ord(char)] = count
    return out


def test_frequency_table_counts_bytes():
    counts = frequency_table(b"aab\x00")
    assert counts[ord("a")] == 2
    assert counts[ord("b")] == 1
    assert counts[0] == 1
    assert counts.sum() == 4


def test_frequency_table_empty():
    assert frequency_table(b"").sum() == 0


def test_chi_square_hand_example():
    # (1-2)^2/2 + (3-2)^2/2 = 1.0 over two classes
    statistic, dof = chi_square(table(A=2, B=2), table(A=1, B=3))
    assert statistic == pytest.approx(1.0, rel=1e-12)
    assert dof == 1


def test_chi_square_identical_tables():
    counts = frequency_table(bytes(range(256)) * 3)
    statistic, dof = chi_square(counts, counts)
    assert statistic == 0.0
    assert dof == 255


def test_chi_square_all_classes_present():
    source = np.ones(256, dtype=np.int64)
    _, dof = chi_square(source, source * 2)
    assert dof == 255


def test_chi_square_ignores_classes_absent_from_source():
    # mass on a class the source never had does not enter the sum
    statistic, dof = chi_square(table(A=2), table(A=2, B=5))
    assert statistic == 0.0
    assert dof == 0


def test_chi_square_empty_source():
    with pytest.raises(ValueError):
        chi_square(np.zeros(256), frequency_table(b"x"))


def test_chi_square_shape_mismatch():
    with pytest.raises(ValueError):
        chi_square(np.ones(256), np.ones(255))


@given(st.lists(st.integers(0, 50), min_size=256, max_size=256), st.randoms())
def test_chi_square_invariant_under_label_permutation(source, rng):
    source = np.array(source, dtype=np.int64)
    if not source.any():
        source[0] = 1
    encrypted = source[::-1].copy()
    perm = list(range(256))
    rng.shuffle(perm)
    base_stat, base_dof = chi_square(source, encrypted)
    perm_stat, perm_dof = chi_square(source[perm], encrypted[perm])
    assert perm_stat == pytest.approx(base_stat, rel=1e-12)
    assert perm_dof == base_dof


def test_hamming_distance():
    assert hamming_distance(b"", b"") == 0
    assert hamming_distance(b"\x00", b"\xff") == 8
    assert hamming_distance(b"\x0f\xf0", b"\x0f\xf0") == 0
    assert hamming_distance(b"\x01\x02", b"\x03\x02") == 1
    assert hamming_distance(bytes(1001), b"\xff" * 1001) == 8008  # every word full
    with pytest.raises(ValueError):
        hamming_distance(b"ab", b"a")


def test_hamming_distance_compares_byte_lengths():
    words = np.array([0, 0xFFFF], dtype=np.uint64)
    assert hamming_distance(words, bytes(16)) == 16
    assert hamming_distance(words, words.tobytes()) == 0
    assert hamming_distance(words, words.view(np.uint8)) == 0
    # equal element counts, unequal byte counts
    with pytest.raises(ValueError, match="length mismatch"):
        hamming_distance(words, np.zeros(2, dtype=np.uint8))


@given(st.data())
def test_hamming_distance_matches_bit_count(data):
    a = data.draw(st.binary(max_size=100))
    b = data.draw(st.binary(min_size=len(a), max_size=len(a)))
    assert hamming_distance(a, b) == sum((x ^ y).bit_count() for x, y in zip(a, b))


def test_output_table_packs_the_block_table_exhaustively():
    table = analysis._output_table()
    ciphers, records = block_table()
    assert table.shape == (1 << 16,) and table.dtype == np.uint64
    rows = table.view(np.uint8).reshape(-1, 8)
    assert np.array_equal(rows[:, 0], ciphers)
    assert np.array_equal(rows[:, 1:6], records)
    assert not rows[:, 6:].any()  # the pad bytes, which must XOR to 0
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 1
    assert analysis._output_table() is table  # built once, shared by every caller


def test_avalanche_equals_two_encryptions_for_every_block_and_mask():
    """Mask m sends block i to block i ^ (m << 8 | m), so the flipped input's
    outputs are the scalar outputs of every block, permuted."""
    cipher, records = every_block_encrypted()
    outputs = np.column_stack((np.frombuffer(cipher, np.uint8),
                               np.frombuffer(records, np.uint8).reshape(-1, 5)))
    blocks = np.arange(1 << 16)
    for mask in range(256):
        changed = np.unpackbits(outputs ^ outputs.take(blocks ^ (mask << 8 | mask), axis=0)).sum()
        assert avalanche(EVERY_BLOCK, flip_mask=mask) == 100.0 * int(changed) / (8 * outputs.size)


def test_analysis_encrypts_each_chunk_once(monkeypatch):
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    calls = []

    def recording_encrypt_file(plaintext):
        calls.append(len(plaintext))
        return encrypt_file(plaintext)

    monkeypatch.setattr("gcdcipher.analysis.encrypt_file", recording_encrypt_file)
    data = random.Random(5).randbytes(5 * 16 - 1)  # five 16-byte chunks, the last one odd
    avalanche(data)
    assert calls == []
    analyze_file(data)
    assert calls == [16, 16, 16, 16, 15]


def test_analyze_file_round_trip_mismatch_raises(monkeypatch):
    monkeypatch.setattr("gcdcipher.analysis.decrypt_file", lambda cipher, key: b"\x00" * 4)
    with pytest.raises(RuntimeError, match="round-trip mismatch"):
        analyze_file(b"abcd")


def test_avalanche_golden_pair():
    # flipping weight-8 bits turns (105,110) into (97,102); 8 of the 48
    # cipher-plus-record bits differ
    assert avalanche(bytes([105, 110])) == pytest.approx(100 * 8 / 48, rel=1e-12)
    assert avalanche(bytes([105, 110])) == pytest.approx(
        avalanche_oracle(bytes([105, 110]), 0x08), rel=1e-12
    )


@given(st.binary(min_size=1, max_size=512))
def test_avalanche_matches_scalar_oracle(data):
    assert avalanche(data) == pytest.approx(avalanche_oracle(data, 0x08), rel=1e-12)


@pytest.mark.parametrize("mask", [0x00, 0x01, 0x08, 0xFF])
@pytest.mark.parametrize("length", [1, 2, 3, 1001, 4096])
def test_avalanche_equals_two_encryption_definition(length, mask):
    data = random.Random(length).randbytes(length)
    assert avalanche(data, flip_mask=mask) == avalanche_oracle(data, mask)
    # a numpy integer mask is the same mask, though it shifts within 8 bits
    assert avalanche(data, flip_mask=np.uint8(mask)) == avalanche_oracle(data, mask)


def test_avalanche_no_flip_is_zero():
    assert avalanche(b"anything at all", flip_mask=0) == 0.0


@given(st.binary(min_size=1, max_size=2048))
def test_avalanche_bounded(data):
    assert 0.0 <= avalanche(data) <= 100.0


def test_avalanche_deterministic():
    data = bytes(range(256)) * 5
    assert avalanche(data) == avalanche(data)


def test_avalanche_empty_rejected():
    with pytest.raises(ValueError):
        avalanche(b"")
    for mask in (256, -1):  # nor is it defined for a mask that is not one byte
        with pytest.raises(ValueError, match="flip mask out of range"):
            avalanche(b"ab", flip_mask=mask)


def test_leakage_audit_golden_record():
    key = KeyFile(2, bytes([150, 145, 21, 1, 1]))
    assert keyfile_leakage_audit(key) == bytes([105, 110])


def test_leakage_audit_empty_key():
    assert keyfile_leakage_audit(KeyFile(0, b"")) == b""


def test_leakage_audit_odd_length():
    _, key = encrypt_file(bytes([50, 100, 7]))
    assert keyfile_leakage_audit(key) == bytes([50, 100, 7])


def test_leakage_audit_refuses_an_even_length_edited_to_odd():
    # the in-memory audit refuses the key decrypt_file refuses, naming the same block
    cipher, key = encrypt_file(b"hello!")
    edited = KeyFile(5, key.record_bytes)
    for recover in (keyfile_leakage_audit, lambda k: decrypt_file(cipher, k)):
        with pytest.raises(CorruptRecordError, match="not self-paired") as excinfo:
            recover(edited)
        assert excinfo.value.block_index == 2


@given(st.binary(max_size=4096))
def test_leakage_audit_recovers_any_plaintext(data):
    _, key = encrypt_file(data)
    assert keyfile_leakage_audit(key) == data


def test_analyze_file_two_bytes():
    report = analyze_file(b"in")
    assert report.source_size == 2
    assert report.cipher_size == 1
    assert report.compression_percent == 50.0
    assert report.encrypt_time >= 0.0
    assert report.decrypt_time >= 0.0


def test_analyze_file_odd_length():
    report = analyze_file(b"abc")
    assert report.cipher_size == 2
    assert report.compression_percent == pytest.approx(100 * (1 - 2 / 3))


def test_analyze_file_even_length_is_exactly_half():
    report = analyze_file(bytes(range(256)))
    assert report.compression_percent == 50.0
    assert 0.0 <= report.avalanche_percent <= 100.0
    assert report.degrees_of_freedom == 255


def test_analyze_file_empty_rejected():
    with pytest.raises(ValueError):
        analyze_file(b"")


@pytest.mark.parametrize("mask", [0x00, 0x01, 0x08, 0xFF])
@pytest.mark.parametrize("length", SEAM_LENGTHS)
def test_avalanche_is_exact_across_chunk_seams(length, mask):
    assert_exact_at_seam("avalanche", length, mask)


@pytest.mark.parametrize("length", SEAM_LENGTHS)
def test_analyze_file_is_exact_across_chunk_seams(length):
    assert_exact_at_seam("analyze_file", length)


@pytest.mark.parametrize("length", [1, 2, 33, 48, 97])
def test_ranges_at_even_offsets_add_up_to_the_whole_file(length):
    """Split anywhere even, down to one block a range, the parts give the whole
    file's report: the changed-bit counts are integers, not averaged percentages."""
    data = random.Random(3000 + length).randbytes(length)
    untimed = lambda report: dataclasses.replace(report, encrypt_time=0.0, decrypt_time=0.0)
    whole = untimed(analyze_file(data))
    view = memoryview(data)
    for step in (2, 6, 16, 32):
        parts = [analysis._analyze_range(view[i : i + step]) for i in range(0, length, step)]
        assert untimed(analysis._report(parts)) == whole
    assert whole.avalanche_percent == avalanche(data)


def test_analyze_file_memory_does_not_grow_with_the_file():
    """Beyond the input itself, analysis holds a few chunks, not copies of the file."""
    data = np.random.default_rng(8).integers(0, 256, 8 << 20, dtype=np.uint8).tobytes()
    # both tables are built once per process; not part of any one analysis
    block_table()
    analysis._output_table()
    _, peak = traced_peak(analyze_file, data)
    assert peak < len(data) // 8


@pytest.mark.parametrize("length", [1, 100, 1100])
@pytest.mark.parametrize("run", [avalanche, encrypt_file, analyze_file])
def test_sub_chunk_inputs_get_sub_chunk_buffers(run, length):
    """The chunk loops size their buffers to the first chunk, not to CHUNK_BLOCKS."""
    data = random.Random(length).randbytes(length)
    block_table()
    analysis._output_table()
    _, peak = traced_peak(run, data)
    # full-chunk buffers take 199-536 KB here; these inputs need at most 21 KB
    assert peak < 64 << 10


@pytest.mark.parametrize("length", SEAM_LENGTHS)
def test_audit_stream_equals_the_whole_key_audit(length):
    assert_exact_at_seam("audit_stream", length)


def test_audit_stream_names_the_block_where_the_payload_ends(monkeypatch):
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = random.Random(41).randbytes(41)  # 21 blocks: chunks of 8, 8 and 5
    cipher, key = encrypt_file(data)
    damaged = key.to_bytes()[: -5 * 10 + 2]
    # decryption reads the same payload: one message, one point of failure
    for recover in (audit_stream, lambda k, o: decrypt_stream(io.BytesIO(cipher), k, o)):
        out = io.BytesIO()
        with pytest.raises(KeyFileFormatError, match="near block 11"):
            recover(io.BytesIO(damaged), out)
        assert out.getvalue() == data[:16]  # the first chunk, written before the fault


def test_audit_stream_refuses_an_even_length_edited_to_odd(monkeypatch):
    """The last chunk's one block is named by its global index, as decrypt names it."""
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    _, key = encrypt_file(bytes(range(34)))
    edited = KeyFile(33, key.record_bytes).to_bytes()
    with pytest.raises(CorruptRecordError) as excinfo:
        audit_stream(io.BytesIO(edited), io.BytesIO())
    assert excinfo.value.block_index == 16


def test_audit_stream_memory_does_not_grow_with_the_file(tmp_path):
    """Beyond the output file, the audit holds one chunk, not the key file."""
    data = np.random.default_rng(9).integers(0, 256, (8 << 20) * 2 // 5, dtype=np.uint8).tobytes()
    key_path, out_path = tmp_path / "key", tmp_path / "out"
    key_path.write_bytes(encrypt_file(data)[1].to_bytes())
    assert key_path.stat().st_size > 8 << 20
    with open(key_path, "rb") as key, open(out_path, "wb") as out:
        _, peak = traced_peak(audit_stream, key, out)
    assert out_path.read_bytes() == data
    assert peak < 2 << 20
