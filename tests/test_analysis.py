import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcdcipher.analysis import (
    analyze_file,
    avalanche,
    chi_square,
    frequency_table,
    hamming_distance,
    keyfile_leakage_audit,
)
from gcdcipher.block import encrypt_block
from gcdcipher.filecodec import KeyFile, block_table, encrypt_file


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


@given(st.data())
def test_hamming_distance_matches_bit_count(data):
    a = data.draw(st.binary(max_size=100))
    b = data.draw(st.binary(min_size=len(a), max_size=len(a)))
    assert hamming_distance(a, b) == sum((x ^ y).bit_count() for x, y in zip(a, b))


def avalanche_oracle(data: bytes, mask: int) -> float:
    """The definition, from the scalar block ops: encrypt the input and its
    flipped copy, then count the output bits that differ."""
    mutated = bytes(x ^ mask for x in data)

    def streams(p):
        if len(p) % 2:
            p += p[-1:]
        cipher, recs = bytearray(), bytearray()
        for i in range(0, len(p), 2):
            g, rec = encrypt_block(p[i], p[i + 1])
            cipher.append(g)
            recs += rec.to_bytes()
        return bytes(cipher) + bytes(recs)

    a, b = streams(data), streams(mutated)
    changed = sum((x ^ y).bit_count() for x, y in zip(a, b))
    return 100.0 * changed / (8 * len(a))


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


def test_leakage_audit_golden_record():
    key = KeyFile(2, bytes([150, 145, 21, 1, 1]))
    assert keyfile_leakage_audit(key) == bytes([105, 110])


def test_leakage_audit_empty_key():
    assert keyfile_leakage_audit(KeyFile(0, b"")) == b""


def test_leakage_audit_odd_length():
    _, key = encrypt_file(bytes([50, 100, 7]))
    assert keyfile_leakage_audit(key) == bytes([50, 100, 7])


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


SEAM_LENGTHS = [1, 15, 16, 17, 31, 47, 48, 49, 50]  # 16-byte chunks with CHUNK_BLOCKS 8


def scalar_cipher(data: bytes) -> bytes:
    if len(data) % 2:
        data += data[-1:]
    return bytes(encrypt_block(data[i], data[i + 1])[0] for i in range(0, len(data), 2))


def counter_table(data: bytes) -> np.ndarray:
    out = np.zeros(256, dtype=np.int64)
    for value, count in Counter(data).items():
        out[value] = count
    return out


@pytest.mark.parametrize("mask", [0x00, 0x01, 0x08, 0xFF])
@pytest.mark.parametrize("length", SEAM_LENGTHS)
def test_avalanche_is_exact_across_chunk_seams(monkeypatch, length, mask):
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = random.Random(length).randbytes(length)
    assert avalanche(data, flip_mask=mask) == avalanche_oracle(data, mask)


@pytest.mark.parametrize("length", SEAM_LENGTHS)
def test_analyze_file_is_exact_across_chunk_seams(monkeypatch, length):
    """Chunked analysis reports exactly what the whole-buffer definitions give."""
    monkeypatch.setattr("gcdcipher.filecodec.CHUNK_BLOCKS", 8)
    data = random.Random(1000 + length).randbytes(length)
    cipher = scalar_cipher(data)
    report = analyze_file(data)
    assert report.source_size == length
    assert report.cipher_size == len(cipher)
    assert (report.chi_square, report.degrees_of_freedom) == chi_square(
        counter_table(data), counter_table(cipher)
    )
    assert report.avalanche_percent == avalanche_oracle(data, 0x08)
    assert report.compression_percent == 100.0 * (1.0 - len(cipher) / length)


def test_analyze_file_memory_does_not_grow_with_the_file():
    """Beyond the input itself, analysis holds a few chunks, not copies of the file."""
    data = np.random.default_rng(8).integers(0, 256, 8 << 20, dtype=np.uint8).tobytes()
    block_table()  # built once per process; not part of any one analysis
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        analyze_file(data)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < len(data) // 8
