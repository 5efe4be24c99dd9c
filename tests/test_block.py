import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcdcipher.block import (
    KeyRecord,
    MalformedRecordError,
    decrypt_block,
    encrypt_block,
    gcd,
    zero_weight,
)

byte_values = st.integers(min_value=0, max_value=255)


def brute_force_gcd(a: int, b: int) -> int:
    """Independent oracle: scan for the largest common divisor."""
    if a == 0 and b == 0:
        return 0
    return max(d for d in range(1, 256) if a % d == 0 and b % d == 0)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (105, 110, 5),
        (50, 100, 50),
        (0, 0, 0),
        (14, 12, 2),
        (0, 7, 7),
        (7, 0, 7),
    ],
)
def test_gcd_examples(a, b, expected):
    assert gcd(a, b) == expected


@given(byte_values, byte_values)
def test_gcd_matches_divisor_scan(a, b):
    assert gcd(a, b) == brute_force_gcd(a, b)


@pytest.mark.parametrize(
    "x,expected",
    [
        (105, 150),
        (50, 205),
        (255, 0),
        (0, 255),
    ],
)
def test_zero_weight_examples(x, expected):
    assert zero_weight(x) == expected


def test_zero_weight_complement_identity():
    for x in range(256):
        assert zero_weight(x) == 255 - x


def test_zero_weight_rejects_out_of_range():
    with pytest.raises(ValueError):
        zero_weight(256)
    with pytest.raises(ValueError):
        zero_weight(-1)


@pytest.mark.parametrize(
    "x, outcome",
    [(np.uint8(200), 55), (True, 254), (255.0, TypeError), (256, ValueError), (-1, ValueError)],
    ids=["numpy-uint8", "bool", "float", "256", "-1"],
)
def test_zero_weight_keeps_its_input_contract(x, outcome):
    # any integer byte gives a Python int; a float is no index, and a value
    # outside 0..255 is refused, not read from either end of a table
    if isinstance(outcome, int):
        assert type(zero_weight(x)) is int and zero_weight(x) == outcome
    else:
        with pytest.raises(outcome):
            zero_weight(x)


def test_encrypt_block_golden_vector():
    cipher, record = encrypt_block(105, 110)
    assert cipher == 5
    assert record == KeyRecord(150, 145, 21, 1, 1)


def test_encrypt_block_worked_example():
    cipher, record = encrypt_block(50, 100)
    assert cipher == 50
    assert record == KeyRecord(205, 155, 1, 2, 0)


def test_encrypt_block_zero_block():
    assert encrypt_block(0, 0) == (0, KeyRecord(255, 255, 0, 0, 0))


def test_encrypt_block_rejects_out_of_range():
    with pytest.raises(ValueError):
        encrypt_block(256, 0)
    with pytest.raises(ValueError):
        encrypt_block(0, -1)


def test_decrypt_block_golden_vector():
    # 21 * 5 = 105 and (21 * 1 + 1) * 5 = 110
    assert decrypt_block(5, KeyRecord(150, 145, 21, 1, 1)) == (105, 110)


def test_decrypt_block_worked_example():
    assert decrypt_block(50, KeyRecord(205, 155, 1, 2, 0)) == (50, 100)


def test_decrypt_block_zero_block():
    assert decrypt_block(0, KeyRecord(255, 255, 0, 0, 0)) == (0, 0)
    # rp_first 0 rebuilds (0, 0) from any cipher, so only the byte check refuses 256
    with pytest.raises(ValueError, match="byte value out of range: 256"):
        decrypt_block(256, KeyRecord(255, 255, 0, 0, 0))


def test_exhaustive_round_trip_and_invariants():
    """Every 16-bit block inverts exactly and satisfies the key invariants."""
    for a in range(256):
        for b in range(256):
            cipher, rec = encrypt_block(a, b)
            assert decrypt_block(cipher, rec) == (a, b)
            # reconstruction formulas hold verbatim
            assert rec.rp_first * cipher == a
            assert (rec.rp_first * rec.quotient + rec.remainder) * cipher == b
            if rec.rp_first > 0:
                assert rec.remainder < rec.rp_first
            assert all(0 <= field <= 255 for field in rec)


@given(byte_values, byte_values)
def test_cipher_divides_both_inputs(a, b):
    cipher, _ = encrypt_block(a, b)
    if cipher == 0:
        assert a == 0 and b == 0
    else:
        assert a % cipher == 0
        assert b % cipher == 0


def test_zero_weights_match_complements():
    for a in range(0, 256, 17):
        for b in range(0, 256, 13):
            _, rec = encrypt_block(a, b)
            assert rec.zero_weight_first == 255 - a
            assert rec.zero_weight_second == 255 - b


def test_decrypt_block_rejects_first_product_overflow():
    # 6 * 50 = 300: no genuine record pairs rp_first 6 with cipher 50
    with pytest.raises(MalformedRecordError):
        decrypt_block(50, KeyRecord(0, 0, 6, 0, 0))


def test_decrypt_block_rejects_second_product_overflow():
    # (21 * 13 + 0) * 5 = 1365
    with pytest.raises(MalformedRecordError):
        decrypt_block(5, KeyRecord(150, 145, 21, 13, 0))


def test_decrypt_block_rejects_negative_reconstruction():
    with pytest.raises(MalformedRecordError):
        decrypt_block(5, KeyRecord(150, 145, -2, 0, 0))


def test_decrypt_block_returns_the_complement_its_arithmetic_rebuilds():
    assert decrypt_block(5, KeyRecord(150, 145, 21, 1, 1)) == (105, 110)
    # damage confined to a zero-weight field: the arithmetic still gives (105, 110)
    with pytest.raises(MalformedRecordError):
        decrypt_block(5, KeyRecord(151, 145, 21, 1, 1))
    with pytest.raises(MalformedRecordError):
        decrypt_block(5, KeyRecord(150, 144, 21, 1, 1))
    # a zero-weight field outside 0..255 has no byte for a complement
    with pytest.raises(MalformedRecordError):
        decrypt_block(1, KeyRecord(256, 255, -1, 0, 0))  # rebuilds (-1, 0), its own complement


def test_key_record_bytes_round_trip():
    rec = KeyRecord(150, 145, 21, 1, 1)
    raw = bytes(rec)
    assert raw == bytes([150, 145, 21, 1, 1])
    assert KeyRecord(*raw) == rec
