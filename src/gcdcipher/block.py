"""Per-block arithmetic for the GCD block cipher.

A block is two consecutive plaintext bytes (a, b). The cipher byte is
gcd(a, b), and the 40-bit key record stores everything needed to undo it:
the zero-bit weight sums of both bytes, the remaining product of the first
byte (a divided by the gcd), and the quotient and remainder of dividing
the second byte's remaining product by the first's.

All operations are pure functions; the one shared value is a read-only table.
"""

from __future__ import annotations

from math import gcd  # gcd(0, x) = x and gcd(0, 0) = 0, as the scheme needs
from typing import NamedTuple

RECORD_SIZE = 5

# positional weights of an 8-bit value, most significant first
BIT_WEIGHTS = (128, 64, 32, 16, 8, 4, 2, 1)


class MalformedRecordError(ValueError):
    """A key record's gcd arithmetic does not rebuild its zero-weight complement."""


class KeyRecord(NamedTuple):
    """The five one-byte fields of a per-block key, in wire order."""

    zero_weight_first: int
    zero_weight_second: int
    rp_first: int
    quotient: int
    remainder: int


# zero_weight of every byte, summed from its bits once at import: identically
# 255 - x, so the identity stays a testable property rather than the definition
_ZERO_WEIGHTS = tuple(sum(w for w in BIT_WEIGHTS if not x & w) for x in range(256))


def zero_weight(x: int) -> int:
    """Sum of the positional weights at which a byte has a zero bit.

    Read from a 256-entry table of Python ints summed from the bits; the
    range check comes first, so -1 is refused, not read from the table's end.
    """
    _check_byte(x)
    return _ZERO_WEIGHTS[x]


def encrypt_block(first: int, second: int) -> tuple[int, KeyRecord]:
    """Encrypt one two-byte block; returns the cipher byte and its key record."""
    _check_byte(first)
    _check_byte(second)
    cipher = gcd(first, second)
    if cipher:
        rp_first = first // cipher
        rp_second = second // cipher
    else:
        # all-zero block: gcd is 0 by convention, both remaining products too
        rp_first = rp_second = 0
    if rp_first:
        quotient, remainder = divmod(rp_second, rp_first)
    else:
        # first byte is 0: dividing by its remaining product is undefined,
        # so park the second remaining product in the remainder field
        quotient, remainder = 0, rp_second
    record = KeyRecord(zero_weight(first), zero_weight(second), rp_first, quotient, remainder)
    return cipher, record


def decrypt_block(cipher: int, record: KeyRecord) -> tuple[int, int]:
    """Invert encrypt_block: (255 - zero_weight_first, 255 - zero_weight_second),
    returned only when the gcd arithmetic rebuilds that pair and both lie in
    0..255, as for every record encrypt_block produces; else the key
    material was corrupted or forged."""
    _check_byte(cipher)
    zero_first, zero_second, rp_first, quotient, remainder = record
    first, second = rp_first * cipher, (rp_first * quotient + remainder) * cipher
    rebuilt = first == 255 - zero_first and second == 255 - zero_second
    if not (rebuilt and 0 <= first <= 255 and 0 <= second <= 255):
        raise MalformedRecordError(f"rebuilt ({first}, {second}), not the zero-weight complement")
    return first, second


def _check_byte(value: int) -> None:
    if not 0 <= value <= 255:
        raise ValueError(f"byte value out of range: {value}")
