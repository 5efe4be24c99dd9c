"""The definitions the tests pin every fast path to, each stated once.

The file encoder here drives the scalar ``block.encrypt_block`` pair by
pair, and the key header is restated from the wire format, not imported
from ``filecodec``, so neither shares code with what it checks.
"""

import functools
import struct
import tracemalloc

import numpy as np

from gcdcipher.block import encrypt_block

# every block once, in block_table order (a << 8 | b big-endian is the pair
# (a, b)): 131,072 bytes, more than one CHUNK_BLOCKS chunk
EVERY_BLOCK = np.arange(1 << 16, dtype=">u2").tobytes()


def header(length: int) -> bytes:
    """A key file's 13-byte header: magic, version 1, plaintext length."""
    return struct.pack(">4sBQ", b"GCDK", 1, length)


def scalar_encrypt(data: bytes) -> tuple[bytes, bytes]:
    """Cipher bytes and key records from encrypt_block, pair by pair; an odd
    tail is paired with itself."""
    if len(data) % 2:
        data += data[-1:]
    cipher = bytearray()
    records = bytearray()
    for i in range(0, len(data), 2):
        g, rec = encrypt_block(data[i], data[i + 1])
        cipher.append(g)
        records += bytes(rec)
    return bytes(cipher), bytes(records)


@functools.cache
def every_block_encrypted() -> tuple[bytes, bytes]:
    """scalar_encrypt(EVERY_BLOCK), built once per test run: a test that
    monkeypatches gcdcipher.block must not be the first to call it."""
    return scalar_encrypt(EVERY_BLOCK)


def traced_peak(fn, *args):
    """Result of fn(*args) and the most memory it held beyond what existed before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
