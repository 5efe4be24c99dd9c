"""Bit-level block cipher built on per-block greatest common divisors.

Two consecutive plaintext bytes form a block; their gcd becomes the
cipher byte and a five-byte key record makes the step reversible. The
package provides the block and file codecs, the key-file wire format,
an evaluation harness (chi-square, avalanche, compression, timing), and
a leakage audit showing that the key file alone reveals the plaintext.

Importing the package loads only the pure-Python ``block`` module. The
``filecodec`` and ``analysis`` names load numpy, so each is imported from
its module on first use.
"""

import importlib

from .block import (
    RECORD_SIZE,
    KeyRecord,
    MalformedRecordError,
    decrypt_block,
    encrypt_block,
    zero_weight,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ConsistencyError",
    "CorruptRecordError",
    "HEADER_SIZE",
    "KeyFile",
    "KeyFileFormatError",
    "KeyRecord",
    "MAGIC",
    "MalformedRecordError",
    "RECORD_SIZE",
    "VERSION",
    "analyze_file",
    "audit_stream",
    "avalanche",
    "block_count",
    "chi_square",
    "decrypt_block",
    "decrypt_file",
    "decrypt_stream",
    "encrypt_block",
    "encrypt_file",
    "encrypt_stream",
    "frequency_table",
    "hamming_distance",
    "keyfile_leakage_audit",
    "parse_key_file",
    "zero_weight",
]

# the module of each name that is imported on first use
_LAZY = dict.fromkeys(
    ["AnalysisReport", "analyze_file", "audit_stream", "avalanche", "chi_square",
     "frequency_table", "hamming_distance", "keyfile_leakage_audit"],
    "analysis",
) | dict.fromkeys(
    ["HEADER_SIZE", "MAGIC", "VERSION", "ConsistencyError", "CorruptRecordError", "KeyFile",
     "KeyFileFormatError", "block_count", "decrypt_file", "decrypt_stream", "encrypt_file",
     "encrypt_stream", "parse_key_file"],
    "filecodec",
)


def __getattr__(name):
    # not cached: a name rebound in its module (a test's monkeypatch, a
    # tracing wrapper) reads the same through the package
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
