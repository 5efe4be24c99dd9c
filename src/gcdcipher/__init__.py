"""Bit-level block cipher built on per-block greatest common divisors.

Two consecutive plaintext bytes form a block; their gcd becomes the
cipher byte and a five-byte key record makes the step reversible. The
package provides the block and file codecs, the key-file wire format,
an evaluation harness (chi-square, avalanche, compression, timing), and
a leakage audit showing that the key file alone reveals the plaintext.

Importing the package loads only the pure-Python ``block`` module. The
``filecodec`` and ``analysis`` modules load numpy, so the module
``__getattr__`` serves the other names in ``__all__`` from them on first use.
"""

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


def __getattr__(name):
    # not cached: a name rebound in its module (a test's monkeypatch, a
    # tracing wrapper) reads the same through the package
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import filecodec
    if hasattr(filecodec, name):  # first: analysis re-binds four of its names
        return getattr(filecodec, name)
    from . import analysis
    return getattr(analysis, name)
