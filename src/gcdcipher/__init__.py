"""Bit-level block cipher built on per-block greatest common divisors.

Two consecutive plaintext bytes form a block; their gcd becomes the
cipher byte and a five-byte key record makes the step reversible. The
package provides the block and file codecs, the key-file wire format,
an evaluation harness (chi-square, avalanche, compression, timing), and
a leakage audit showing that the key file alone reveals the plaintext.
"""

from .analysis import (
    AnalysisReport,
    analyze_file,
    audit_stream,
    avalanche,
    chi_square,
    frequency_table,
    hamming_distance,
    keyfile_leakage_audit,
)
from .block import (
    RECORD_SIZE,
    KeyRecord,
    MalformedRecordError,
    decrypt_block,
    encrypt_block,
    zero_weight,
)
from .filecodec import (
    HEADER_SIZE,
    MAGIC,
    VERSION,
    ConsistencyError,
    CorruptRecordError,
    KeyFile,
    KeyFileFormatError,
    block_count,
    decrypt_file,
    decrypt_stream,
    encrypt_file,
    encrypt_stream,
    parse_key_file,
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
