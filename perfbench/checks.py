"""Output checks. Every check is one attempted outcome; a failed one is counted
and described, so a run reports failed/attempted instead of stopping."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from inputs import InputFile

# the documented key-file layout, restated here so the checks do not
# depend on the constants of the code they check
KEY_HEADER = 13
RECORD_SIZE = 5
CORPUS_COLUMNS = [
    "file_name",
    "source_size_bytes",
    "cipher_size_bytes",
    "encrypt_time_s",
    "decrypt_time_s",
    "chi_square",
    "degrees_of_freedom",
    "avalanche_percent",
    "compression_percent",
]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def check_encrypt(tally: Tally, rc: int, source: InputFile, ct: Path, key: Path) -> bool:
    """Exit 0, size laws ceil(n/2) and 13 + 5*ceil(n/2), our own cipher bytes,
    and a key header naming the plaintext length."""
    blocks = (source.size + 1) // 2
    ok = (
        rc == 0
        and ct.is_file()
        and key.is_file()
        and ct.stat().st_size == blocks
        and key.stat().st_size == KEY_HEADER + RECORD_SIZE * blocks
        and ct.read_bytes() == source.cipher
        and _read_head(key, KEY_HEADER) == b"GCDK\x01" + source.size.to_bytes(8, "big")
    )
    return tally.record(ok, f"encrypt {source.path.name}: exit {rc} or wrong cipher/key output")


def check_plaintext(tally: Tally, rc: int, command: str, source: InputFile, out: Path) -> bool:
    """Exit 0 and an output byte-identical to the source file."""
    ok = (
        rc == 0
        and out.is_file()
        and out.stat().st_size == source.size
        and out.read_bytes() == source.path.read_bytes()
    )
    return tally.record(ok, f"{command} {source.path.name}: exit {rc} or output differs from input")


def check_selftest(tally: Tally, rc: int, stdout: str) -> bool:
    ok = rc == 0 and "selftest: PASS" in stdout
    return tally.record(ok, f"selftest: exit {rc} or no PASS line")


def check_corpus(tally: Tally, rc: int, report: Path, files: list[InputFile]) -> bool:
    """One outcome for the run (exit code, header, one row per file in name
    order), then one per row: complete, sizes, degrees of freedom and
    chi-square equal to our own numbers, percentages in range."""
    rows = list(csv.reader(report.open(newline=""))) if report.exists() else []
    names = [f.path.name for f in files]
    whole = (
        rc == 0
        and len(rows) == len(files) + 1
        and rows[0] == CORPUS_COLUMNS
        and [r[0] if r else None for r in rows[1:]] == names
    )
    ok = tally.record(whole, f"corpus: exit {rc} or report header/rows do not match the input files")
    by_name = {r[0]: r for r in rows[1:] if r}
    for f in files:
        ok &= tally.record(_row_ok(by_name.get(f.path.name), f), f"corpus row {f.path.name} wrong")
    return ok


def _row_ok(row: list[str] | None, f: InputFile) -> bool:
    if row is None or len(row) != len(CORPUS_COLUMNS) or not all(row):
        return False
    try:
        values = dict(zip(CORPUS_COLUMNS[1:], map(float, row[1:])))
    except ValueError:
        return False
    blocks = (f.size + 1) // 2
    return (
        values["source_size_bytes"] == f.size
        and values["cipher_size_bytes"] == blocks
        and values["degrees_of_freedom"] == f.degrees_of_freedom
        # the report rounds to 2 decimals
        and math.isclose(values["chi_square"], f.chi_square, rel_tol=1e-9, abs_tol=0.006)
        and 0.0 <= values["avalanche_percent"] <= 100.0
        and math.isclose(values["compression_percent"], 100.0 * (1 - blocks / f.size), abs_tol=0.06)
        and values["encrypt_time_s"] >= 0
        and values["decrypt_time_s"] >= 0
    )


def _read_head(path: Path, n: int) -> bytes:
    with path.open("rb") as handle:
        return handle.read(n)
