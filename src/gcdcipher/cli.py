"""Command-line front end: encrypt, decrypt, audit, corpus, selftest."""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .analysis import AnalysisReport, analyze_file, keyfile_leakage_audit
from .block import MalformedRecordError, decrypt_block, encrypt_block, zero_weight
from .filecodec import (
    HEADER_SIZE,
    RECORD_SIZE,
    ConsistencyError,
    KeyFileFormatError,
    block_count,
    block_table,
    decrypt_stream,
    encrypt_stream,
    parse_key_file,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_CORRUPT = 3

CSV_COLUMNS = [
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

# golden block vectors: (plain pair, cipher byte, key record fields)
GOLDEN_VECTORS = [
    ((105, 110), 5, (150, 145, 21, 1, 1)),
    ((50, 100), 50, (205, 155, 1, 2, 0)),
]


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default 2 collides with format errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcdcipher",
        description="GCD-based bit-level block cipher: file codec and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="encrypt a file into a cipher file and a key file")
    p.add_argument("input", help="plaintext file to encrypt")
    p.add_argument("--ct", help="cipher output path (default: ct_<name> next to the input)")
    p.add_argument("--key", help="key output path (default: key_<name> next to the input)")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="recover the plaintext from a cipher file and its key file")
    p.add_argument("ct", help="cipher file")
    p.add_argument("key", help="key file")
    p.add_argument("--out", help="plaintext output path (default: pt_<name> from the cipher name)")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("audit", help="recover the plaintext from the key file alone")
    p.add_argument("key", help="key file")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("corpus", help="analyze every file in a directory and write a CSV report")
    p.add_argument("dir", help="directory of input files")
    p.add_argument("--csv", default="corpus_report.csv", help="CSV output path")
    p.add_argument("--jobs", type=int, default=1,
                   help="number of worker processes, at most one per file and per CPU")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("selftest", help="run the built-in correctness checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def _same_file(a: Path, b: Path) -> bool:
    if a.exists() and b.exists():
        return os.path.samefile(a, b)
    return a.resolve() == b.resolve()


def _refuse_clobber(inputs: list[Path], outputs: list[Path]) -> None:
    """Raise before anything is opened for writing if an output is the same
    file as an input or as another output."""
    for i, out in enumerate(outputs):
        for other in inputs + outputs[:i]:
            if _same_file(out, other):
                raise OSError(f"refusing to write {out}: it is the same file as {other}")


def cmd_encrypt(args) -> int:
    src_path = Path(args.input)
    ct_path = Path(args.ct) if args.ct else src_path.with_name("ct_" + src_path.name)
    key_path = Path(args.key) if args.key else src_path.with_name("key_" + src_path.name)
    _refuse_clobber([src_path], [ct_path, key_path])
    start = time.perf_counter()
    with open(src_path, "rb") as src:
        try:
            with open(ct_path, "wb") as ct, open(key_path, "wb") as key:
                length = encrypt_stream(src, ct, key)
        except BaseException:
            # never leave partial outputs behind
            ct_path.unlink(missing_ok=True)
            key_path.unlink(missing_ok=True)
            raise
    elapsed = time.perf_counter() - start
    blocks = block_count(length)
    print(
        f"{src_path} ({length} bytes) -> {ct_path} ({blocks} bytes) "
        f"+ {key_path} ({HEADER_SIZE + blocks * RECORD_SIZE} bytes) in {elapsed:.3f} s"
    )
    return EXIT_OK


def cmd_decrypt(args) -> int:
    ct_path = Path(args.ct)
    key_path = Path(args.key)
    if args.out:
        out_path = Path(args.out)
    else:
        name = ct_path.name
        if name.startswith("ct_"):
            name = name[3:]
        out_path = ct_path.with_name("pt_" + name)
    _refuse_clobber([ct_path, key_path], [out_path])
    start = time.perf_counter()
    with open(ct_path, "rb") as ct, open(key_path, "rb") as key:
        try:
            with open(out_path, "wb") as out:
                length = decrypt_stream(ct, key, out)
        except BaseException:
            out_path.unlink(missing_ok=True)
            raise
    elapsed = time.perf_counter() - start
    print(f"{ct_path} + {key_path} -> {out_path} ({length} bytes) in {elapsed:.3f} s")
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.out:
        _refuse_clobber([Path(args.key)], [Path(args.out)])
    key = parse_key_file(Path(args.key).read_bytes())
    recovered = keyfile_leakage_audit(key)
    print(
        "warning: the key file leaks the plaintext; its zero-weight fields are "
        "bitwise complements of the plaintext bytes",
        file=sys.stderr,
    )
    if args.out:
        Path(args.out).write_bytes(recovered)
        print(f"recovered {len(recovered)} bytes from {args.key} -> {args.out}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(recovered)
        sys.stdout.buffer.flush()
    return EXIT_OK


def _corpus_entry(path: Path) -> tuple[str, AnalysisReport | None, str | None]:
    """Analyze one file; failures are reported, not raised, so a batch survives."""
    try:
        report = analyze_file(path.read_bytes())
        return path.name, report, None
    except Exception as exc:
        return path.name, None, str(exc)


def _corpus_row(name: str, report: AnalysisReport | None) -> list[str]:
    if report is None:
        return [name] + [""] * (len(CSV_COLUMNS) - 1)
    return [
        name,
        str(report.source_size),
        str(report.cipher_size),
        f"{report.encrypt_time:.3f}",
        f"{report.decrypt_time:.3f}",
        f"{report.chi_square:.2f}",
        str(report.degrees_of_freedom),
        f"{report.avalanche_percent:.2f}",
        f"{report.compression_percent:.1f}",
    ]


def cmd_corpus(args) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    files = sorted(p for p in directory.iterdir() if p.is_file())
    _refuse_clobber(files, [Path(args.csv)])
    # a worker beyond the files or the CPUs would only start and sit idle
    jobs = min(args.jobs, len(files), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_corpus_entry, files))
    else:
        results = [_corpus_entry(p) for p in files]

    failures = 0
    with open(args.csv, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for name, report, error in results:
            writer.writerow(_corpus_row(name, report))
            if error is not None:
                failures += 1
                print(f"error: {name}: {error}", file=sys.stderr)
    print(f"{args.csv}: {len(results)} rows, {failures} failed")
    return EXIT_OK if failures == 0 else EXIT_IO


def cmd_selftest(args=None) -> int:
    failures: list[str] = []

    for (x, y), want_cipher, want_record in GOLDEN_VECTORS:
        cipher, record = encrypt_block(x, y)
        if cipher != want_cipher or tuple(record) != want_record:
            failures.append(
                f"golden vector ({x},{y}): got cipher {cipher}, key {tuple(record)}; "
                f"want {want_cipher}, {want_record}"
            )
        elif decrypt_block(cipher, record) != (x, y):
            failures.append(f"golden vector ({x},{y}): decrypt did not invert encrypt")
    print(f"golden vectors: {'OK' if not failures else 'FAIL'}")

    complement_bad = [x for x in range(256) if zero_weight(x) != 255 - x]
    if complement_bad:
        failures.append(f"complement identity fails first at x={complement_bad[0]}")
    print(f"complement identity: {256 - len(complement_bad)}/256 OK")

    ok = 0
    first_bad = None
    block_ciphers: list[int] = []
    block_records: list[int] = []
    for x in range(256):
        for y in range(256):
            cipher, record = encrypt_block(x, y)
            block_ciphers.append(cipher)
            block_records += record
            try:
                back = decrypt_block(cipher, record)
            except MalformedRecordError:
                back = None
            if back == (x, y):
                ok += 1
            elif first_bad is None:
                first_bad = (x, y, cipher, tuple(record), back)
    print(f"exhaustive round trip: {ok}/65536 blocks OK")
    if first_bad is not None:
        failures.append(f"round trip fails first at {first_bad}")

    # the encrypt command reads this table, not encrypt_block
    table_ciphers, table_records = block_table()
    table_ok = (table_ciphers.tobytes() == bytes(block_ciphers)
                and table_records.tobytes() == bytes(block_records))
    print(f"block table matches encrypt_block: {'OK' if table_ok else 'FAIL'}")
    if not table_ok:
        failures.append("block table disagrees with encrypt_block")

    if failures:
        print(f"selftest: FAIL ({failures[0]})")
        return EXIT_IO
    print("selftest: PASS")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedRecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (KeyFileFormatError, ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
