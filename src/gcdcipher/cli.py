"""Command-line front end: encrypt, decrypt, audit, corpus, selftest.

Status lines go to stderr, so an output written to ``/dev/stdout`` holds
its bytes and nothing else; only ``selftest`` reports on stdout. An output
that is the same file as an input or another output is refused before
anything is opened. A failed command removes each regular file it opened
for output, and never a path it did not open, a device, a pipe or a
symbolic link, such as ``/dev/stdout`` redirected to a file. A failed write
to stdout, or a closed stdout, is an error: exit 1 with one ``error:`` line.
``OPENBLAS_NUM_THREADS`` is set to 1 before numpy loads, unless already set.
A process started as the CLI freezes the heap its imports built (``gc.freeze``),
so no collection, at exit or in a forked ``corpus`` worker, walks it again.
``corpus`` works in ranges of 32 chunks, 2 MiB, of one file each: a large file
keeps every ``--jobs`` worker busy, and no process holds more of it than a range.
Ranges reach the workers through a window of four a worker, and each file's row
is written as its last range comes back, so the parent holds that window and the
sorted file listing, whatever the file count. A worker that dies is an error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import gc
import io
import itertools
import os
import struct
import sys
import time
from pathlib import Path

# numpy's bundled OpenBLAS starts a worker thread per extra CPU when it loads,
# and that thread spins for about 0.1 s of CPU, though the codec makes no BLAS
# call. A value the user set wins; corpus --jobs workers inherit this one.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import analysis, filecodec  # noqa: E402
from .block import MalformedRecordError, decrypt_block, encrypt_block, zero_weight
from .filecodec import (
    HEADER_SIZE,
    RECORD_SIZE,
    ConsistencyError,
    KeyFile,
    KeyFileFormatError,
    block_count,
    decrypt_file,
    decrypt_stream,
    encrypt_file,
    encrypt_stream,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_CORRUPT = 3

# the corpus report after its file_name column: (column, AnalysisReport field, format)
_REPORT_COLUMNS = [
    ("source_size_bytes", "source_size", ""),
    ("cipher_size_bytes", "cipher_size", ""),
    ("encrypt_time_s", "encrypt_time", ".3f"),
    ("decrypt_time_s", "decrypt_time", ".3f"),
    ("chi_square", "chi_square", ".2f"),
    ("degrees_of_freedom", "degrees_of_freedom", ""),
    ("avalanche_percent", "avalanche_percent", ".2f"),
    ("compression_percent", "compression_percent", ".1f"),
]
CSV_COLUMNS = ["file_name"] + [column for column, _, _ in _REPORT_COLUMNS]

# golden block vectors: (plain pair, (cipher byte, key record fields))
GOLDEN_VECTORS = [
    ((105, 110), (5, (150, 145, 21, 1, 1))),
    ((50, 100), (50, (205, 155, 1, 2, 0))),
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
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes, at least 1; no more than the 2 MiB ranges or the CPUs")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("selftest", help="run the built-in correctness checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _same_file(a: Path, b: Path) -> bool:
    if a.exists() and b.exists():
        return os.path.samefile(a, b)
    return a.resolve() == b.resolve()


@contextlib.contextmanager
def _outputs(inputs: list[Path], *paths: Path):
    """Refuse, open and on failure remove the output paths as the module
    docstring states; yields one binary write handle per path."""
    for i, out in enumerate(paths):
        for other in [*inputs, *paths[:i]]:
            if _same_file(out, other):
                raise OSError(f"refusing to write {out}: it is the same file as {other}")
    handles = []
    try:
        with contextlib.ExitStack() as stack:
            for path in paths:
                handles.append(stack.enter_context(open(path, "wb")))
            yield handles
    except BaseException:
        for path in paths[: len(handles)]:
            # is_file follows a link: /dev/stdout redirected to a file is one
            if path.is_file() and not path.is_symlink():
                path.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def _stdout(mode: str):
    # fd 1 as a one-handle list, closed in the command: a failed flush raises there, not at exit
    if sys.stdout is None:  # fd 1 was closed at start; an input may hold it now
        raise OSError("refusing to write stdout: it is closed")
    with open(1, mode, closefd=False) as out:
        yield [out]


def cmd_encrypt(args) -> int:
    src_path = Path(args.input)
    # parent / name, as with_name raises for "." and "/"; opening those as input fails first
    ct_path = Path(args.ct or src_path.parent / ("ct_" + src_path.name))
    key_path = Path(args.key or src_path.parent / ("key_" + src_path.name))
    start = time.perf_counter()
    with open(src_path, "rb") as src, _outputs([src_path], ct_path, key_path) as (ct, key):
        length = encrypt_stream(src, ct, key)
    elapsed = time.perf_counter() - start
    blocks = block_count(length)
    print(f"{src_path} ({length} bytes) -> {ct_path} ({blocks} bytes) + {key_path} "
          f"({HEADER_SIZE + blocks * RECORD_SIZE} bytes) in {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


def cmd_decrypt(args) -> int:
    ct_path, key_path = Path(args.ct), Path(args.key)
    out_path = Path(args.out or ct_path.parent / ("pt_" + ct_path.name.removeprefix("ct_")))
    start = time.perf_counter()
    with (open(ct_path, "rb") as ct, open(key_path, "rb") as key,
          _outputs([ct_path, key_path], out_path) as (out,)):
        length = decrypt_stream(ct, key, out)
    elapsed = time.perf_counter() - start
    print(f"{ct_path} + {key_path} -> {out_path} ({length} bytes) in {elapsed:.3f} s",
          file=sys.stderr)
    return EXIT_OK


def cmd_audit(args) -> int:
    key_path = Path(args.key)
    with (open(key_path, "rb") as key,
          _outputs([key_path], Path(args.out)) if args.out else _stdout("wb") as (out,)):
        length = analysis.audit_stream(key, out)
    print("warning: the key file leaks the plaintext; its zero-weight fields are "
          "bitwise complements of the plaintext bytes", file=sys.stderr)
    if args.out:
        print(f"recovered {length} bytes from {args.key} -> {args.out}", file=sys.stderr)
    return EXIT_OK


def _corpus_range(task: tuple[Path, int, int]) -> tuple[tuple | None, str | None]:
    """What bytes [start, stop) of a file add to its report, and the error;
    a failure is returned, not raised, so a batch survives."""
    path, start, stop = task
    try:
        with open(path, "rb") as handle:
            handle.seek(start)
            if len(data := handle.read(stop - start)) < stop - start:
                raise OSError(f"{path} shrank while it was analysed")
        return analysis._analyze_range(memoryview(data)), None
    except Exception as exc:
        return None, str(exc)


def _in_order(pool, tasks, window: int):
    """_corpus_range of each task, read back in task order, with no more
    than window tasks submitted and not yet read; a dead worker is an OSError."""
    from concurrent.futures.process import BrokenProcessPool

    pending = collections.deque()
    try:
        for task in tasks:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(_corpus_range, task))
        while pending:
            yield pending.popleft().result()
    except BrokenProcessPool as exc:  # say, one killed for memory
        raise OSError(f"a corpus worker process ended abruptly: {exc}") from exc


def cmd_corpus(args) -> int:
    # iterdir raises OSError for a missing directory or one that is a file
    files = sorted(p for p in Path(args.dir).iterdir() if p.is_file())
    csv_path = Path(args.csv)
    # each file's size and range starts; an empty file is one empty range,
    # refused as analyze_file refuses it
    step = 64 * filecodec.CHUNK_BLOCKS
    listing = [(p, size, range(0, size or 1, step)) for p in files for size in [p.stat().st_size]]
    tasks = ((p, start, min(start + step, size)) for p, size, starts in listing for start in starts)
    # opened first, so a refused or unopenable report stops the run before any
    # analysis. A file name that is not valid text is written back as its original bytes.
    with (_outputs(files, csv_path) as (raw,),
          io.TextIOWrapper(raw, newline="", errors="surrogateescape") as handle,
          contextlib.ExitStack() as stack):
        # a worker beyond the ranges or the CPUs would only start and sit idle
        jobs = min(args.jobs, sum(len(starts) for _, _, starts in listing), os.cpu_count() or 1)
        if jobs > 1:
            # imported here: the process pool's modules slow every command's start
            from concurrent.futures import ProcessPoolExecutor

            # Forked workers start at a submit: the first, when no row but the
            # header can sit in the report's buffer, or, where Python forks them
            # on demand, a later one. Either way multiprocessing ends each with
            # os._exit, so none flushes the buffered rows it inherited.
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            # four ranges a worker keep each busy while the parent writes rows;
            # no more results than that wait in the parent
            results = _in_order(pool, tasks, 4 * jobs)
        else:
            results = map(_corpus_range, tasks)

        failures = 0
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for path, _, starts in listing:
            # a row as soon as the file's last range is back; its parts go with it
            parts, errors = zip(*itertools.islice(results, len(starts)))
            errors = [e for e in errors if e is not None]  # the first is reported
            report = None if errors else analysis._report(parts)
            writer.writerow([path.name] + ["" if errors else format(getattr(report, field), spec)
                                           for _, field, spec in _REPORT_COLUMNS])
            if errors:
                failures += 1
                print(f"error: {path.name}: {errors[0]}", file=sys.stderr)
    print(f"{args.csv}: {len(files)} rows, {failures} failed", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_IO


def cmd_selftest(args=None) -> int:
    # one scalar pass: every block's outputs, and how many decrypt_block inverts
    block_ciphers, block_records = [], []  # every block's cipher byte, then its record bytes
    inverted = 0
    for x in range(256):
        for y in range(256):
            cipher, record = encrypt_block(x, y)
            block_ciphers.append(cipher)
            block_records += record
            try:
                inverted += decrypt_block(cipher, record) == (x, y)
            except MalformedRecordError:
                pass
    ciphers = bytes(block_ciphers)
    every_block = struct.pack(">65536H", *range(1 << 16))  # a << 8 | b big-endian is (a, b)
    key = KeyFile(len(every_block), bytes(block_records))
    # the encrypt and decrypt commands run these paths, not the scalar functions
    encrypt_ok = encrypt_file(every_block) == (ciphers, key)
    try:
        decrypt_ok = decrypt_file(ciphers, key) == every_block
    except MalformedRecordError:
        decrypt_ok = False
    complement = sum(zero_weight(x) == 255 - x for x in range(256))

    checks = [
        ("golden vectors:", all(encrypt_block(*pair) == want for pair, want in GOLDEN_VECTORS)),
        (f"complement identity: {complement}/256", complement == 256),
        (f"exhaustive round trip: {inverted}/65536 blocks", inverted == 1 << 16),
        ("block table matches encrypt_block:", encrypt_ok),
        ("decode kernel inverts encrypt_block:", decrypt_ok),
    ]
    failed = [label.rstrip(":") for label, ok in checks if not ok]
    with _stdout("w") as (out,):
        out.writelines(f"{label} {'OK' if ok else 'FAIL'}\n" for label, ok in checks)
        print(f"selftest: FAIL ({'; '.join(failed)})" if failed else "selftest: PASS", file=out)
    return EXIT_IO if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # run as the program: the modules, classes and functions the imports
        # built live until exit, so move them out of every later collection,
        # interpreter shutdown's included. Never in-process: a caller's frozen
        # garbage would never be collected.
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MalformedRecordError, KeyFileFormatError, ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MalformedRecordError):
            return EXIT_CORRUPT
        return EXIT_IO if isinstance(exc, OSError) else EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
