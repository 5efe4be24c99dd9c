import concurrent.futures
import contextlib
import csv
import io
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gcdcipher import analysis, cli, filecodec
from gcdcipher.filecodec import HEADER_SIZE, RECORD_SIZE, CorruptRecordError, encrypt_file
from oracles import header, traced_peak

# a child's stdout is buffered, as from a shell, whether or not PYTHONUNBUFFERED is set here
CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def run_cli_stderr(argv):
    """Exit code and stderr of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        return run_cli(argv), err.getvalue()


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_encrypt_decrypt_default_names(tmp_path, capsys):
    src = tmp_path / "test.txt"
    src.write_bytes(b"in")
    assert run_cli(["encrypt", str(src)]) == 0
    ct = tmp_path / "ct_test.txt"
    key = tmp_path / "key_test.txt"
    assert ct.read_bytes() == b"\x05"
    assert key.read_bytes() == header(2) + bytes([150, 145, 21, 1, 1])
    err = capsys.readouterr().err
    assert "2 bytes" in err and "s" in err

    assert run_cli(["decrypt", str(ct), str(key)]) == 0
    assert (tmp_path / "pt_test.txt").read_bytes() == b"in"


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("command", ["encrypt", "decrypt", "corpus"])
def test_output_on_stdout_holds_nothing_but_the_output(tmp_path, command):
    data = random.Random(3).randbytes(1001)
    src = tmp_path / "in" / "data.bin"
    src.parent.mkdir()
    src.write_bytes(data)
    cipher, key = encrypt_file(data)
    (tmp_path / "ct").write_bytes(cipher)
    (tmp_path / "key").write_bytes(key.to_bytes())
    argv = {
        "encrypt": ["encrypt", src, "--ct", "/dev/stdout", "--key", tmp_path / "key2"],
        "decrypt": ["decrypt", tmp_path / "ct", tmp_path / "key", "--out", "/dev/stdout"],
        "corpus": ["corpus", src.parent, "--csv", "/dev/stdout"],
    }[command]
    proc = subprocess.run([sys.executable, "-m", "gcdcipher.cli", *map(str, argv)],
                          env=CHILD_ENV, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if command == "corpus":
        rows = list(csv.reader(proc.stdout.decode().splitlines()))
        assert rows[0] == cli.CSV_COLUMNS
        assert [row[:3] for row in rows[1:]] == [["data.bin", "1001", "501"]]
    else:
        assert proc.stdout == {"encrypt": cipher, "decrypt": data}[command]
    assert b"/dev/stdout" in proc.stderr  # the status line


def test_encrypt_decrypt_explicit_paths_binary(tmp_path):
    data = random.Random(99).randbytes(4097)
    src = tmp_path / "blob.bin"
    src.write_bytes(data)
    ct = tmp_path / "c"
    key = tmp_path / "k"
    out = tmp_path / "p"
    assert run_cli(["encrypt", str(src), "--ct", str(ct), "--key", str(key)]) == 0
    assert run_cli(["decrypt", str(ct), str(key), "--out", str(out)]) == 0
    assert out.read_bytes() == data


def test_encrypt_empty_file(tmp_path):
    src = tmp_path / "empty"
    src.write_bytes(b"")
    assert run_cli(["encrypt", str(src)]) == 0
    assert (tmp_path / "ct_empty").read_bytes() == b""
    assert (tmp_path / "key_empty").read_bytes() == header(0)


def test_encrypt_missing_input_leaves_no_outputs(tmp_path):
    src = tmp_path / "missing.txt"
    assert run_cli(["encrypt", str(src)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_encrypt_unwritable_output(tmp_path):
    src = tmp_path / "a.txt"
    src.write_bytes(b"hi")
    assert run_cli(["encrypt", str(src), "--ct", str(tmp_path / "no_dir" / "x")]) == 1


def test_encrypt_keeps_an_existing_output_it_could_not_open(tmp_path, monkeypatch):
    src, ct, key = tmp_path / "a.txt", tmp_path / "ct", tmp_path / "key"
    src.write_bytes(b"hi")
    key.write_bytes(b"precious")
    real_open = open

    def open_key_read_only(file, mode="r", *args, **kwargs):
        if str(file) == str(key) and "w" in mode:
            raise PermissionError(13, "Permission denied", str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", open_key_read_only, raising=False)
    assert run_cli(["encrypt", str(src), "--ct", str(ct), "--key", str(key)]) == 1
    assert key.read_bytes() == b"precious"  # never opened, so left alone
    assert not ct.exists()  # opened and truncated, so removed


def test_encrypt_keeps_an_existing_key_when_the_cipher_path_is_a_directory(tmp_path):
    src, ct_dir, key = tmp_path / "a.txt", tmp_path / "ct_dir", tmp_path / "key_a.txt"
    src.write_bytes(b"hi")
    ct_dir.mkdir()
    key.write_bytes(b"precious")
    assert run_cli(["encrypt", str(src), "--ct", str(ct_dir), "--key", str(key)]) == 1
    assert key.read_bytes() == b"precious"  # opening the cipher failed first: never opened
    assert ct_dir.is_dir()


@pytest.mark.parametrize("command, exit_code", [("decrypt", 3), ("encrypt", 1)])
def test_failed_command_keeps_a_fifo_output(tmp_path, command, exit_code):
    data = bytes([50, 100]) * 4
    cipher, key = encrypt_file(data)
    raw = bytearray(key.to_bytes())
    raw[13 + 2 * 5 + 2] = 200  # block 2: rp_first 200 * cipher 50 overflows
    src, ct, key_path, new_ct, fifo = (tmp_path / n for n in ("in", "ct", "key", "new_ct", "fifo"))
    src.write_bytes(data)
    ct.write_bytes(cipher)
    key_path.write_bytes(bytes(raw))
    os.mkfifo(fifo)
    argv = {
        "decrypt": ["decrypt", ct, key_path, "--out", fifo],  # the corrupt record
        "encrypt": ["encrypt", src, "--ct", new_ct, "--key", fifo],  # the header seek
    }[command]
    # an open read end lets the command open the FIFO for writing without blocking
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(list(map(str, argv))) == exit_code
    finally:
        os.close(reader)
    assert fifo.is_fifo()
    assert not new_ct.exists()  # a regular file it opened is still removed


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_encrypt_refuses_a_key_output_that_is_not_seekable(tmp_path):
    # the key's header is patched last, so a pipe would get a length-0 header
    src, ct = tmp_path / "in.txt", tmp_path / "ct.bin"
    src.write_bytes(b"hello world")
    argv = [sys.executable, "-m", "gcdcipher.cli", "encrypt", src, "--ct", ct, "--key",
            "/dev/stdout"]
    # capture_output makes the child's stdout a pipe
    proc = subprocess.run(argv, env=CHILD_ENV, capture_output=True, timeout=60)
    assert proc.stdout == b""
    assert proc.returncode == 1, proc.stderr
    assert b"/dev/stdout" in proc.stderr
    assert not ct.exists()


@pytest.mark.parametrize("target", ["regular", "/proc/self/fd/1"])
def test_failed_command_keeps_a_linked_output(tmp_path, target):
    # --out /dev/stdout with stdout redirected to a file is a link to a
    # regular file; as root, removing it would remove /dev/stdout
    if target.startswith("/proc") and not Path("/proc/self/fd").is_dir():
        pytest.skip("no /proc/self/fd")
    cipher, key = encrypt_file(bytes([50, 100]) * 4)
    ct, short_key, link = (tmp_path / n for n in ("ct", "short", "link"))
    ct.write_bytes(cipher)
    short_key.write_bytes(key.to_bytes()[:-3])  # a payload cut short: exit 2
    link.symlink_to(tmp_path / target)  # an absolute target replaces tmp_path
    argv = [sys.executable, "-m", "gcdcipher.cli", "decrypt", ct, short_key, "--out", link]
    with open(tmp_path / "stdout", "wb") as stdout:  # the child's fd 1 is a regular file
        proc = subprocess.run(argv, env=CHILD_ENV, stdout=stdout, stderr=subprocess.PIPE)
    assert proc.returncode == 2, proc.stderr
    assert link.is_symlink()


@pytest.mark.parametrize("argv", [["encrypt", "."], ["encrypt", "/"], ["decrypt", ".", "key"]])
def test_input_without_a_name_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_encrypt_refuses_cipher_over_input(tmp_path, capsys):
    src = tmp_path / "same.txt"
    src.write_bytes(b"precious")
    assert run_cli(["encrypt", str(src), "--ct", str(src)]) == 1
    assert src.read_bytes() == b"precious"
    assert not (tmp_path / "key_same.txt").exists()
    assert "same file" in capsys.readouterr().err


def test_encrypt_refuses_cipher_and_key_on_one_path(tmp_path):
    src = tmp_path / "a.txt"
    src.write_bytes(b"precious")
    out = tmp_path / "o.bin"
    assert run_cli(["encrypt", str(src), "--ct", str(out), "--key", str(out)]) == 1
    assert src.read_bytes() == b"precious"
    assert not out.exists()


def test_decrypt_refuses_output_over_cipher(tmp_path):
    data = b"precious"
    cipher, key = encrypt_file(data)
    ct, key_path = tmp_path / "ct_b.txt", tmp_path / "key_b.txt"
    ct.write_bytes(cipher)
    key_path.write_bytes(key.to_bytes())
    (tmp_path / "link").symlink_to(ct)
    for out in (ct, key_path, tmp_path / "link"):
        assert run_cli(["decrypt", str(ct), str(key_path), "--out", str(out)]) == 1
        assert ct.read_bytes() == cipher
        assert key_path.read_bytes() == key.to_bytes()


def test_audit_refuses_output_over_key(tmp_path):
    _, key = encrypt_file(b"precious")
    key_path = tmp_path / "key"
    key_path.write_bytes(key.to_bytes())
    assert run_cli(["audit", str(key_path), "--out", str(key_path)]) == 1
    assert key_path.read_bytes() == key.to_bytes()


def test_decrypt_count_mismatch_exits_2(tmp_path):
    data = b"0123456789"
    cipher, key = encrypt_file(data)
    (tmp_path / "ct").write_bytes(cipher[:-1])
    (tmp_path / "key").write_bytes(key.to_bytes())
    assert run_cli(["decrypt", str(tmp_path / "ct"), str(tmp_path / "key")]) == 2
    assert not (tmp_path / "pt_ct").exists()


def test_decrypt_bad_magic_exits_2(tmp_path, capsys):
    (tmp_path / "ct").write_bytes(b"\x05")
    (tmp_path / "key").write_bytes(b"XXXX" + header(2)[4:] + bytes(5))
    assert run_cli(["decrypt", str(tmp_path / "ct"), str(tmp_path / "key")]) == 2
    assert "magic" in capsys.readouterr().err


def test_decrypt_corrupt_record_exits_3_with_block_index(tmp_path, capsys):
    data = bytes([50, 100]) * 4
    cipher, key = encrypt_file(data)
    raw = bytearray(key.to_bytes())
    raw[13 + 2 * 5 + 2] = 200  # block 2: rp_first 200 * cipher 50 overflows
    (tmp_path / "ct").write_bytes(cipher)
    (tmp_path / "key").write_bytes(bytes(raw))
    assert run_cli(["decrypt", str(tmp_path / "ct"), str(tmp_path / "key")]) == 3
    assert "record 2" in capsys.readouterr().err


def _exits_3_on_length_edited_from_even_to_odd(tmp_path, capsys, command):
    # the last byte would be dropped: the last record of an odd length is self-paired,
    # and the key alone shows the edit, so audit refuses what decrypt refuses
    cipher, key = encrypt_file(b"hello!")
    (tmp_path / "ct").write_bytes(cipher)
    (tmp_path / "key").write_bytes(header(5) + key.record_bytes)
    out = tmp_path / "out"
    inputs = [tmp_path / "ct", tmp_path / "key"] if command == "decrypt" else [tmp_path / "key"]
    assert run_cli([command, *map(str, inputs), "--out", str(out)]) == 3
    assert "record 2" in capsys.readouterr().err
    assert not out.exists()


def test_decrypt_length_edited_from_even_to_odd_exits_3(tmp_path, capsys):
    _exits_3_on_length_edited_from_even_to_odd(tmp_path, capsys, "decrypt")


def test_audit_length_edited_from_even_to_odd_exits_3(tmp_path, capsys):
    _exits_3_on_length_edited_from_even_to_odd(tmp_path, capsys, "audit")


def test_payload_longer_than_its_header_exits_2(tmp_path, capsys):
    # a length of 9 implies 5 of the 6 records: the sixth is reported as trailing
    # bytes (exit 2), not record 4, intact but not self-paired, as corrupt (exit 3)
    cipher, key = encrypt_file(b"hello world")
    (tmp_path / "ct").write_bytes(cipher)
    (tmp_path / "key").write_bytes(header(9) + key.record_bytes)
    out = tmp_path / "out"
    for argv in (["decrypt", tmp_path / "ct", tmp_path / "key"], ["audit", tmp_path / "key"]):
        assert run_cli([*map(str, argv), "--out", str(out)]) == 2
        assert "trailing bytes" in capsys.readouterr().err
        assert not out.exists()


@settings(derandomize=True, max_examples=210, deadline=None)
@given(
    # some end in a repeated byte, so an even length edited to odd can pass; some
    # start with the all-zero block, whose gcd arithmetic reads only zero-weight edits
    st.binary(min_size=9, max_size=60)
    | st.binary(min_size=8, max_size=59).map(lambda b: b + b[-1:])
    | st.binary(min_size=7, max_size=58).map(lambda b: bytes(2) + b),
    st.data(),
)
def test_one_edit_gives_decrypt_and_audit_their_stated_outcomes(tmp_path_factory, plain, data):
    """One edit of the key or the cipher; a failure leaves no output. An edit of
    the key's header or size: decrypt and audit exit alike, and exit 0 gives the
    plaintext but for the README's two header edits: odd to even appends a copy
    of the last byte, even to odd drops it. A record or cipher byte XORed:
    decrypt exits 3 naming the edited block, or gives the plaintext; audit gives
    the plaintext, but for a zero-weight edit, whose byte it reads as the
    complement of the edited field."""
    n = len(plain)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filecodec, "CHUNK_BLOCKS", 4)  # 8 bytes a chunk, so every input spans two
        cipher, key = encrypt_file(plain)
        cipher, raw = bytearray(cipher), bytearray(key.to_bytes())
        kinds = ["header byte", "length by one", "length", "cut", "extend", "record byte",
                 "cipher byte"]
        kind = data.draw(st.sampled_from(kinds))
        if kind == "header byte":
            raw[data.draw(st.integers(0, HEADER_SIZE - 1))] ^= data.draw(st.integers(1, 255))
        elif kind == "length by one":
            raw[:HEADER_SIZE] = header(n + data.draw(st.sampled_from([-1, 1])))
        elif kind == "length":
            raw[:HEADER_SIZE] = header(data.draw(st.integers(0, 2**64 - 1)))
        elif kind == "cut":
            del raw[-data.draw(st.integers(1, 40)):]
        elif kind == "extend":
            raw += data.draw(st.binary(min_size=1, max_size=40))
        else:  # the last and first blocks often: a self-paired tail, the all-zero one above
            last = len(cipher) - 1
            block = data.draw(st.sampled_from([last, 0]) | st.integers(0, last))
            if kind == "record byte":
                field = data.draw(st.integers(0, RECORD_SIZE - 1))
                raw[HEADER_SIZE + RECORD_SIZE * block + field] ^= data.draw(st.integers(1, 255))
            else:
                field = None
                cipher[block] ^= data.draw(st.integers(1, 255))
        directory = tmp_path_factory.mktemp("edit")
        ct, key_path = directory / "ct", directory / "key"
        ct.write_bytes(cipher)
        key_path.write_bytes(raw)
        decrypted, audited = directory / "decrypted", directory / "audited"
        code, err = run_cli_stderr(["decrypt", str(ct), str(key_path), "--out", str(decrypted)])
        audit_code, audit_err = run_cli_stderr(["audit", str(key_path), "--out", str(audited)])
    event(f"{kind}, {'odd' if n % 2 else 'even'} length: exit {code}, audit exit {audit_code}")
    assert code in (0, 2, 3)
    assert code == 0 or not decrypted.exists()
    assert audit_code == 0 or not audited.exists()
    if kind in ("record byte", "cipher byte"):
        assert code in (0, 3)
        if code:
            assert f"record {block} " in err
        else:
            assert decrypted.read_bytes() == plain
        if field in (0, 1):  # a zero-weight field, the complement of a plaintext byte
            if n % 2 and block == len(cipher) - 1:  # no longer self-paired
                assert (code, audit_code) == (3, 3) and f"record {block} " in audit_err
                return
            edited = bytearray(plain)
            edited[2 * block + field] = 255 - raw[HEADER_SIZE + RECORD_SIZE * block + field]
            assert audit_code == 0 and audited.read_bytes() == edited
        else:
            assert audit_code == 0 and audited.read_bytes() == plain
        return
    assert audit_code == code
    if code:
        return
    recovered = decrypted.read_bytes()
    assert audited.read_bytes() == recovered
    length = struct.unpack(">4sBQ", raw[:HEADER_SIZE])[2]
    assert recovered == (plain + plain[-1:])[:length]
    assert length == n or (length == n + 1 and n % 2) or (
        length == n - 1 and not n % 2 and plain[-1] == plain[-2])


def test_audit_recovers_plaintext(tmp_path, capsys):
    data = b"top secret contents\x00\xff!"
    _, key = encrypt_file(data)
    key_path = tmp_path / "key"
    key_path.write_bytes(key.to_bytes())
    out = tmp_path / "recovered"
    assert run_cli(["audit", str(key_path), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    assert "leak" in capsys.readouterr().err


def test_audit_writes_stdout_by_default(tmp_path, capfdbinary):
    _, key = encrypt_file(b"in")
    key_path = tmp_path / "key"
    key_path.write_bytes(key.to_bytes())
    assert run_cli(["audit", str(key_path)]) == 0
    assert capfdbinary.readouterr().out == b"in"


def test_audit_header_only_key(tmp_path):
    key_path = tmp_path / "key"
    key_path.write_bytes(header(0))
    out = tmp_path / "recovered"
    assert run_cli(["audit", str(key_path), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_audit_truncated_key_exits_2(tmp_path):
    key_path = tmp_path / "key"
    key_path.write_bytes(header(2)[:9])
    assert run_cli(["audit", str(key_path)]) == 2


def test_audit_key_damaged_past_the_first_chunk_exits_2(tmp_path, monkeypatch, capfdbinary):
    monkeypatch.setattr(filecodec, "CHUNK_BLOCKS", 8)
    data = random.Random(41).randbytes(41)  # 21 blocks: chunks of 8, 8 and 5
    cipher, key = encrypt_file(data)
    raw = key.to_bytes()
    ct_path, key_path, out = tmp_path / "ct", tmp_path / "key", tmp_path / "recovered"
    ct_path.write_bytes(cipher)
    # on stdout, the chunks before the fault have already gone out; trailing
    # bytes are found before the last chunk, with its other checks
    for damaged, error, written in ((raw[: -5 * 10 + 2], b"near block 11", data[:16]),
                                    (raw + b"\0", b"trailing bytes", data[:32])):
        key_path.write_bytes(damaged)
        assert run_cli(["audit", str(key_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert run_cli(["audit", str(key_path)]) == 2
        captured = capfdbinary.readouterr()
        assert error in captured.err
        assert captured.out == written
        # decrypt reads the same payload and fails the same way
        assert run_cli(["decrypt", str(ct_path), str(key_path), "--out", str(out)]) == 2
        assert not out.exists()
        assert error in capfdbinary.readouterr().err


def make_corpus(tmp_path, count=10):
    directory = tmp_path / "corpus"
    directory.mkdir()
    rng = random.Random(5)
    for i in range(count):
        (directory / f"file_{i:02d}.bin").write_bytes(rng.randbytes(128 + 2 * i))
    return directory


def test_corpus_writes_one_row_per_file(tmp_path):
    directory = make_corpus(tmp_path, count=10)
    csv_path = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(csv_path)]) == 0
    rows = read_rows(csv_path)
    assert rows[0] == cli.CSV_COLUMNS
    assert len(rows) == 11
    assert [r[0] for r in rows[1:]] == sorted(r[0] for r in rows[1:])
    # even-length inputs compress to exactly half
    assert all(r[8] == "50.0" for r in rows[1:])


def test_corpus_empty_directory(tmp_path):
    directory = tmp_path / "empty"
    directory.mkdir()
    csv_path = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(csv_path)]) == 0
    assert read_rows(csv_path) == [cli.CSV_COLUMNS]


def test_corpus_records_per_file_failure_and_continues(tmp_path, capsys):
    directory = make_corpus(tmp_path, count=3)
    (directory / "a_empty.bin").write_bytes(b"")  # analyze rejects empty input
    csv_path = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(csv_path)]) == 1
    rows = read_rows(csv_path)
    assert len(rows) == 5
    failed = rows[1]
    assert failed[0] == "a_empty.bin"
    assert all(cell == "" for cell in failed[1:])
    assert "a_empty.bin: analyze_file needs a non-empty input" in capsys.readouterr().err
    # the other three files still analyzed
    assert all(r[1] != "" for r in rows[2:])


def test_corpus_blanks_a_file_whose_range_fails_and_reports_it_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(filecodec, "CHUNK_BLOCKS", 8)  # 16-byte chunks, 512-byte ranges
    directory = make_corpus(tmp_path, count=2)
    # a random first range, then two that end in a chunk of zeros, which no other
    # file holds: 16 bytes in the second range, 15 in the odd third
    rng = random.Random(6)
    data = rng.randbytes(512 + 496) + bytes(16) + rng.randbytes(496) + bytes(15)
    (directory / "a_split.bin").write_bytes(data)

    def failing_on_zeros(cipher, key):
        plaintext = filecodec.decrypt_file(cipher, key)
        if not any(plaintext):
            raise ValueError(f"a chunk of {len(plaintext)} zeros")
        return plaintext

    monkeypatch.setattr(analysis, "decrypt_file", failing_on_zeros)
    csv_path = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(csv_path)]) == 1
    rows = read_rows(csv_path)
    assert [r[0] for r in rows[1:]] == ["a_split.bin", "file_00.bin", "file_01.bin"]
    assert rows[1][1:] == [""] * 8
    err = capsys.readouterr().err
    assert err.count("zeros") == 1
    assert "error: a_split.bin: a chunk of 16 zeros" in err  # the first failing range's error
    assert all(r[1] != "" for r in rows[2:])


def test_corpus_range_of_a_file_that_shrank_is_an_error(tmp_path):
    # a file cut short after corpus sized its ranges: no row from fewer bytes
    path = tmp_path / "data.bin"
    path.write_bytes(bytes(100))
    parts, error = cli._corpus_range((path, 64, 128))
    assert parts is None and "shrank" in error


def test_corpus_skips_subdirectories(tmp_path):
    directory = make_corpus(tmp_path, count=2)
    (directory / "sub").mkdir()
    csv_path = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(csv_path)]) == 0
    assert len(read_rows(csv_path)) == 3


def test_corpus_parallel_matches_serial_except_timings(tmp_path):
    directory = make_corpus(tmp_path, count=6)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(serial)]) == 0
    assert run_cli(["corpus", str(directory), "--csv", str(parallel), "--jobs", "2"]) == 0
    strip = lambda rows: [[c for i, c in enumerate(r) if i not in (3, 4)] for r in rows]
    assert strip(read_rows(serial)) == strip(read_rows(parallel))


def test_corpus_splits_a_large_file_exactly(tmp_path, monkeypatch):
    """A file of several ranges, the last one odd, gives one row, whether its
    ranges are analysed in-process or by two workers: the row of analyze_file."""
    monkeypatch.setattr(filecodec, "CHUNK_BLOCKS", 8)  # 512-byte ranges
    directory = tmp_path / "corpus"
    directory.mkdir()
    data = random.Random(7).randbytes(5 * 512 + 77)
    (directory / "big.bin").write_bytes(data)
    rows = []
    for jobs in ("1", "2"):
        csv_path = tmp_path / f"jobs{jobs}.csv"
        assert run_cli(["corpus", str(directory), "--csv", str(csv_path), "--jobs", jobs]) == 0
        rows.append(read_rows(csv_path)[1])
    report = analysis.analyze_file(data)
    whole = ["big.bin"] + [format(getattr(report, field), spec)
                           for _, field, spec in cli._REPORT_COLUMNS]
    untimed = lambda row: row[:3] + row[5:]
    assert untimed(rows[0]) == untimed(rows[1]) == untimed(whole)


def test_corpus_memory_does_not_grow_with_the_file(tmp_path):
    """Each range is read on its own: a 16 MiB file peaks at one 2 MiB range
    and its working memory, about 3 MiB, not at a copy of the file."""
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "big.bin").write_bytes(random.Random(16).randbytes(16 << 20))
    # both tables are built once per process; not part of any one analysis
    filecodec.block_table()
    analysis._output_table()
    argv = ["corpus", str(directory), "--csv", str(tmp_path / "report.csv")]
    code, peak = traced_peak(run_cli, argv)
    assert code == 0
    assert peak < 4 << 20


def test_corpus_memory_does_not_grow_with_the_file_count(tmp_path):
    """Each row is written as its file's last range is read back, and its parts
    dropped: 1,000 small files peak within 1 MiB of 100."""
    filecodec.block_table()
    analysis._output_table()
    peaks = []
    for count in (100, 1000):
        directory = tmp_path / str(count)
        directory.mkdir()
        rng = random.Random(count)
        for i in range(count):
            (directory / f"file_{i:04d}.bin").write_bytes(rng.randbytes(64))
        argv = ["corpus", str(directory), "--csv", str(tmp_path / f"{count}.csv"), "--jobs", "1"]
        code, peak = traced_peak(run_cli, argv)
        assert code == 0
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 1 << 20, peaks


@pytest.mark.parametrize(
    "files, jobs, cpus, pool_size",
    [
        (3, 64, 4, 3),  # no more workers than ranges, here one a file
        (6, 64, 4, 4),  # no more workers than CPUs
        (6, 2, 4, 2),
        (1, 64, 4, None),  # one worker would be one process too many: run in-process
        (6, 2, None, None),  # CPU count unknown: treated as one
        # files given by their sizes: one file of three 512-byte ranges
        pytest.param([2 * 512 + 1], 64, 4, 3, id="one-file-of-3-ranges"),
    ],
)
def test_corpus_clamps_jobs(tmp_path, monkeypatch, files, jobs, cpus, pool_size):
    """The pool is sized from the work; no real worker is started."""
    sizes = []

    class RecordingPool(concurrent.futures.Executor):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(filecodec, "CHUNK_BLOCKS", 8)  # 512-byte ranges; make_corpus's files fit in one
    if isinstance(files, int):
        directory = make_corpus(tmp_path, count=files)
    else:
        directory = tmp_path / "corpus"
        directory.mkdir()
        for i, size in enumerate(files):
            (directory / f"file_{i}.bin").write_bytes(random.Random(i).randbytes(size))
        files = len(files)
    csv_path = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(csv_path), "--jobs", str(jobs)]) == 0
    assert sizes == ([] if pool_size is None else [pool_size])
    assert len(read_rows(csv_path)) == files + 1


def test_corpus_keeps_a_window_of_ranges_in_flight(tmp_path, monkeypatch):
    """Ranges go to the pool only as earlier ones are read back, at most four a
    worker ahead, so the parent never holds more results than that."""
    unread, in_flight = [], []  # futures submitted and not read; their count after each submit

    class LazyFuture(concurrent.futures.Future):
        def __init__(self, call):
            super().__init__()
            self.call = call

        def result(self, timeout=None):  # the range is analysed only when read
            unread.remove(self)
            return self.call()

    class LazyPool(concurrent.futures.Executor):
        def __init__(self, max_workers):
            pass

        def submit(self, fn, *args):
            unread.append(future := LazyFuture(lambda: fn(*args)))
            in_flight.append(len(unread))
            return future

    directory = make_corpus(tmp_path, count=50)
    serial, windowed = tmp_path / "serial.csv", tmp_path / "windowed.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(serial), "--jobs", "1"]) == 0
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", LazyPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert run_cli(["corpus", str(directory), "--csv", str(windowed), "--jobs", "2"]) == 0
    assert len(in_flight) == 50 and unread == []
    assert 2 <= max(in_flight) <= 4 * 2, in_flight
    untimed = lambda rows: [row[:3] + row[5:] for row in rows]
    assert untimed(read_rows(windowed)) == untimed(read_rows(serial))


DYING_WORKER_CLI = """
import os, sys
from gcdcipher import cli
analyse = cli._corpus_range
def dying(task):  # forked workers inherit the patch; one dies as if killed
    if task[0].name == "file_03.bin":
        os._exit(9)
    return analyse(task)
cli._corpus_range = dying
cli.os.cpu_count = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def test_corpus_worker_that_dies_is_one_error_line(tmp_path):
    directory = make_corpus(tmp_path, count=8)
    report = tmp_path / "report.csv"
    argv = ["corpus", directory, "--csv", report, "--jobs", "2"]
    proc = subprocess.run([sys.executable, "-c", DYING_WORKER_CLI, *map(str, argv)], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert "error: a corpus worker process ended abruptly" in proc.stderr
    assert not report.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_corpus_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    directory = make_corpus(tmp_path, count=2)
    csv_path = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(csv_path), "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not csv_path.exists()


def test_corpus_refuses_report_over_an_input(tmp_path):
    directory = make_corpus(tmp_path, count=2)
    victim = sorted(directory.iterdir())[0]
    before = victim.read_bytes()
    assert run_cli(["corpus", str(directory), "--csv", str(victim)]) == 1
    assert victim.read_bytes() == before


def test_corpus_rerun_refuses_its_own_report_inside_the_directory(tmp_path):
    directory = make_corpus(tmp_path, count=2)
    report = directory / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(report)]) == 0
    before = report.read_bytes()
    # the earlier report is now a regular file of the analysed directory
    assert run_cli(["corpus", str(directory), "--csv", str(report)]) == 1
    assert report.read_bytes() == before


def test_corpus_writes_a_name_that_is_not_utf8_back_as_its_bytes(tmp_path):
    directory = make_corpus(tmp_path, count=1)
    try:
        (directory / os.fsdecode(b"bad\xffname")).write_bytes(b"payload")
    except (OSError, UnicodeError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    report = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(report)]) == 0
    assert b"\nbad\xffname," in report.read_bytes()


def test_corpus_missing_directory(tmp_path):
    assert run_cli(["corpus", str(tmp_path / "nope"), "--csv", str(tmp_path / "r.csv")]) == 1


def test_selftest_passes(capfd):
    assert run_cli(["selftest"]) == 0
    out = capfd.readouterr().out
    assert "65536/65536 blocks OK" in out
    assert "selftest: PASS" in out


def test_selftest_catches_table_mismatch(monkeypatch, capfd):
    ciphers, records = filecodec.block_table()
    broken = ciphers.copy()
    broken[105 << 8 | 110] = 1
    monkeypatch.setattr("gcdcipher.filecodec.block_table", lambda: (broken, records))
    assert run_cli(["selftest"]) != 0
    out = capfd.readouterr().out
    assert "block table matches encrypt_block: FAIL" in out
    assert "65536/65536 blocks OK" in out  # the scalar round trip alone passes


@pytest.mark.parametrize("fault", ["wrong byte", "raises"])
def test_selftest_catches_a_broken_decode_kernel(monkeypatch, capfd, fault):
    real = filecodec._decode_blocks

    def broken(cipher, records, first_block):
        plain = real(cipher, records, first_block)
        if fault == "raises":
            raise CorruptRecordError("broken kernel", first_block)
        plain[-1] ^= 1
        return plain

    monkeypatch.setattr(filecodec, "_decode_blocks", broken)
    assert run_cli(["selftest"]) != 0
    out = capfd.readouterr().out
    assert "decode kernel inverts encrypt_block: FAIL" in out
    assert "65536/65536 blocks OK" in out  # the scalar round trip alone passes


REAL_BLOCK_INDEX = filecodec._block_index


def _swapped_block_index(data):
    index = REAL_BLOCK_INDEX(data)
    return (index & 0xFF) << 8 | index >> 8  # the block (a, b) indexed as (b, a)


@pytest.mark.parametrize(
    "target, fault, line",
    [
        ("gcdcipher.filecodec._block_index", _swapped_block_index,
         "block table matches encrypt_block: FAIL"),
        ("gcdcipher.cli.decrypt_block", lambda cipher, record: (0, 1),
         "exhaustive round trip: 1/65536 blocks FAIL"),
        ("gcdcipher.cli.zero_weight", lambda x: 255 - x if x else 0,
         "complement identity: 255/256 FAIL"),
    ],
    ids=["swapped-block-index", "wrong-decrypt_block", "broken-zero_weight"],
)
def test_selftest_names_the_failing_check(monkeypatch, capfd, target, fault, line):
    monkeypatch.setattr(target, fault)
    assert run_cli(["selftest"]) == 1
    out = capfd.readouterr().out
    assert line in out
    assert out.count("FAIL") == 2  # the failing check and the verdict
    assert f"selftest: FAIL ({line.split(':')[0]}" in out  # named by the text before its colon


def test_selftest_catches_broken_gcd(monkeypatch, capfd):
    # gcd = 1 still round-trips, so the golden vectors must catch it
    monkeypatch.setattr("gcdcipher.block.gcd", lambda a, b: 1)
    assert run_cli(["selftest"]) != 0
    assert "FAIL" in capfd.readouterr().out


def test_usage_errors_exit_1():
    assert run_cli([]) == 1
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["encrypt"]) == 1


# runs main() after lowering the file-size limit for this child alone; with
# SIGXFSZ ignored, a write past the limit fails with EFBIG instead of killing it
SIZE_LIMITED_CLI = """
import resource, signal, sys
from gcdcipher.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "audit", "corpus"])
def test_failed_write_leaves_no_output(tmp_path, command):
    data = random.Random(11).randbytes(300_000)
    src, ct, key, out = (tmp_path / name for name in ("in.bin", "ct.bin", "key.bin", "out.bin"))
    src.write_bytes(data)
    cipher, key_file = encrypt_file(data)
    ct.write_bytes(cipher)
    key.write_bytes(key_file.to_bytes())
    directory = tmp_path / "corpus"
    directory.mkdir()
    for i in range(200):
        (directory / f"file_{i:03d}.bin").write_bytes(data[1500 * i : 1500 * (i + 1)])
    new_ct, new_key = tmp_path / "new_ct.bin", tmp_path / "new_key.bin"
    argv, outputs = {
        "encrypt": (["encrypt", src, "--ct", new_ct, "--key", new_key], [new_ct, new_key]),
        "decrypt": (["decrypt", ct, key, "--out", out], [out]),
        "audit": (["audit", key, "--out", out], [out]),
        "corpus": (["corpus", directory, "--csv", out], [out]),
    }[command]
    proc = subprocess.run([sys.executable, "-c", SIZE_LIMITED_CLI, *map(str, argv)], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "File too large" in proc.stderr
    assert [p for p in outputs if p.exists()] == []


def test_cli_import_leaves_the_process_pool_unloaded():
    script = "import sys, gcdcipher.cli; assert 'concurrent.futures.process' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", script], env=CHILD_ENV, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def run_fresh(script, **env):
    """Stdout of script in a fresh interpreter whose OPENBLAS_NUM_THREADS is only env's."""
    base = {k: v for k, v in CHILD_ENV.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", script], env={**base, **env}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_starts_no_blas_thread():
    script = ("import os, gcdcipher.cli\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
    assert run_fresh(script) == "1 1\n"


def test_cli_import_keeps_a_blas_thread_count_the_user_set():
    script = "import os, gcdcipher.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_fresh(script, OPENBLAS_NUM_THREADS="2") == "2\n"


def test_package_import_loads_no_numpy_and_sets_no_environment():
    script = """
import os, sys, gcdcipher
assert "numpy" not in sys.modules, "numpy loaded"
assert "OPENBLAS_NUM_THREADS" not in os.environ, "environment changed"
assert gcdcipher.encrypt_file(b"in")[0] == b"\\x05"
"""
    run_fresh(script)


def spawn_cli(tmp_path, argv, stdout):
    """Exit code, stderr and resource usage of one fresh `python -m gcdcipher.cli`
    process, with stdout the posix_spawn file action for its fd 1."""
    log = tmp_path / "stderr"
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "gcdcipher.cli", *map(str, argv)], CHILD_ENV,
        file_actions=[stdout,
                      (os.POSIX_SPAWN_OPEN, 2, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)],
    )
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), log.read_text(), usage


@pytest.mark.parametrize("stdout", ["full", "closed"])
@pytest.mark.parametrize("command", ["audit", "selftest", "corpus"])
def test_a_failed_or_closed_stdout_exits_1(tmp_path, command, stdout):
    """Buffered stdout, as from a shell: an output smaller than the buffer is
    written only when it is flushed, which must fail in the command, not at exit.
    corpus's 200 rows pass the 8 KiB buffer, so its write fails with ranges in flight."""
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    key = tmp_path / "key"
    key.write_bytes(encrypt_file(b"hello world")[1].to_bytes())
    argv = {"audit": ["audit", key], "selftest": ["selftest"],
            "corpus": ["corpus", tmp_path / "corpus", "--csv", "/dev/stdout", "--jobs", "2"]}[command]
    if command == "corpus":
        make_corpus(tmp_path, count=200)
    action = {"full": (os.POSIX_SPAWN_OPEN, 1, "/dev/full", os.O_WRONLY, 0),
              "closed": (os.POSIX_SPAWN_CLOSE, 1)}[stdout]
    code, err, _ = spawn_cli(tmp_path, argv, action)
    assert code == 1, err
    assert err.count("error:") == 1 and "Exception ignored" not in err, err
    # closed, the key file may take fd 1: the error names stdout, not a failed write
    assert ("stdout" if stdout == "closed" else "No space left on device") in err


def child_minor_faults(tmp_path, argv):
    """Minor page faults of one fresh `python -m gcdcipher.cli` process."""
    code, err, usage = spawn_cli(tmp_path, argv, (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0))
    assert code == 0, err
    return usage.ru_minflt


# glibc's malloc maps each request of 128 KiB or more afresh and trims the
# heap top, so a chunk loop that allocates its outputs per 64 KiB chunk
# faults in (and zeroes) new pages on every chunk: thousands of faults more
# at 8 MiB than at 64 KiB. Reading the file in 2 MiB ranges, as corpus does,
# costs about 1,400 of the allowed faults, against 2,300 when it read it whole.
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc allocator, Linux rusage")
@pytest.mark.parametrize(
    "command, allowed", [("encrypt", 1000), ("corpus", 4000), ("audit", 1000), ("decrypt", 1000)]
)
def test_chunk_loops_do_not_fault_in_new_memory_per_chunk(tmp_path, command, allowed):
    faults = []
    for size in (64 * 1024, 8 * 2**20):
        # written here: a large array freed in the child would raise glibc's
        # mmap threshold and hide the churn this test looks for
        directory = tmp_path / str(size)
        directory.mkdir()
        src = directory / "data.bin"
        src.write_bytes(random.Random(size).randbytes(size))
        ct, key = tmp_path / f"ct_{size}", tmp_path / f"key_{size}"
        if command in ("audit", "decrypt"):
            cipher, key_file = encrypt_file(src.read_bytes())
            ct.write_bytes(cipher)
            key.write_bytes(key_file.to_bytes())
        argv = {
            "encrypt": ["encrypt", src, "--ct", tmp_path / "ct", "--key", tmp_path / "key"],
            "corpus": ["corpus", directory, "--csv", tmp_path / "report.csv"],
            "audit": ["audit", key, "--out", tmp_path / "recovered"],
            "decrypt": ["decrypt", ct, key, "--out", tmp_path / "recovered"],
        }[command]
        faults.append(child_minor_faults(tmp_path, argv))
    assert faults[1] - faults[0] < allowed, faults
