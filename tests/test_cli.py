import csv
import random
import struct

import pytest

from gcdcipher import cli
from gcdcipher.filecodec import MAGIC, VERSION, encrypt_file


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def header(length):
    return struct.pack(">4sBQ", MAGIC, VERSION, length)


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
    out = capsys.readouterr().out
    assert "2 bytes" in out and "s" in out

    assert run_cli(["decrypt", str(ct), str(key)]) == 0
    assert (tmp_path / "pt_test.txt").read_bytes() == b"in"


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


def test_audit_recovers_plaintext(tmp_path, capsys):
    data = b"top secret contents\x00\xff!"
    _, key = encrypt_file(data)
    key_path = tmp_path / "key"
    key_path.write_bytes(key.to_bytes())
    out = tmp_path / "recovered"
    assert run_cli(["audit", str(key_path), "--out", str(out)]) == 0
    assert out.read_bytes() == data
    assert "leak" in capsys.readouterr().err


def test_audit_writes_stdout_by_default(tmp_path, capsysbinary):
    _, key = encrypt_file(b"in")
    key_path = tmp_path / "key"
    key_path.write_bytes(key.to_bytes())
    assert run_cli(["audit", str(key_path)]) == 0
    assert capsysbinary.readouterr().out == b"in"


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
    assert "a_empty.bin" in capsys.readouterr().err
    # the other three files still analyzed
    assert all(r[1] != "" for r in rows[2:])


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


@pytest.mark.parametrize(
    "files, jobs, cpus, pool_size",
    [
        (3, 64, 4, 3),  # no more workers than files
        (6, 64, 4, 4),  # no more workers than CPUs
        (6, 2, 4, 2),
        (1, 64, 4, None),  # one worker would be one process too many: run in-process
        (6, 2, None, None),  # CPU count unknown: treated as one
    ],
)
def test_corpus_clamps_jobs(tmp_path, monkeypatch, files, jobs, cpus, pool_size):
    """The pool is sized from the work; no real worker is started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    directory = make_corpus(tmp_path, count=files)
    csv_path = tmp_path / "report.csv"
    assert run_cli(["corpus", str(directory), "--csv", str(csv_path), "--jobs", str(jobs)]) == 0
    assert sizes == ([] if pool_size is None else [pool_size])
    assert len(read_rows(csv_path)) == files + 1


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


def test_corpus_missing_directory(tmp_path):
    assert run_cli(["corpus", str(tmp_path / "nope"), "--csv", str(tmp_path / "r.csv")]) == 1


def test_selftest_passes(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "65536/65536 blocks OK" in out
    assert "selftest: PASS" in out


def test_selftest_catches_table_mismatch(monkeypatch, capsys):
    ciphers, records = cli.block_table()
    broken = ciphers.copy()
    broken[105 << 8 | 110] = 1
    monkeypatch.setattr("gcdcipher.cli.block_table", lambda: (broken, records))
    assert run_cli(["selftest"]) != 0
    out = capsys.readouterr().out
    assert "block table matches encrypt_block: FAIL" in out
    assert "65536/65536 blocks OK" in out  # the scalar round trip alone passes


def test_selftest_catches_broken_gcd(monkeypatch, capsys):
    # gcd = 1 still round-trips, so the golden vectors must catch it
    monkeypatch.setattr("gcdcipher.block.gcd", lambda a, b: 1)
    assert run_cli(["selftest"]) != 0
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors_exit_1():
    assert run_cli([]) == 1
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["encrypt"]) == 1
