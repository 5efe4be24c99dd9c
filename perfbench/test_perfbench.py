"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0.1", "--trace", trace,
                  "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in run.WORKLOADS:
        for metric in SPEC[kind]:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0 or metric["name"] == "trace.overhead_encrypt_MBps"
    for metric in SPEC[kind]:
        assert any(line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    assert any(line.startswith("failed_ratio 0 (0 failed of ") for line in lines)


def test_single_workload_prints_exactly_the_declared_metrics():
    proc = _bench("--workload", "small", "--seed", "4", "--seconds", "0.1", "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bulk", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def small_set(tmp_path) -> inputs.InputSet:
    return inputs.generate("corpus", 5, tmp_path / "in", scale=0.01)


def test_inputs_are_seeded_and_sized_by_workload(tmp_path, small_set):
    again = inputs.generate("corpus", 5, tmp_path / "again", scale=0.01)
    other = inputs.generate("corpus", 6, tmp_path / "other", scale=0.01)
    assert again.sha256 == small_set.sha256
    assert other.sha256 != small_set.sha256
    assert other.total_bytes == small_set.total_bytes
    assert sum(small_set.class_bytes.values()) == small_set.total_bytes
    assert all(f.size <= inputs.CHUNK for f in inputs.generate("small", 1, tmp_path / "s").files)


def test_corrupted_plaintext_output_counts_as_a_failure(tmp_path, small_set):
    source = small_set.files[0]
    good, bad = tmp_path / "good", tmp_path / "bad"
    data = bytearray(source.path.read_bytes())
    good.write_bytes(data)
    data[len(data) // 2] ^= 0x01
    bad.write_bytes(data)
    tally = checks.Tally()
    assert checks.check_plaintext(tally, 0, "decrypt", source, good)
    assert not checks.check_plaintext(tally, 0, "decrypt", source, bad)
    assert not checks.check_plaintext(tally, 3, "decrypt", source, good)  # nonzero exit
    assert not checks.check_plaintext(tally, 0, "audit", source, tmp_path / "missing")
    assert (tally.attempted, tally.failed) == (4, 3)


def test_corrupted_cipher_and_key_outputs_count_as_failures(tmp_path, small_set):
    source = max(small_set.files, key=lambda f: f.size)
    blocks = (source.size + 1) // 2
    ct, key = tmp_path / "ct", tmp_path / "key"
    header = b"GCDK\x01" + source.size.to_bytes(8, "big")
    ct.write_bytes(source.cipher)
    key.write_bytes(header + bytes(5 * blocks))
    tally = checks.Tally()
    assert checks.check_encrypt(tally, 0, source, ct, key)
    flipped = bytearray(source.cipher)
    flipped[0] ^= 0x80
    ct.write_bytes(flipped)
    assert not checks.check_encrypt(tally, 0, source, ct, key)
    ct.write_bytes(source.cipher)
    key.write_bytes(header + bytes(5 * blocks - 1))  # breaks the size law
    assert not checks.check_encrypt(tally, 0, source, ct, key)
    assert tally.failed == 2


def _write_report(path: Path, files: list[inputs.InputFile]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(checks.CORPUS_COLUMNS)
        for f in files:
            blocks = (f.size + 1) // 2
            writer.writerow([f.path.name, f.size, blocks, "0.001", "0.001", f"{f.chi_square:.2f}",
                             f.degrees_of_freedom, "12.50", f"{100 * (1 - blocks / f.size):.1f}"])


def test_corrupted_corpus_row_counts_as_a_failure(tmp_path, small_set):
    report = tmp_path / "report.csv"
    _write_report(report, small_set.files)
    tally = checks.Tally()
    assert checks.check_corpus(tally, 0, report, small_set.files)
    assert tally.attempted == len(small_set.files) + 1 and tally.failed == 0

    rows = list(csv.reader(report.open(newline="")))
    rows[1][5] = f"{float(rows[1][5]) + 1:.2f}"  # chi_square off by one
    rows[2][6] = ""  # incomplete row
    with report.open("w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    tally = checks.Tally()
    assert not checks.check_corpus(tally, 0, report, small_set.files)
    assert tally.failed == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == ("p90", 90.0)
    assert run.tail([float(i) for i in range(36, 0, -1)]) == ("p72", 26.0)
    assert run.tail([float(i) for i in range(1, 20)]) == ("max", 19.0)
    assert run.tail([1.0, 5.0, 3.0]) == ("max", 5.0)


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(layer_map) == {m["name"] for m in SPEC["per_layer"]}
    for target in layer_map.values():
        assert set(target["moves"]) <= end_to_end and target["workload"] in workloads
