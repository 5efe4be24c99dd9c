#!/usr/bin/env python3
"""Benchmark for the gcdcipher CLI: end-to-end metrics, or per-layer metrics with --trace 1.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The untraced run drives ``python -m gcdcipher.cli`` as child processes,
closed loop with one client: each command starts after the previous one
exits, in cycles, until the next cycle would end past ``--seconds``. Every
output is checked. The traced run repeats the work in-process with spans
around the calls into each module (see tracing.py). The last line of
standard output is one JSON object; README.md describes the workloads and
metrics, and layer_map.json says which end-to-end metric each per-layer
metric should move.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
WORKLOADS = ("bulk", "corpus", "small")
PER_FILE = ("encrypt", "decrypt", "audit")
IMPORT_PROBES = 2  # fresh-interpreter imports per cycle, for setup_s
SELFTESTS = 2  # selftest runs per cycle
MAIN_PROBES = 5  # in-process cli.main calls per command for cli.main.self_s
OVERHEAD_PAIRS = 3
CHILD_TIMEOUT_S = 150
MB = 1e6
MiB = 1 << 20


@dataclass(frozen=True)
class Result:
    rc: int
    wall: float  # seconds from spawn to reaped exit
    cpu: float  # user + system seconds of the child and its reaped children
    rss_mib: float  # ru_maxrss from os.wait4: the largest single process of the child's tree
    stdout: str


class Cli:
    """Runs child processes through spawner.py and reports what each one cost."""

    def __init__(self, logs: Path) -> None:
        self.logs = logs
        logs.mkdir(parents=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self._spawner = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self._spawner.stdin.close()
        self._spawner.wait(timeout=CHILD_TIMEOUT_S)
        self._spawner.stdout.close()

    def gcdcipher(self, *args) -> Result:
        return self.spawn([sys.executable, "-m", "gcdcipher.cli", *map(str, args)])

    def spawn(self, argv: list[str]) -> Result:
        out, err = self.logs / "stdout", self.logs / "stderr"
        request = {"argv": argv, "cwd": str(self.logs), "env": self.env, "stdout": str(out),
                   "stderr": str(err), "timeout": CHILD_TIMEOUT_S}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended early")
        reply = json.loads(reply)
        if reply["rc"]:
            sys.stderr.write(f"perfbench: {' '.join(argv[1:])} exited {reply['rc']}: "
                             f"{err.read_text(errors='replace')[-500:]}\n")
        return Result(reply["rc"], reply["wall"], reply["cpu"], reply["maxrss_kib"] / 1024,
                      out.read_text(errors="replace"))


class Workload:
    """A workload's inputs, where its outputs go, and which files each command gets."""

    def __init__(self, name: str, data: inputs.InputSet, out: Path, jobs: int) -> None:
        self.name = name
        self.inputs = data
        self.out = out
        self.jobs = jobs
        out.mkdir(parents=True)
        roles = data.roles
        if name == "corpus":
            # one file of each size class through encrypt, decrypt and audit
            self.codec = [roles["large"][-1], roles["medium"][len(roles["medium"]) // 2],
                          roles["small"][len(roles["small"]) // 2]]
        else:
            self.codec = [f for files in roles.values() for f in files]

    def outputs(self, f: inputs.InputFile) -> tuple[Path, Path, Path, Path]:
        stem = f.path.stem
        return tuple(self.out / f"{kind}_{stem}" for kind in ("ct", "key", "pt", "audit"))


def timed_loop(seconds: float, body) -> tuple[int, float]:
    """Run body at least once, then again while the next run should end in time."""
    start = time.perf_counter()
    cycles, last = 0, 0.0
    while cycles == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        body()
        last = time.perf_counter() - began
        cycles += 1
    return cycles, time.perf_counter() - start


def tail(values: list[float]) -> tuple[str, float]:
    """The highest whole percentile with at least ten samples beyond it (nearest
    rank), or the maximum when that percentile would be below the median."""
    ordered = sorted(values)
    n = len(ordered)
    p = 100 * (n - 10) // n
    if p < 50:
        return "max", ordered[-1]
    return f"p{p}", ordered[-(-p * n // 100) - 1]


# ---------------------------------------------------------------- untraced


def run_untraced(wl: Workload, cli: Cli, tally: checks.Tally, seconds: float, notes: dict) -> dict:
    cli.spawn([sys.executable, "-c", "import gcdcipher.cli"])  # compiles bytecode on a fresh checkout
    imports = []
    samples: dict[str, list[tuple[Result, int]]] = {k: [] for k in (*PER_FILE, "corpus", "selftest")}

    def cycle() -> None:
        # set-up probes in every cycle, so their median spans the whole run
        for _ in range(IMPORT_PROBES):
            r = cli.spawn([sys.executable, "-c", "import gcdcipher.cli"])
            tally.record(r.rc == 0, "import gcdcipher.cli failed")
            imports.append(r.wall)
        for f in wl.codec:
            ct, key, pt, audit = wl.outputs(f)
            r = cli.gcdcipher("encrypt", f.path, "--ct", ct, "--key", key)
            samples["encrypt"].append((r, f.size))
            checks.check_encrypt(tally, r.rc, f, ct, key)
            r = cli.gcdcipher("decrypt", ct, key, "--out", pt)
            samples["decrypt"].append((r, f.size))
            checks.check_plaintext(tally, r.rc, "decrypt", f, pt)
            r = cli.gcdcipher("audit", key, "--out", audit)
            samples["audit"].append((r, f.size))
            checks.check_plaintext(tally, r.rc, "audit", f, audit)
        report = wl.out / "corpus.csv"
        r = cli.gcdcipher("corpus", wl.inputs.directory, "--csv", report, "--jobs", wl.jobs)
        samples["corpus"].append((r, wl.inputs.total_bytes))
        checks.check_corpus(tally, r.rc, report, wl.inputs.files)
        for _ in range(SELFTESTS):
            r = cli.gcdcipher("selftest")
            samples["selftest"].append((r, 0))
            checks.check_selftest(tally, r.rc, r.stdout)

    notes["cycles"], notes["measured_s"] = timed_loop(seconds, cycle)

    def mbps(kind: str) -> float:
        return sum(n for _, n in samples[kind]) / sum(r.wall for r, _ in samples[kind]) / MB

    def rss(kind: str) -> float:
        return max(r.rss_mib for r, _ in samples[kind])

    per_file = [r for kind in PER_FILE for r, _ in samples[kind]]
    notes["tail"], tail_s = tail([r.wall for r in per_file])
    notes["samples"] = {k: len(v) for k, v in samples.items()} | {"per_file": len(per_file), "import": len(imports)}
    return {
        "setup_s": statistics.median(imports),
        "encrypt_MBps": mbps("encrypt"),
        "decrypt_MBps": mbps("decrypt"),
        "audit_MBps": mbps("audit"),
        "corpus_MBps": mbps("corpus"),
        "cli_p50_ms": 1e3 * statistics.median(r.wall for r in per_file),
        "cli_tail_ms": 1e3 * tail_s,
        "cli_cpu_ms": 1e3 * statistics.median(r.cpu for r in per_file),
        "selftest_s": statistics.median(r.wall for r, _ in samples["selftest"]),
        "encrypt_rss_MiB": rss("encrypt"),
        "decrypt_rss_MiB": rss("decrypt"),
        "audit_rss_MiB": rss("audit"),
        "corpus_rss_MiB": rss("corpus"),
    }


# ---------------------------------------------------------------- traced


def run_traced(wl: Workload, cli: Cli, tally: checks.Tally, seconds: float, notes: dict) -> dict:
    sys.path.insert(0, str(SRC))
    import gcdcipher
    from gcdcipher import analysis, block, filecodec
    from gcdcipher import cli as gcli

    tracer = tracing.Tracer()
    instrument = tracing.Instrument(tracer, [filecodec, analysis], [gcdcipher, filecodec, analysis, gcli])

    def main(*args) -> int:
        """gcdcipher's main() in this process, inside a cli.main span."""
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()), tracer.span("cli.main"):
            try:
                return gcli.main([str(a) for a in args])
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                print(f"perfbench: {args[0]} raised {exc!r}", file=sys.__stderr__)
                return -1

    corpus_walls = []

    def cycle() -> None:
        instrument.install()
        try:
            for f in wl.codec:
                ct, key, pt, audit = wl.outputs(f)
                checks.check_encrypt(tally, main("encrypt", f.path, "--ct", ct, "--key", key), f, ct, key)
                checks.check_plaintext(tally, main("decrypt", ct, key, "--out", pt), "decrypt", f, pt)
                checks.check_plaintext(tally, main("audit", key, "--out", audit), "audit", f, audit)
            for f in wl.inputs.files:  # serial analysis, for the pool's efficiency
                report = analysis.analyze_file(f.path.read_bytes())
                tally.record(
                    (report.source_size, report.cipher_size, report.degrees_of_freedom)
                    == (f.size, len(f.cipher), f.degrees_of_freedom)
                    and abs(report.chi_square - f.chi_square) <= 1e-9 * max(1.0, f.chi_square),
                    f"analyze_file {f.path.name}: report differs from our own numbers",
                )
        finally:
            instrument.uninstall()
        report_path = wl.out / "corpus.csv"
        r = cli.gcdcipher("corpus", wl.inputs.directory, "--csv", report_path, "--jobs", wl.jobs)
        corpus_walls.append(r.wall)
        checks.check_corpus(tally, r.rc, report_path, wl.inputs.files)
        with tracer.span("block.encrypt_block"):
            encrypted = [block.encrypt_block(x, y) for x in range(256) for y in range(256)]
        with tracer.span("block.decrypt_block"):
            decrypted = [block.decrypt_block(c, rec) for c, rec in encrypted]
        tally.record(decrypted == [(x, y) for x in range(256) for y in range(256)],
                     "block sweep: decrypt_block does not invert encrypt_block")

    cycles, notes["measured_s"] = timed_loop(seconds, cycle)
    notes["cycles"] = cycles
    cycle_spans = len(tracer.spans)
    agg = tracing.aggregate(tracer.spans)

    # cli.main minus its filecodec spans, on a one-chunk file
    probe = wl.out / "probe.bin"
    probe.write_bytes(wl.codec[0].path.read_bytes()[: inputs.CHUNK - 1])
    ct, key, pt, audit = (wl.out / f"{k}_probe" for k in ("ct", "key", "pt", "audit"))
    instrument.install()
    try:
        roots = []
        for _ in range(MAIN_PROBES):
            for args in (("encrypt", probe, "--ct", ct, "--key", key), ("decrypt", ct, key, "--out", pt),
                         ("audit", key, "--out", audit)):
                roots.append(len(tracer.spans))
                tally.record(main(*args) == 0, f"in-process {args[0]} of the probe file failed")
        main_self = statistics.median(tracing.layer_self_time(tracer.spans, i, "filecodec") for i in roots)
    finally:
        instrument.uninstall()

    # tracing overhead on in-process encrypt of the workload's largest codec file
    big = max(wl.codec, key=lambda f: f.size)
    ct, key, _, _ = wl.outputs(big)
    walls = {False: [], True: []}
    for _ in range(OVERHEAD_PAIRS):
        for traced in (False, True):
            if traced:
                instrument.install()
            try:
                with redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    rc = gcli.main(["encrypt", str(big.path), "--ct", str(ct), "--key", str(key)])
                    walls[traced].append(time.perf_counter() - start)
            finally:
                instrument.uninstall()
            checks.check_encrypt(tally, rc, big, ct, key)
    speed = {t: big.size / statistics.median(w) / MB for t, w in walls.items()}
    notes["encrypt_MBps_in_process"] = {"untraced": speed[False], "traced": speed[True]}

    imports = [tracing.import_times(sys.executable, cli.env, "gcdcipher.cli") for _ in range(3)]
    tracer.dump(WORK / f"trace-{wl.name}.json", {"workload": wl.name, "cycles": cycles,
                                                 "cycle_spans": cycle_spans})

    spans = tracer.spans[:cycle_spans]
    encrypt_ids = {i for i, s in enumerate(spans) if s[tracing.NAME] == "filecodec.encrypt_stream"}
    written = sum(s[tracing.AMOUNT] for s in spans
                  if s[tracing.NAME] == "filecodec.write" and s[tracing.PARENT] in encrypt_ids)
    plain = sum(spans[i][tracing.AMOUNT] for i in encrypt_ids)

    def per_cycle(name: str, field: str) -> float:
        return agg[name][field] / cycles

    return {
        "filecodec.encrypt_stream.self_s": per_cycle("filecodec.encrypt_stream", "self_s"),
        "filecodec.decrypt_stream.self_s": per_cycle("filecodec.decrypt_stream", "self_s"),
        "filecodec.read.s": per_cycle("filecodec.read", "s"),
        "filecodec.read.calls": per_cycle("filecodec.read", "calls"),
        "filecodec.write.s": per_cycle("filecodec.write", "s"),
        "filecodec.write.calls": per_cycle("filecodec.write", "calls"),
        "filecodec.write.bytes_per_plain_byte": written / plain,
        "filecodec.encrypt_file.s": per_cycle("filecodec.encrypt_file", "s"),
        "filecodec.encrypt_file.calls": per_cycle("filecodec.encrypt_file", "calls"),
        "filecodec.decrypt_file.s": per_cycle("filecodec.decrypt_file", "s"),
        "filecodec.parse_key_file.s": per_cycle("filecodec.parse_key_file", "s"),
        "analysis.analyze_file.self_s": per_cycle("analysis.analyze_file", "self_s"),
        "analysis.analyze_file.peak_alloc_MiB": agg["analysis.analyze_file"]["max_amount"] / MiB,
        "analysis.avalanche.self_s": per_cycle("analysis.avalanche", "self_s"),
        "analysis.hamming_distance.s": per_cycle("analysis.hamming_distance", "s"),
        "analysis.frequency_table.s": per_cycle("analysis.frequency_table", "s"),
        "analysis.chi_square.s": per_cycle("analysis.chi_square", "s"),
        "analysis.keyfile_leakage_audit.s": per_cycle("analysis.keyfile_leakage_audit", "s"),
        "analysis.keyfile_leakage_audit.peak_alloc_MiB":
            agg["analysis.keyfile_leakage_audit"]["max_amount"] / MiB,
        "block.encrypt_block.us": 1e6 * per_cycle("block.encrypt_block", "s") / 65536,
        "block.decrypt_block.us": 1e6 * per_cycle("block.decrypt_block", "s") / 65536,
        "cli.import.numpy_s": statistics.median(t["numpy"] for t in imports),
        "cli.import.gcdcipher_s": statistics.median(t["gcdcipher.cli"] - t["numpy"] for t in imports),
        "cli.main.self_s": main_self,
        "cli.corpus.pool_efficiency":
            agg["analysis.analyze_file"]["s"] / (wl.jobs * sum(corpus_walls)),
        "trace.overhead_encrypt_MBps": speed[True] - speed[False],
    }


# ---------------------------------------------------------------- driver


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": _loadavg(),
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float, spec: dict) -> dict:
    env = environment()
    jobs = min(2, env["nproc"])
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        data = inputs.generate(name, seed, work / "in", scale)
        wl = Workload(name, data, work / "out", jobs)
        cli = Cli(work / "logs")
        try:
            tally = checks.Tally()
            notes: dict = {}
            runner = run_traced if trace else run_untraced
            metrics = runner(wl, cli, tally, seconds, notes)
        finally:
            cli.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")

    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}; "
          f"loadavg before {env['loadavg']}, after {_loadavg()}")
    print("limits: wall-clock timings on a host that other work may share; inputs were just "
          "written and sit in the page cache, which the benchmark does not drop; peak RSS "
          f"comes from os.wait4, so for corpus --jobs {jobs} it is the largest single "
          "process of the tree, not the sum")
    shares = ", ".join(f"{k} {v:.4f}" for k, v in data.shares().items())
    print(f"inputs: {data.total_bytes} bytes in {len(data.files)} files; content shares {shares}; "
          f"sha256 {data.sha256}")
    print(f"measured: {notes['cycles']} cycles in {notes['measured_s']:.2f} s, corpus --jobs {jobs}")
    if not trace:
        print(f"samples: {notes['samples']}; cli_tail_ms is {notes['tail']} of "
              f"{notes['samples']['per_file']} encrypt/decrypt/audit invocations")
    else:
        print(f"in-process encrypt MB/s: {notes['encrypt_MBps_in_process']}; "
              f"spans in {WORK.name}/trace-{name}.json")
    layer_map = json.loads(Path(__file__).with_name("layer_map.json").read_text()) if trace else {}
    for m in declared:
        line = f"  {m['name']:<46} {metrics[m['name']]:>14.6g} {m['unit']}"
        if m["name"] in layer_map:
            target = layer_map[m["name"]]
            line += f"  (moves {', '.join(target['moves']) or 'nothing'} on {target['workload']})"
        print(line)
    ratio = tally.failed / tally.attempted
    print(f"failed_ratio {ratio:.6g} ({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for quick checks of the benchmark")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "gcdcipher" / "cli.py").is_file():
        print(f"perfbench: no gcdcipher sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), args.scale, spec) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
