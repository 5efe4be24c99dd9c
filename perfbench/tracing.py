"""In-memory spans around the calls into gcdcipher's modules.

The package is left untouched: ``Instrument.install`` rebinds the public
functions of ``filecodec`` and ``analysis`` to timing wrappers in every
module that imported them, and ``uninstall`` puts the originals back. The
stream functions also get timing proxies around the file objects passed in,
so reads and writes become child spans of the stream call; ``analyze_file``
and ``keyfile_leakage_audit`` also record their tracemalloc peak.

A span is [name, parent index, start, end, amount]; ``amount`` is bytes moved
for reads and writes, the plaintext length for stream calls and the peak
allocation for the tracemalloc-measured calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import subprocess
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType

NAME, PARENT, START, END, AMOUNT = range(5)
STREAM_FUNCTIONS = ("encrypt_stream", "decrypt_stream")
PEAK_FUNCTIONS = ("analyze_file", "keyfile_leakage_audit")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: Path, extra: dict) -> None:
        keys = ("name", "parent", "start", "end", "amount")
        spans = [dict(zip(keys, s)) for s in self.spans]
        path.write_text(json.dumps({**extra, "spans": spans}))


class _TimedFile:
    """File proxy whose reads and writes are spans."""

    def __init__(self, handle, tracer: Tracer) -> None:
        self._handle = handle
        self._tracer = tracer

    def read(self, n: int = -1) -> bytes:
        with self._tracer.span("filecodec.read") as s:
            data = self._handle.read(n)
            s[AMOUNT] = len(data)
        return data

    def write(self, data) -> int:
        with self._tracer.span("filecodec.write") as s:
            s[AMOUNT] = len(data)
            return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _wrap(tracer: Tracer, name: str, fn):
    short = name.rsplit(".", 1)[1]
    if short in STREAM_FUNCTIONS:

        @functools.wraps(fn)
        def traced(*files):
            with tracer.span(name) as s:
                s[AMOUNT] = fn(*(_TimedFile(f, tracer) for f in files))
                return s[AMOUNT]

    elif short in PEAK_FUNCTIONS:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    s[AMOUNT] = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()

    else:

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

    return traced


class Instrument:
    """Rebinds the public functions of the traced modules to span wrappers."""

    def __init__(self, tracer: Tracer, traced: list[ModuleType], importers: list[ModuleType]):
        self._patches = []  # (module, attribute, original, wrapper)
        for module in traced:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = _wrap(tracer, f"{layer}.{attr}", fn)
                for owner in importers:
                    if vars(owner).get(attr) is fn:
                        self._patches.append((owner, attr, fn, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and the largest amount."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "max_amount": 0})
        row["calls"] += 1
        row["s"] += s[END] - s[START]
        row["self_s"] += own
        row["max_amount"] = max(row["max_amount"], s[AMOUNT] or 0)
    return out


def layer_self_time(spans: list[list], root: int, layer: str) -> float:
    """Duration of span root minus the outermost spans of layer inside it."""
    start, end = spans[root][START], spans[root][END]
    covered = 0.0
    for s in spans:
        if not s[NAME].startswith(layer + ".") or not start <= s[START] <= end:
            continue
        parent = s[PARENT]
        if parent is None or not spans[parent][NAME].startswith(layer + "."):
            covered += s[END] - s[START]
    return end - start - covered


_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(python: str, env: dict, module: str) -> dict[str, float]:
    """Cumulative seconds of each package import, from ``python -X importtime``."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    times: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            times.setdefault(m.group(2), int(m.group(1)) / 1e6)
    return times
