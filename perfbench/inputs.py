"""Seeded input sets for the perfbench workloads, and the values they should produce.

Every file is cut from one stream of mixed content. The stream is made of
16 KiB segments whose classes come in fixed shares (see ``SHARES``) and in
a seed-shuffled order, so every seed measures the same mix of work:
``np.gcd`` is data-dependent, and 64 MiB of zeros encrypts about twice as
fast as 64 MiB of random bytes. File names and sizes are fixed per
workload; the seed chooses the bytes and the order of the segments.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MiB = 1 << 20
KiB = 1 << 10
SEGMENT = 16 * KiB
CHUNK = 64 * KiB  # one gcdcipher chunk of plaintext; "small" files fit in one

# content classes and their fixed shares of the stream's segments
SHARES = (("random", 0.50), ("text", 0.30), ("zeros", 0.20))

# text-like bytes: space, lower-case letters by rough English frequency,
# a few capitals, digits, punctuation and newlines
_TEXT = np.frombuffer(b" etaoinshrdlucmfwygpbvkxjqzETAOIN0123456789.,;:'\"-()\n", dtype=np.uint8)
_TEXT_WEIGHTS = np.array(
    [18.0, 10.2, 7.3, 6.6, 6.2, 5.7, 5.5, 5.1, 4.9, 4.8, 3.4, 3.3, 2.3, 2.2, 2.0, 1.9,
     1.6, 1.6, 1.6, 1.3, 1.2, 0.8, 0.6, 0.15, 0.1, 0.1, 0.07]
    + [0.3] * 6 + [0.2] * 10 + [0.9, 0.9, 0.2, 0.1, 0.2, 0.2, 0.2, 0.1, 0.1, 1.8]
)
_TEXT_P = _TEXT_WEIGHTS / _TEXT_WEIGHTS.sum()


def mixed_stream(rng: np.random.Generator, n: int) -> tuple[np.ndarray, dict[str, int]]:
    """n bytes of mixed content, and the number of bytes of each class."""
    nseg = max(1, -(-n // SEGMENT))
    counts = [round(share * nseg) for _, share in SHARES]
    counts[0] += nseg - sum(counts)
    classes = np.repeat(np.arange(len(SHARES)), counts)
    rng.shuffle(classes)
    segs = np.zeros((nseg, SEGMENT), dtype=np.uint8)
    rows = np.flatnonzero(classes == 0)
    segs[rows] = rng.integers(0, 256, size=(len(rows), SEGMENT), dtype=np.uint8)
    rows = np.flatnonzero(classes == 1)
    segs[rows] = rng.choice(_TEXT, size=(len(rows), SEGMENT), p=_TEXT_P)
    # class 2 (zeros) is already zero
    stream = segs.reshape(-1)[:n]
    per_byte = np.repeat(classes, SEGMENT)[:n]
    tally = np.bincount(per_byte, minlength=len(SHARES))
    return stream, {name: int(tally[i]) for i, (name, _) in enumerate(SHARES)}


def _ladder(count: int, low: int, high: int) -> list[int]:
    """count sizes spread evenly over [low, high], every other one odd."""
    if count == 1:
        return [high]
    sizes = [low + (high - low) * i // (count - 1) for i in range(count)]
    return [s - (s % 2) - (i % 2) if s > 2 else s for i, s in enumerate(sizes)]


def workload_sizes(workload: str, scale: float = 1.0) -> dict[str, list[int]]:
    """File sizes per role; scale < 1 shrinks every size (for quick test runs)."""

    def s(n: int) -> int:
        return max(3, int(n * scale))

    if workload == "bulk":
        # one large file with an odd-length tail, well past one chunk
        return {"big": [s(24 * MiB) | 1]}
    if workload == "corpus":
        return {
            "small": _ladder(max(2, int(300 * scale)), s(1 * KiB), s(CHUNK)),
            "medium": _ladder(max(1, int(12 * scale)), s(900 * KiB), s(1100 * KiB)),
            "large": _ladder(2, s(16 * MiB) - 1, s(16 * MiB)),
        }
    if workload == "small":
        return {"small": _ladder(max(2, int(8 * scale)), s(4 * KiB), s(CHUNK))}
    raise ValueError(f"unknown workload {workload!r}")


@dataclass(frozen=True)
class InputFile:
    path: Path
    size: int
    cipher: bytes  # the cipher bytes gcdcipher must produce, from our own gcd
    chi_square: float
    degrees_of_freedom: int


@dataclass
class InputSet:
    directory: Path
    files: list[InputFile]
    class_bytes: dict[str, int]
    sha256: str
    roles: dict[str, list[InputFile]]  # files by role, each list in ladder order

    @property
    def total_bytes(self) -> int:
        return sum(f.size for f in self.files)

    def shares(self) -> dict[str, float]:
        return {k: v / self.total_bytes for k, v in self.class_bytes.items()}


def own_cipher(data: np.ndarray) -> np.ndarray:
    """Cipher bytes by the paper's rule: gcd of each byte pair, odd tail self-paired."""
    if len(data) % 2:
        data = np.append(data, data[-1])
    return np.gcd(data[0::2], data[1::2])


def own_chi_square(data: np.ndarray, cipher: np.ndarray) -> tuple[float, int]:
    """Pearson statistic of cipher byte counts against source byte counts."""
    expected = np.bincount(data, minlength=256).astype(np.float64)
    observed = np.bincount(cipher, minlength=256).astype(np.float64)
    present = expected > 0
    diff = observed[present] - expected[present]
    return float(np.sum(diff * diff / expected[present])), int(present.sum()) - 1


def generate(workload: str, seed: int, directory: Path, scale: float = 1.0) -> InputSet:
    """Write the workload's input files into directory and return their description."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    roles = workload_sizes(workload, scale)
    stream, class_bytes = mixed_stream(rng, sum(map(sum, roles.values())))
    directory.mkdir(parents=True)
    digest = hashlib.sha256()
    by_role: dict[str, list[InputFile]] = {}
    offset = 0
    for role, sizes in roles.items():
        for index, size in enumerate(sizes):
            data = stream[offset : offset + size]
            offset += size
            path = directory / f"{role}-{index:03d}.bin"
            path.write_bytes(data.tobytes())
            digest.update(path.name.encode() + b"\0" + data.tobytes())
            cipher = own_cipher(data)
            chi, dof = own_chi_square(data, cipher)
            by_role.setdefault(role, []).append(InputFile(path, size, cipher.tobytes(), chi, dof))
    files = sorted((f for entries in by_role.values() for f in entries), key=lambda f: f.path.name)
    return InputSet(directory, files, class_bytes, digest.hexdigest(), by_role)
