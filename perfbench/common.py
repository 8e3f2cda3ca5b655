"""Shared pieces of the benchmark: timing statistics, answer checks, results.

Nothing here imports the program; the workload modules do.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "Percentile",
    "percentile",
    "peak_rss_mb",
    "exact_balls",
    "rect_scan",
    "Outcome",
    "environment",
    "write_record",
    "log",
    "OUT_DIR",
]

#: where runs leave span dumps, result records and live-node data
OUT_DIR = Path(__file__).resolve().parent / "_out"
REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Percentile:
    """A percentile of a latency sample, with the sample it came from."""

    value: float
    n: int
    beyond: int

    def as_dict(self) -> dict[str, float]:
        return {"value": self.value, "n": self.n, "beyond": self.beyond}


def percentile(samples: Any, q: float) -> Percentile:
    """The ``q``-th percentile (0-100) and how many samples lie beyond it;
    0 with ``n=0`` for an empty sample."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        return Percentile(0.0, 0, 0)
    value = float(np.percentile(arr, q))
    return Percentile(value, int(arr.size), int(np.count_nonzero(arr > value)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exact_balls(data: np.ndarray, queries: np.ndarray, radii: np.ndarray,
                block: int = 64) -> list[np.ndarray]:
    """Ids of ``data`` rows within Euclidean distance ``radii[i]`` of query i.

    A blocked matrix product finds candidates with a generous rounding
    margin; each candidate's distance is then computed directly (difference,
    squared sum, square root), so the answer is an exact linear scan.
    """
    sq = np.einsum("ij,ij->i", data, data)
    out: list[np.ndarray] = []
    for s in range(0, len(queries), block):
        qs = queries[s : s + block]
        r = np.asarray(radii[s : s + block], dtype=np.float64)
        qq = np.einsum("ij,ij->i", qs, qs)
        d2 = sq[None, :] - 2.0 * (qs @ data.T) + qq[:, None]
        d2 -= 1e-6 * (sq[None, :] + qq[:, None]) + 1e-9
        near = d2 <= (r * r)[:, None]
        for j in range(len(qs)):
            cand = np.flatnonzero(near[j])
            diff = data[cand] - qs[j]
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            out.append(cand[dist <= r[j]])
    return out


def rect_scan(points: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Row positions of ``points`` inside the closed rectangle."""
    return np.flatnonzero(np.all((points >= lows) & (points <= highs), axis=1))


@dataclass
class Outcome:
    """Answer-check tally of one run: every operation attempted, every miss.

    ``record_query`` compares one returned id set with the exact one; a
    query that timed out or raised passes ``got=None``.  Mismatches are kept
    (up to a few, for the report) and never abort the run.
    """

    attempted: int = 0
    failed: int = 0
    exact_total: int = 0
    exact_found: int = 0
    examples: list[str] = field(default_factory=list)

    def record_query(self, label: str, got: Any, exact: np.ndarray) -> bool:
        self.attempted += 1
        want = np.unique(np.asarray(exact, dtype=np.int64))
        self.exact_total += len(want)
        if got is None:
            self.failed += 1
            self._note(f"{label}: no answer")
            return False
        got = np.asarray(got, dtype=np.int64)
        uniq = np.unique(got)
        self.exact_found += len(np.intersect1d(uniq, want, assume_unique=True))
        ok = len(uniq) == len(got) and np.array_equal(uniq, want)
        if not ok:
            self.failed += 1
            missing = np.setdiff1d(want, uniq)[:3].tolist()
            extra = np.setdiff1d(uniq, want)[:3].tolist()
            self._note(f"{label}: {len(got)} ids returned, {len(want)} exact; "
                       f"missing {missing} extra {extra}")
        return ok

    def record_op(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(f"{label}: {detail}")

    def _note(self, text: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(text)

    @property
    def recall(self) -> float:
        return 1.0 if self.exact_total == 0 else self.exact_found / self.exact_total

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _source_digest() -> str:
    """SHA-256 over the program's source files (the checkout need not be git)."""
    h = hashlib.sha256()
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str | None:
    """HEAD's commit id when the checkout itself holds a ``.git`` directory."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def environment(seed: int, workload: str, sizes: dict[str, Any]) -> dict[str, Any]:
    """What a result depends on besides the code: versions, machine, inputs."""
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "workload": workload,
        "sizes": sizes,
    }


def write_record(name: str, record: dict[str, Any]) -> Path:
    """Persist one run's full record under :data:`OUT_DIR`."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=float))
    return path


def log(*parts: Any) -> None:
    """Progress lines go to stderr; stdout ends with the result line."""
    print(*parts, file=sys.stderr, flush=True)
