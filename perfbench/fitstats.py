"""Summary rules shared by the benchmark and its spread checker."""

from __future__ import annotations

import hashlib
import math
import statistics
from pathlib import Path

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, min_beyond: int = 10, ladder=TAIL_LADDER) -> dict | None:
    """The highest ladder percentile with at least `min_beyond` samples above it.

    Nearest-rank: percentile p is the k-th smallest sample, k = ceil(p/100 * n),
    and n - k samples lie beyond it. None when even the lowest rung has
    fewer than `min_beyond` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in ladder:
        # rounded first so that e.g. 99.9% of 10000 is rank 9990, not 9991
        k = max(1, math.ceil(round(p * n / 100.0, 9)))
        if n - k >= min_beyond:
            best = {"percentile": p, "value": float(ordered[k - 1]), "n": n,
                    "beyond": n - k}
    return best


def fail_frac(attempted: int, failed: int) -> float:
    """Failed paired seeds over attempted paired seeds."""
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digest(root, patterns=("*.py", "*.json")) -> str:
    """Digest of a source tree, so stored output digests follow the code."""
    root = Path(root)
    h = hashlib.sha256()
    files = sorted({p for pat in patterns for p in root.rglob(pat)})
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digest(store: Path, key: str, digest: str) -> str | None:
    """Compare with the digest first recorded under `key`; record it if new.

    Returns None when the digests agree (or none was recorded yet), else a
    description of the mismatch.
    """
    path = Path(store) / f"{key}.sha256"
    if path.exists():
        expected = path.read_text().strip()
        if expected != digest:
            return f"runs.csv digest {digest[:12]} differs from first run's {expected[:12]} ({key})"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest + "\n")
    return None


def relative_spread(values) -> float:
    """Interquartile distance over the median, as the acceptance check takes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def mean_separation(obs_means, obs_covs) -> float:
    """Largest per-dimension gap between two state means, in sigma.

    The separation of acceptance check 7: sigma is the wider of the two
    states' standard deviations in each dimension.
    """
    import numpy as np

    means = np.asarray(obs_means, dtype=float)
    covs = np.asarray(obs_covs, dtype=float)
    gap = np.abs(means[0] - means[1])
    sigma = np.sqrt(np.maximum(np.diagonal(covs[0]), np.diagonal(covs[1])))
    return float((gap / sigma).max())
