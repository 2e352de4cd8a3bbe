"""Small helpers shared by the benchmark's drivers, tracer and runner."""

from __future__ import annotations

import hashlib
import os
import resource
from typing import List, Optional, Sequence, Tuple


def sub_seed(seed: int, *labels: object) -> int:
    """A stable 63-bit seed derived from the run seed and some labels.

    Every input of a run (table data, traffic, sweep order) draws from its
    own derived seed, so changing one stream never shifts another.
    """
    text = ":".join([str(seed)] + [str(label) for label in labels])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``cut`` share of the
    values (0.0 for an empty sample)."""
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    kept = ordered[drop:len(ordered) - drop] or ordered
    return sum(kept) / len(kept) if kept else 0.0


def stretch_means(
    segments: Sequence[Tuple[int, float, Optional[float]]]
) -> Tuple[float, float]:
    """Events-per-second rate and mean query latency (seconds) of a run,
    each a trimmed mean over the run's stretches.

    A stretch is a fixed number of events.  Dropping the extreme tenth at
    each end leaves out a stretch a pause of the host or the collector
    slowed (or a lucky one); averaging the rest follows the slower drift
    of a shared host's speed better than a median, which ten-seed runs
    showed spreading wider.
    """
    rates = [events / seconds for events, seconds, _ in segments if seconds > 0]
    means = [mean for _, _, mean in segments if mean is not None]
    return trimmed_mean(rates), trimmed_mean(means)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        return peak_rss_mb()


def slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares slope of ``y`` over ``x`` (0.0 below two points)."""
    if len(points) < 2:
        return 0.0
    count = float(len(points))
    mean_x = sum(x for x, _ in points) / count
    mean_y = sum(y for _, y in points) / count
    spread = sum((x - mean_x) ** 2 for x, _ in points)
    if spread == 0.0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / spread
