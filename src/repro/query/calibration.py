"""The host fingerprint that benchmark results are stamped with.

Timings measured on one machine say little about another, so the
benchmark harness records this identity next to every result it writes.
"""

from __future__ import annotations

import os
import platform
from typing import Any, Dict

#: Read by nothing in the package; kept because benchmark tooling imports it.
DEFAULT_CALIBRATION_PATH = os.path.join(
    "benchmarks", "results", "calibration.json"
)


def host_fingerprint() -> Dict[str, Any]:
    """CPU count, platform and Python version of the running host."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
