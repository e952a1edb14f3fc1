"""Locate the checkout the benchmark runs in and import uqdim from its sources.

The benchmark always measures the ``src/`` tree next to its own directory,
never an installed copy, and refuses to run when that tree is missing.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Scratch directory for span files of traced CLI children (ignored by git).
OUT = ROOT / ".perfbench"


class CheckoutError(RuntimeError):
    """The checkout holds no uqdim sources to measure."""


def import_uqdim():
    """Import uqdim from ``ROOT/src`` and return the package."""
    if not (SRC / "uqdim" / "__init__.py").is_file():
        raise CheckoutError(f"no uqdim sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import uqdim

    if Path(uqdim.__file__).resolve().parent != SRC / "uqdim":
        raise CheckoutError(f"imported uqdim from {uqdim.__file__}, not from {SRC}")
    return uqdim


def git_commit() -> str:
    """The commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    """Facts recorded beside every result."""
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
    }
