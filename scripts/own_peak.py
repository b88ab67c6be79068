"""Run one genderedlang command, then print its own peak resident memory.

    PYTHONPATH=src python scripts/own_peak.py report pmi --corpus amod.tsv --relation amod --out pmi.tsv

The arguments are those of `python -m genderedlang.cli`.  The peak is this
process's `VmHWM` from /proc/self/status (Linux).  Unlike the `ru_maxrss` a
parent reads for its child, it does not start from the parent's own
high-water mark.  The line `own VmHWM <MB> MB` goes to standard error, and
the exit code is the command's.
"""

from __future__ import annotations

import sys
from pathlib import Path

from genderedlang.cli import main


def own_peak_mb() -> float:
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    code = main(sys.argv[1:])
    print(f"own VmHWM {own_peak_mb():.1f} MB", file=sys.stderr)
    sys.exit(code)
