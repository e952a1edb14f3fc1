"""Write the golden ``--json`` outputs of the crosscheck items.

Usage: python3 perfbench/capture_golden.py

The files under ``perfbench/golden`` hold the exact stdout of each crosscheck
command.  Regenerate them only for a deliberate change of the output
contract; a run of the benchmark fails any item whose stdout differs.
"""

from __future__ import annotations

import sys

import workloads


def main() -> int:
    workloads.GOLDEN.mkdir(exist_ok=True)
    runner = workloads.CliRunner()
    for argv in workloads.CROSSCHECK_COMMANDS:
        done = runner(argv)
        if done.returncode != 0:
            print(f"{' '.join(argv)}: exit {done.returncode}", file=sys.stderr)
            return 1
        workloads.golden_path(argv).write_bytes(done.stdout)
        print(f"wrote {workloads.golden_path(argv).name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
