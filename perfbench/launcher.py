"""Run ``uqdim`` from the checkout's sources, optionally with the span wrappers.

Usage: python3 perfbench/launcher.py [--spans FILE] -- <uqdim arguments>

With ``--spans`` the wrappers of ``tracing`` are installed before
``uqdim.cli.main`` runs, and the recorded spans are written to FILE as JSON
when it returns.
"""

from __future__ import annotations

import json
import sys

from checkout import import_uqdim


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print(__doc__, file=sys.stderr)
        return 2
    argv = argv[1:]
    import_uqdim()
    import uqdim.cli

    if spans_path is None:
        return uqdim.cli.main(argv)
    from tracing import Recorder, traced

    with traced(Recorder()) as rec:
        code = uqdim.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(rec.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
