"""Run ``matspan.cli`` with layer spans or operator counters installed.

    python3 benchmarks/cli_child.py spans|counts OUT.json analyze FILE --json

Behaves as ``python -m matspan.cli analyze FILE --json`` (same output,
same exit code) and also writes what it recorded to OUT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402


def main():
    mode, out_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import matspan.cli

    if mode == "spans":
        rec = tracer.SpanRecorder()
        rec.install()
        rec.op = 0
        before = tracer.cache_counts()
    elif mode == "counts":
        counts = tracer.install_counters()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    try:
        rc = matspan.cli.main(argv)
    finally:
        if mode == "spans":
            record = rec.export()
            record["cache"] = tracer.cache_delta(before, tracer.cache_counts())
        else:
            record = {"counts": counts}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
