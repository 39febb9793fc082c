"""Traced stand-in for `python -m rotorspec.cli`, one request per process.

    python3 rotorbench/traced_cli.py SPANS.jsonl REQUEST_ID CLI_ARGS...

Times the import of rotorspec.cli, installs the layer wrappers, runs
rotorspec.cli.main(CLI_ARGS) and writes the spans, counters and cache
figures as JSON lines to SPANS.jsonl.  Exits with main's exit code.
"""

from __future__ import annotations

import sys
import time

from spans import Instrumentation, SpanRecorder, write_jsonl


def main() -> int:
    out_path, request_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import rotorspec.cli

    import_s = time.perf_counter() - start
    rec = SpanRecorder()
    rec.request = request_id
    inst = Instrumentation(rec)
    inst.install()
    try:
        code = rotorspec.cli.main(argv)
    finally:
        sys.stdout.flush()
        extra = [
            {"record": "import_s", "value": import_s},
            {"record": "counts", "value": dict(rec.counts)},
            {"record": "cache", "value": inst.cache_info()},
            {"record": "absent", "value": inst.absent},
        ]
        write_jsonl(out_path, rec.spans, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
