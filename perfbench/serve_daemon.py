"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/serve_daemon.py SPANS_FILE serve ARGS...``
(with ``src`` on ``PYTHONPATH``).  The daemon runs exactly as
``python -m repro serve ARGS...`` would; when it stops, the spans it
recorded are written to ``SPANS_FILE`` as one JSON list.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    from repro import cli

    spans_file = Path(sys.argv[1])
    tracer = tracing.install(tracing.Tracer())
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        spans_file.write_text(json.dumps(
            tracing.export(tracer.spans, tracer.pid)))


if __name__ == "__main__":
    sys.exit(main())
