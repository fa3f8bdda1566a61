"""Run one ``anesopt`` command with the benchmark's tracing wrappers.

    python perfbench/traced_cli.py SPANS_JSON <anesopt arguments...>

Writes the spans to SPANS_JSON when the command ends, or when SIGTERM (the
case budget running out) stops it, and exits with the command's code, or
124 when stopped.
"""
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import anesopt.cli  # noqa: E402

import tracing  # noqa: E402


def _stop(signum, frame):
    raise tracing.Budget()


def main(path: str, argv: list) -> int:
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    root = tracer.open("process", None)
    signal.signal(signal.SIGTERM, _stop)
    rc = 124
    try:
        rc = anesopt.cli.main(argv)
    except tracing.Budget:
        pass
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        tracing.uninstall(saved)
        with open(path, "w") as fh:
            json.dump(tracer.export(root), fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2:]))
