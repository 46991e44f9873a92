"""Run ``repro serve`` with the benchmark's layer tracing installed.

    python3 perfbench/serve_launcher.py SPANS_JSON serve [repro serve arguments]

The wrappers go in before ``repro.cli.main`` runs, so before the server's
first ``resolve_engine``.  Tracing starts disabled and SIGUSR1 turns it on,
which lets one run measure the server both ways.  When the server exits
(SIGINT shuts it down gracefully) the spans and counters are written to
SPANS_JSON.
"""

import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracing  # noqa: E402


def main(argv) -> int:
    common.require_source()
    spans_path, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer(enabled=False)
    tracer.phase = "warm"
    tracing.install(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: setattr(tracer, "enabled", True))

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
