"""Start ``repro-kgc serve`` with the layer tracer installed.

Usage (by ``run.py``)::

    python3 perfbench/serve_launcher.py <layers.json> <spans.jsonl> serve --artifact ...

Imports the CLI (timed as ``cli.import_s``), installs the wrappers of
``tracing.py`` and calls ``repro.cli.main`` with the remaining arguments.
When the server stops (SIGINT), it writes the per-layer self times of the
serving window — from the first request decoded to the last reply encoded —
to ``layers.json`` and the spans to ``spans.jsonl``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SERVE_WINDOW = ("serve.wire_s",)


def main(argv) -> int:
    layers_path, spans_path, cli_args = Path(argv[1]), Path(argv[2]), argv[3:]
    started = time.perf_counter()
    import repro.cli

    import_seconds = time.perf_counter() - started
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import TIME_METRICS, Tracer
    from worker import provenance

    tracer = Tracer().install()
    try:
        code = repro.cli.main(cli_args)
    finally:
        tracer.uninstall()
        table = tracer.table()
        window = tracer.window(SERVE_WINDOW)
        table["cli.import_s"] = import_seconds
        table["trace.run_s"] = window
        table["unattributed_s"] = window - sum(table[name] for name in TIME_METRICS)
        stamp = provenance()
        tracer.write_spans(spans_path, stamp)
        layers_path.write_text(json.dumps(table))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
