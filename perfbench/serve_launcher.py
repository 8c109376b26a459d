"""Start ``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS.json serve --root R ...``

Installs the per-layer wrappers of :mod:`layers`, then runs the same CLI
entry point as ``python -m repro serve`` with the remaining arguments.
When the server stops (SIGTERM or SIGINT) the recorded spans are written
to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from layers import Recorder, Wrappers


def main(argv: "list[str]") -> int:
    from repro.cli import main as repro_main
    from repro.obs.registry import get_registry

    spans_path, repro_args = argv[0], argv[1:]
    recorder = Recorder()
    Wrappers(recorder).install_serve()
    try:
        return repro_main(repro_args)
    finally:
        retries = get_registry().get("repro_store_retries_total")
        recorder.dump(spans_path, retries=retries.value() if retries is not None else 0.0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
