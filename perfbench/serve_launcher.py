"""Start ``repro.serve`` with the parent-side layer wrappers installed.

    python3 perfbench/serve_launcher.py SPANS_OUT [repro.serve arguments]

The wrappers go in before the service starts its warm pool, so they are in
place in the process that runs the front end, coalescer, store and pool.
The spans are written to ``SPANS_OUT`` when the service has drained.
"""

from __future__ import annotations

import importlib
import sys

import tracer


def main(argv) -> int:
    spans_out, rest = argv[0], argv[1:]
    entry = importlib.import_module("repro.serve.__main__")
    tr = tracer.Tracer()
    tracer.install_serve_layers(tr)
    try:
        return entry.main(rest)
    finally:
        tr.uninstall()
        tr.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
