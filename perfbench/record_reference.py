"""Regenerate ``reference.json``: the op-0 histories at the default seed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Run it only when a change is *meant* to alter the J histories, and say so
in the change; the benchmark compares against this file on every run at
the default seed.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import workloads


def main() -> None:
    ref = {}
    for name in ("ns_dp", "pinn_laplace"):
        w = workloads.make(name, workloads.DEFAULT_SEED)
        w.setup(lambda _: nullcontext())
        ref[name] = w.reference(w.run(w.inputs(0)))
    with open(workloads.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
