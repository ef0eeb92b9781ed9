"""EXPERIMENTS.md's headline table quotes Table 3 as the artifact has it.

``benchmarks/bench_table3_performance.py`` regenerates
``benchmarks/artifacts/table3_performance.txt``; every Table 3 number the
headline table of EXPERIMENTS.md quotes must appear there at the
artifact's precision, so the two cannot drift apart silently.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
ARTIFACT = ROOT / "benchmarks" / "artifacts" / "table3_performance.txt"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"

METHODS = ("DAL", "PINN", "DP")

#: (start of the headline row's claim cell, problem, metric, methods,
#: how the row spells the numbers).
QUOTES = [
    ("DP drives Laplace cost", "laplace", "Final cost J", ("DP",), "→ {} (150 iters)"),
    ("DAL works on Laplace", "laplace", "Final cost J", ("DAL",), "J → {} (see"),
    ("PINN finds a usable Laplace control", "laplace", "Final cost J", ("PINN",),
     "physical J of its control {} at"),
    ("PINN finds a usable Laplace control", "laplace", "Time (s)", ("PINN",),
     "2k epochs, {} s"),
    ("**DAL fails on NS at Re=100**", "navier-stokes", "Final cost J", ("DAL",),
     "→ {} (final"),
    ("DP succeeds on NS", "navier-stokes", "Final cost J", ("DP",), "→ {} (60 iters"),
    ("NS final ordering DAL > PINN > DP", "navier-stokes", "Final cost J", METHODS,
     "| {} > {} > {} |"),
    ("DP memory grows with refinements k", "navier-stokes", "Peak mem. (MiB)",
     ("DP", "DAL"), "{} MiB (DP) vs {} MiB (DAL)"),
]


def _table3():
    """``{(problem, metric, method): cell}`` from the artifact."""
    cells = {}
    for line in ARTIFACT.read_text().splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 5 and parts[0] in ("laplace", "navier-stokes"):
            problem, metric, *values = parts
            cells.update(
                {(problem, metric, m): v for m, v in zip(METHODS, values)}
            )
    return cells


def _doc_spelling(cell: str) -> str:
    """The artifact's ``1.50e-03`` is written ``1.50e-3`` in the docs."""
    mantissa, e, exponent = cell.partition("e")
    return f"{mantissa}e{int(exponent)}" if e else cell


def _headline_row(claim: str) -> str:
    rows = [
        line for line in EXPERIMENTS.read_text().splitlines()
        if line.startswith(f"| {claim}")
    ]
    assert len(rows) == 1, f"expected one headline row for {claim!r}"
    return rows[0]


def test_artifact_has_every_cell():
    cells = _table3()
    for problem in ("laplace", "navier-stokes"):
        for metric in ("Time (s)", "Peak mem. (MiB)", "Epochs / Iters.", "Final cost J"):
            for method in METHODS:
                assert (problem, metric, method) in cells


@pytest.mark.parametrize(
    "claim,problem,metric,methods,spelling", QUOTES,
    ids=[f"{q[1]}-{q[2]}-{'/'.join(q[3])}" for q in QUOTES],
)
def test_headline_quotes_artifact(claim, problem, metric, methods, spelling):
    cells = _table3()
    quoted = spelling.format(
        *(_doc_spelling(cells[(problem, metric, m)]) for m in methods)
    )
    assert quoted in _headline_row(claim)
