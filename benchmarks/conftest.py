"""Shared benchmark fixtures.

Every bench writes its rendered report (the paper-layout tables) to
``benchmarks/reports/<name>.txt`` so results survive pytest's output
capture.
"""

import pathlib

import pytest

REPORTS_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def report_writer():
    """``(name, text) → path``: persist a report and echo it to stdout."""
    REPORTS_DIR.mkdir(exist_ok=True)

    def write(name, text):
        path = REPORTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[report saved to {path}]")
        return path

    return write


@pytest.fixture(scope="session")
def bench_suite_names():
    """Circuits used by the scaling benches (smallest → largest)."""
    return ["c432", "c880", "c499", "c1355", "c1908", "c2670", "c3540",
            "c5315", "c6288", "c7552"]
