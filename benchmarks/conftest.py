"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (table/figure), asserts the
paper's qualitative shape, and writes the rendered artifact to
``benchmarks/output/<name>.txt`` so the data survives captured stdout.
Artifacts that carry host timings go to ``benchmarks/output/host/``
instead, which is not tracked: they change on every run, and a test
run must leave the working tree clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"
HOST_OUTPUT_DIR = OUTPUT_DIR / "host"


def _writer(directory: Path):
    directory.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> Path:
        path = directory / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        return path

    return write


@pytest.fixture
def artifact_writer():
    """Returns a writer: ``write(name, text)`` -> output file path."""
    return _writer(OUTPUT_DIR)


@pytest.fixture
def host_artifact_writer():
    """Like ``artifact_writer``, for artifacts holding host timings."""
    return _writer(HOST_OUTPUT_DIR)
