"""The fedbench set-up collection probe reads the real run script.

``benchmarks/setup_collection_probe.py`` instruments a copy of
``fedbench/run.py`` at its fork line and runs it as a script; a
``run.py`` without that line, or with it twice, is refused before any
process runs.  The tree it runs in holds no bytecode cache, and its
exit status says whether any hash seed tripped.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PROBE = ROOT / "benchmarks" / "setup_collection_probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location(
        "setup_collection_probe", PROBE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestInstrument:
    def test_the_reading_goes_before_the_fork(self):
        probe = load_probe()
        source = (ROOT / "fedbench" / "run.py").read_text(encoding="utf-8")
        instrumented = probe.instrument(source)
        assert instrumented.count(probe.ANCHOR) == 1
        assert probe.READING + probe.ANCHOR in instrumented
        compile(instrumented, "run.py", "exec")

    @pytest.mark.parametrize("times", [0, 2])
    def test_anything_but_one_fork_line_is_refused(self, times):
        probe = load_probe()
        with pytest.raises(ValueError, match=f" {times} times"):
            probe.instrument("import os\n" + probe.ANCHOR * times)


def test_one_reading_of_the_instrumented_script(tmp_path):
    probe = load_probe()
    script = probe.build_tree(tmp_path, probe.instrument(
        (ROOT / "fedbench" / "run.py").read_text(encoding="utf-8")))
    reading = probe.probe(script, "hotspot_M", 0)
    assert len(reading["fork_count"]) == 3
    assert reading["full_collections"] >= 0
    assert not (tmp_path / "results.jsonl").exists()


def test_the_tree_holds_no_bytecode_cache(tmp_path, monkeypatch):
    probe = load_probe()
    checkout = tmp_path / "checkout"
    for package in ("src/repro", "fedbench"):
        (checkout / package / "__pycache__").mkdir(parents=True)
        (checkout / package / "__init__.py").write_text("")
        (checkout / package / "__pycache__" / "__init__.cpython-311.pyc"
         ).write_bytes(b"cached")
        (checkout / package / "stray.pyc").write_bytes(b"cached")
    (checkout / "fedbench" / "run.py").write_text("original")
    (checkout / "BENCHMARK.json").write_text("{}")
    monkeypatch.setattr(probe, "ROOT", checkout)
    tree = tmp_path / "tree"
    tree.mkdir()
    script = probe.build_tree(tree, "instrumented")
    assert script.read_text() == "instrumented"
    assert (tree / "src" / "repro" / "__init__.py").is_file()
    assert (tree / "fedbench" / "__init__.py").is_file()
    cached = [path for path in tree.rglob("*")
              if path.name == "__pycache__" or path.suffix == ".pyc"]
    assert cached == []


@pytest.mark.parametrize("tripped_seed, count, status",
                         [(None, "0/20", 0), (7, "1/20", 3)])
def test_the_exit_status_reports_a_trip(monkeypatch, capsys,
                                        tripped_seed, count, status):
    probe = load_probe()

    def reading(script, workload, hash_seed):
        full = 0 if hash_seed == tripped_seed else 1
        return {"fork_count": [500, 0, 0], "full_collections": full}

    monkeypatch.setattr(probe, "probe", reading)
    assert probe.main(["hotspot_M"]) == status
    assert capsys.readouterr().out.startswith(f"hotspot_M: {count} ")


def test_the_probe_refuses_a_run_script_without_its_fork_line(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(PROBE, tmp_path / "benchmarks" / PROBE.name)
    (tmp_path / "fedbench").mkdir()
    (tmp_path / "fedbench" / "run.py").write_text("import os\n",
                                                 encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-B", str(tmp_path / "benchmarks" / PROBE.name),
         "hotspot_M"],
        capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert "0 times, not once" in done.stderr
