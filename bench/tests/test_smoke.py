"""Smoke tests of the benchmark on the ``mini`` preset.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import synth  # noqa: E402
from vocmap import load_fixture, load_wndb_dir  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_byte_stable(tmp_path):
    first = synth.generate("mini", 7, tmp_path / "a")
    second = synth.generate("mini", 7, tmp_path / "b")
    other = synth.generate("mini", 8, tmp_path / "c")
    assert _files(first) == _files(second)
    assert _files(first)["dict/data.noun"] != _files(other)["dict/data.noun"]


def test_wndb_and_fixture_forms_build_equal_stores(tmp_path):
    out = synth.generate("mini", 3, tmp_path)
    from_wndb = load_wndb_dir(out / "dict")
    from_json = load_fixture((out / "wordnet.json").read_bytes())
    assert len(from_wndb) > 2000
    assert from_wndb.synsets == from_json.synsets
    assert from_wndb.exceptions == from_json.exceptions
    assert from_wndb.lemma_index == from_json.lemma_index


def test_data_noun_offsets_are_byte_offsets(tmp_path):
    out = synth.generate("mini", 3, tmp_path)
    data = (out / "dict" / "data.noun").read_bytes()
    position = 0
    for line in data.splitlines(keepends=True):
        if not line.startswith(b" "):
            assert int(line[:8]) == position
        position += len(line)


@pytest.mark.parametrize("workload", ["map-wn20", "sweep-grid",
                                      "baseline-trigram"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_completes_without_failures(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--preset", "mini", "--seed", "1", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
