"""The benchmark's own tests (about two minutes):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layers import METRICS, derive  # noqa: E402
from spans import FFT, TARGETS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, smoke  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _session():
    return run.Session(time.monotonic() + 170.0)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in doc[key]]
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in doc["end_to_end"] + doc["per_layer"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_of_each_workload(name):
    result = run.run_workload(smoke(WORKLOADS[name]), 7, 1.0, False,
                              _session())
    assert result["failed"] == 0, result["failed_checks"]
    assert result["attempted"] > 0
    for metric, m in result["metrics"].items():
        assert m["value"] > 0, metric
    assert result["provenance"]["seed"] == 7


def test_traced_run_emits_every_span_and_metric():
    w = smoke(WORKLOADS["pert64_cli"])
    result = run.run_workload(w, 7, 1.0, True, _session())
    assert result["failed"] == 0, result["failed_checks"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    missing = [k for k, m in result["metrics"].items() if m["value"] is None]
    assert missing == []
    assert result["detail"]["absent_spans"] == []
    spans = (HERE.parent / result["detail"]["spans_file"]).read_text()
    emitted = {json.loads(line)["name"] for line in spans.splitlines()}
    wanted = {name for name, _, _ in TARGETS} - {
        "dynamics.rhs", "spectral.forward_transform"}  # micro sweep only
    assert wanted | {FFT, "bench.solve"} <= emitted
    assert result["metrics"]["spectral.fft_calls_per_step"]["value"] == 264
    assert result["metrics"]["spectral.fft_calls_per_record"]["value"] == 75
    assert result["metrics"]["dynamics.rhs_calls_per_step"]["value"] == 4


def test_fft_count_repeats_exactly():
    w = smoke(WORKLOADS["zk32_cfl"])
    counts = []
    for _ in range(2):
        result, _ = _session().spawn({
            "mode": "run", "workload": asdict(w), "seed": 3, "trace": True,
            "spans": str(run.OUT / "tmp" / "spans-test.jsonl")})
        counts.append(result["layers"]["spectral.fft_calls_per_step"])
    assert counts[0] == counts[1] == 264


def test_renamed_public_function_reads_as_absent(tmp_path):
    targets = tuple((name, module, "renamed_" + attr)
                    if name == "integrator.step" else (name, module, attr)
                    for name, module, attr in TARGETS)
    tracer = Tracer()
    tracer.install(targets, fft=True)
    try:
        worker._run_direct(
            smoke(WORKLOADS["pert32"]).config_text(1, str(tmp_path)),
            None, tmp_path, tracer, checks.Checks())
    finally:
        tracer.uninstall()
    assert tracer.absent == ["integrator.step"]
    values, missing = derive(tracer.spans, tracer.absent, 10 ** 8)
    assert "integrator.steps" in missing and values["integrator.steps"] is None
    assert values["norms.records"] == 3
    assert set(values) == set(METRICS)


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    assert run.tail(samples) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_reference_check_fails_on_a_factor_error():
    ref = checks.load_reference("zk32_cfl", DEFAULT_SEED, 32)
    assert ref is not None
    ok = checks.Checks()
    checks.check_reference(ok, dict(ref), ref)
    assert ok.items and all(passed for _, passed, _ in ok.items)
    bad = checks.Checks()
    checks.check_reference(bad, {**ref, "h3": ref["h3"] * (1 + 1e-8)}, ref)
    assert [name for name, passed, _ in bad.items if not passed] == [
        "reference.h3"]


def test_fails_without_mmpsim_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pert32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
