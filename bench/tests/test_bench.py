"""Tests of the benchmark itself, on a tiny config.

Run from the repository root:  python3 -m pytest -q bench/tests
"""
import json
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import chain
import run
import tracer
from workloads import WORKLOADS, Workload, computed_counts, workload_shape

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY_INI = """\
[state]
kind = coherent
re_amplitude = 0.5

[truncation]
n_trunc = 6

[detectors]
mode = single
alpha = 0.15
n_efficiencies = 8
efficiency_min = 0.1
efficiency_max = 0.9

[grid]
re_min = -1.0
re_max = 1.5
im_min = -1.0
im_max = 1.0
n_re = 4
n_im = 3

[run]
n_runs = 1000
n_iterations = 20
seed = 1
"""


@pytest.fixture
def tiny(tmp_path) -> Workload:
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_INI, encoding="utf-8")
    return Workload("tiny", config, "test", max_delta_w=1.0, min_fidelity=-1.0, max_trace_err=1.0)


def result_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(tiny, tmp_path, capsys, trace):
    assert run.execute(tiny, 5, 0, trace, tmp_path / "work") == 0
    out = capsys.readouterr().out
    result = result_line(out)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    text_lines = out.splitlines()[:-1]
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']}" in line for line in text_lines)
    assert any(line.split()[:1] == ["failed_ratio"] for line in text_lines)


def test_every_timed_invocation_is_bracketed_by_reference_runs(tiny, tmp_path, capsys):
    work = tmp_path / "work"
    assert run.execute(tiny, 5, 0, 0, work) == 0
    capsys.readouterr()
    details = json.loads((work / "result-trace0.json").read_text(encoding="utf-8"))
    walls = details["reference_walls"]
    chains = details["samples"]
    # one before the first set-up, then one after the set-up and after each stage
    assert len(walls) == 1 + 4 * chains
    for i in range(chains):
        edges = walls[4 * i : 4 * i + 5]
        assert details["setup_refs"][i] == pytest.approx((edges[0] + edges[1]) / 2)
        refs = details["chain_refs"][i]
        for k, stage in enumerate(chain.STAGES):
            assert refs[stage] == pytest.approx((edges[k + 1] + edges[k + 2]) / 2)
    scaled = [
        sum(details["chain_walls"][i][s] * run.REFERENCE_S / details["chain_refs"][i][s] for s in chain.STAGES)
        for i in range(chains)
    ]
    assert details["result"]["metrics"]["chain_s"]["value"] == pytest.approx(statistics.median(scaled))


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    for layer in tracer.LAYERS:
        assert f"{layer}.self_s" in run.PER_LAYER and f"{layer}.calls" in run.PER_LAYER


def traced_tiny_chain(tiny, out):
    tr = tracer.Tracer()
    with tr:
        runs = chain.run_chain_inprocess(tiny.config, 5, out, tr)
    assert [r.code for r in runs] == [0, 0, 0]
    return tr, runs


def test_layer_self_times_add_up_to_traced_stage_time(tiny, tmp_path):
    tr, runs = traced_tiny_chain(tiny, tmp_path)
    summary = tracer.summarize(tr.spans)
    total_self = sum(summary[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total_self == pytest.approx(summary["trace.chain_s"], rel=1e-9)
    assert summary["trace.chain_s"] <= sum(r.wall_s for r in runs)
    assert summary["cli.calls"] == 3 and summary["cli.self_s"] > 0
    assert {s[tracer.STAGE] for s in tr.spans} == {0, 1, 2}
    for layer in ("fock", "measurement", "em", "wigner", "recover", "io_csv", "config"):
        assert summary[f"{layer}.calls"] > 0, layer


def test_computed_counts_match_traced_calls(tiny, tmp_path):
    tr, _ = traced_tiny_chain(tiny, tmp_path)
    calls = Counter(s[tracer.NAME] for s in tr.spans)
    counts = computed_counts(workload_shape(tiny.config))
    assert counts["measurement.binomial_draws"] == 12 * 8
    assert counts["em.ops_computed"] == 12 * 20 * 8 * 6 * 4
    if "fock.displaced_diagonal_padded" in calls:
        assert calls["fock.displaced_diagonal_padded"] == counts["fock.diagonals"]
    if "measurement.sample_clicks" in calls:
        assert calls["measurement.sample_clicks"] == counts["measurement.binomial_draws"]


def test_tracer_skips_missing_names_and_restores_originals(monkeypatch):
    from clicktomo import cli, em

    original = em.run_em_batch
    monkeypatch.setattr(em, "__all__", [*em.__all__, "function_removed_by_a_refactor"])
    with tracer.Tracer():
        assert cli.run_em_batch is not original
        assert cli.run_em_batch is em.run_em_batch
    assert cli.run_em_batch is original and em.run_em_batch is original


def test_rho_fidelity_is_that_of_the_normalised_positive_part(tiny, tmp_path):
    import numpy as np
    from clicktomo import io_csv
    from clicktomo.config import build_state

    r = run.Run(tiny, 5, tmp_path / "work")
    _, check = r.chain(lambda out: chain.run_chain_inprocess(tiny.config, 5, out))
    assert not check.failed
    cfg, rho = io_csv.read_rho_csv(r.work / "chain0" / "rho.csv")
    n = cfg.trunc.n_trunc
    target = build_state(cfg).elements[:n, :n]
    values, vectors = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    values = np.clip(values, 0.0, None)
    positive = (vectors * values) @ vectors.conj().T / values.sum()
    # the configured states are pure, so the fidelity is <psi|rho|psi>
    expected = float(np.trace(positive @ target).real)
    assert check.quality["rho_fidelity"] == pytest.approx(expected, rel=1e-6)
    assert 0.0 < check.quality["rho_fidelity"] <= 1.0


def flip_byte(path: Path, target: bytes) -> None:
    """XOR one byte of the last data row: a digit stays a digit, ',' becomes '-'."""
    data = bytearray(path.read_bytes())
    row = data.rindex(b"\n", 0, len(data) - 1) + 1
    pos = next(i for i in range(row, len(data)) if data[i : i + 1] in target)
    data[pos] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("target", [b"0123456789", b","], ids=["digit", "separator"])
def test_corrupted_wigner_counts_as_failed(tiny, tmp_path, target):
    r = run.Run(tiny, 5, tmp_path / "work")
    runs, first = r.chain(lambda out: chain.run_chain_inprocess(tiny.config, 5, out))
    assert not first.failed

    def corrupted_copy(out):
        shutil.copytree(r.work / "chain0", out, dirs_exist_ok=True)
        flip_byte(out / "wigner.csv", target)
        return runs

    r.chain(corrupted_copy)
    r.settle()
    assert r.attempted == 6
    assert len(r.failures) == 1 and "chain 1 reconstruct" in r.failures[0]
    assert r.passed() == [0]


def test_stage_failure_counts_and_skips_later_stages(tiny, tmp_path):
    broken = tmp_path / "broken.ini"
    broken.write_text(TINY_INI.replace("kind = coherent", "kind = unknown"), encoding="utf-8")
    r = run.Run(Workload("broken", broken, "test", 1.0, -1.0, 1.0), 5, tmp_path / "work")
    r.chain(lambda out: chain.run_chain_inprocess(broken, 5, out))
    r.settle()
    assert r.attempted == 3 and len(r.failures) == 3
    assert "exit code 2" in r.failures[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "fock_em_long", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
