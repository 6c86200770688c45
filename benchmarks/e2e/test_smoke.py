"""``--quick`` runs: every metric of BENCHMARK.json, with its unit, and no failures."""

from __future__ import annotations

import json
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quick_run(capsys, monkeypatch, tmp_path, workload, trace):
    monkeypatch.chdir(ROOT)
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
            "--quick", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    info, result = [json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:]]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and info["failed_op_share"] == 0
    return info, result


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_quick_paper_mix_reports_every_end_to_end_metric(capsys, monkeypatch, tmp_path):
    info, result = _quick_run(capsys, monkeypatch, tmp_path, "paper_mix_598", trace=0)
    assert info["queries"] == 56 and info["nodes"] == 598
    assert _units(result) == {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_quick_write_mix_reports_every_per_layer_metric(capsys, monkeypatch, tmp_path):
    from repro.filters.server import ServerFilter

    original = ServerFilter.evaluate_batch
    info, result = _quick_run(capsys, monkeypatch, tmp_path, "write_mix_598", trace=1)
    assert info["writes"] == 10
    assert _units(result) == {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert result["metrics"]["rmi.write.calls_per_op"]["value"] > 0
    # the traced run removed its wrappers
    assert ServerFilter.evaluate_batch is original
    assert (tmp_path / "write_mix_598.spans.jsonl").stat().st_size > 0
