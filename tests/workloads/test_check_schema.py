"""The schema checker CI runs on a bench artifact before upload."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent
                       / "benchmarks"))

import check_schema  # noqa: E402


def _valid_payload():
    return {
        "schema": 1, "suite": "runtime", "workers": 1, "shards": 4,
        "structures": {"HashSet": {"elapsed": 0.01}},
        "workloads": {"w": {}}, "wall_seconds": 1.0,
    }


def test_check_schema_accepts_a_valid_artifact(tmp_path, capsys):
    path = tmp_path / "BENCH_runtime.json"
    path.write_text(json.dumps(_valid_payload()))
    assert check_schema.main([str(path)]) == 0
    assert "expected gate keys" in capsys.readouterr().out


def test_check_schema_rejects_missing_abduction_gate(tmp_path, capsys):
    path = tmp_path / "BENCH_runtime.json"
    path.write_text(json.dumps(_valid_payload()))
    assert check_schema.main([str(path), "--require-abduction-gate"]) == 1
    assert "abduction_gate" in capsys.readouterr().err


def test_check_schema_rejects_wrong_types():
    payload = _valid_payload()
    payload["wall_seconds"] = "fast"
    payload["shards"] = "four"
    problems = check_schema.check_payload(payload)
    assert len(problems) == 2


def test_check_schema_unreadable_file(tmp_path, capsys):
    assert check_schema.main([str(tmp_path / "missing.json")]) == 2
    assert "unreadable" in capsys.readouterr().err
