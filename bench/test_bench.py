"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {"config": "configs/session_sl2_r1.json", "command": "axioms",
         "checks": ["locality", "oracle"]}


def report_file(tmp_path, report, name="report.json"):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return path


REPORT = {"ok": True, "cap_exceeded": False, "config_digest": "abc",
          "findings": [{"identity": "jacobi", "status": "pass", "wall_ms": 12,
                        "detail": {"states": "(e,f,h)", "wall": 3}},
                       {"identity": "skew", "status": "pass", "wall_ms": 7, "detail": {}}]}


def test_strip_removes_exactly_wall_ms():
    stripped = run.strip_wall_ms(REPORT)
    assert all("wall_ms" not in f for f in stripped["findings"])
    for kept, orig in zip(stripped["findings"], REPORT["findings"]):
        assert kept == {k: v for k, v in orig.items() if k != "wall_ms"}
    assert {k: v for k, v in stripped.items() if k != "findings"} == \
        {k: v for k, v in REPORT.items() if k != "findings"}

    retimed = json.loads(json.dumps(REPORT))
    retimed["findings"][0]["wall_ms"] = 99999
    assert run.report_digest(retimed) == run.report_digest(REPORT)
    retimed["findings"][0]["detail"]["wall"] = 4
    assert run.report_digest(retimed) != run.report_digest(REPORT)


def test_judge_accepts_matching_report(tmp_path):
    path = report_file(tmp_path, REPORT)
    digest, problem = run.judge(0, path, run.report_digest(REPORT))
    assert problem is None and digest == run.report_digest(REPORT)


@pytest.mark.parametrize("corrupt", [
    lambda r: r["findings"][1].update(status="fail"),
    lambda r: r["findings"].pop(),
    lambda r: r.update(config_digest="abd"),
])
def test_corrupted_report_fails(tmp_path, corrupt):
    bad = json.loads(json.dumps(REPORT))
    corrupt(bad)
    path = report_file(tmp_path, bad)
    _, problem = run.judge(0, path, run.report_digest(REPORT))
    assert problem is not None


def test_not_ok_unreadable_or_nonzero_exit_fails(tmp_path):
    expected = run.report_digest(REPORT)
    assert run.judge(1, report_file(tmp_path, REPORT), expected)[1] == "exit code 1"
    assert run.judge(0, report_file(tmp_path, {**REPORT, "ok": False}), expected)[1]
    assert run.judge(0, tmp_path / "absent.json", expected)[1].startswith("unreadable")
    (tmp_path / "torn.json").write_text('{"ok": tr')
    assert run.judge(0, tmp_path / "torn.json", expected)[1].startswith("unreadable")


def test_gate_without_reference_requires_agreement(tmp_path, capsys):
    gate = run.Gate(None)
    log = tmp_path / "child.log"
    gate.check("first", 0, report_file(tmp_path, REPORT, "a.json"), log)
    other = {**REPORT, "config_digest": "zzz"}
    gate.check("second", 0, report_file(tmp_path, other, "b.json"), log)
    gate.check("third", 3, report_file(tmp_path, REPORT, "c.json"), log)
    assert (gate.attempted, gate.failed) == (3, 2)
    assert "FAIL second" in capsys.readouterr().err


def test_generated_config_never_writes_next_to_shipped_configs(tmp_path):
    config = run.write_config({**SMALL, "depth": 4}, 123, tmp_path)
    data = json.loads(config.read_text())
    assert "output" not in data
    assert data["seed"] == 123 and data["checks"] == SMALL["checks"]
    assert all(w["depth"] == 4 for w in data["windows"])
    assert (tmp_path / data["algebra"]).is_file() and "/" not in data["algebra"]
    args = run.cli_args(SMALL, config, tmp_path / "out.json")
    assert args[args.index("--out") + 1] == str(tmp_path / "out.json")
    assert "--cache" not in args


def test_failing_child_counts_and_is_printed(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "broken",
                        {**SMALL, "checks": ["no-such-group"]})
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)  # keep pytest's handlers
    assert run.main(["--workload", "broken", "--seed", "1", "--seconds", "0"]) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2 + 2 * run.SETUP_PROBES
    assert "FAIL cli run 0: exit code 1" in err
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_absent_hook_is_tolerated(monkeypatch, tmp_path):
    import torva.cli
    import torva.fields
    import torva.vertexops

    for module_name, path in tracer.HOOKS.values():
        owner, name = tracer.resolve(module_name, path)
        monkeypatch.setattr(owner, name, getattr(owner, name))  # restored afterwards
    monkeypatch.delattr(torva.fields.FieldSpace, "residue_oracle_mode")
    monkeypatch.delattr(torva.vertexops.Session, "ordinary_mode")
    for module_name, path in [("torva.config", "SessionConfig.build_session"),
                              ("torva.config", "SessionConfig.build_windows"),
                              ("torva.cli", "run_suite"), ("torva.cli", "_vacuum_ideal_findings")]:
        owner, name = tracer.resolve(module_name, path)
        monkeypatch.setattr(owner, name, getattr(owner, name))

    t = tracer.Tracer()
    missing = tracer.install(t)
    assert missing == {"fields.residue_oracle", "vertexops.ordinary_mode"}
    config = run.write_config(SMALL, 7, tmp_path)
    assert torva.cli.main(["--config", str(config), "product", "e", "1", "0", "f"]) == 0
    metrics = tracer.metrics(t, missing)
    assert "fields.residue_oracle.calls" not in metrics
    assert "vertexops.ordinary_mode.self_s" not in metrics
    assert metrics["vertexops.vertex_mode.calls"] > 0
    assert metrics["config.build_session.s"] > 0


def traced(tmp_path, workload, tag):
    config = run.write_config(workload, 7, tmp_path)
    result = tmp_path / f"trace-{tag}.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(result), "--",
                           *run.cli_args(workload, config, tmp_path / f"report-{tag}.json")],
                          env=env, cwd=tmp_path, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
    return json.loads(result.read_text())["metrics"]


def test_traced_call_counts_repeat(tmp_path):
    first, second = (
        {k: v for k, v in traced(tmp_path, SMALL, tag).items() if isinstance(v, int)}
        for tag in "ab")
    assert first == second
    assert first["fields.mode.calls"] > 0 and first["fields.residue_oracle.calls"] > 0


def test_trace_shows_each_workloads_layer(tmp_path):
    suite = traced(tmp_path, run.WORKLOADS["suite-r2"], "suite")
    assert suite["fields.mode_cache.evictions"] > 0
    assert suite["fields.comm_cache.evictions"] > 0
    assert suite["vertexops.vm_mono.calls"] > 0
    assert suite["vertexops.echelonize.calls"] == 0

    ideal = traced(tmp_path, run.WORKLOADS["ideal-r1-d4"], "ideal")
    self_times = {k: v for k, v in ideal.items() if k.endswith(".self_s")}
    assert max(self_times, key=self_times.get) == "vertexops.echelonize.self_s"
    assert ideal["fields.mode_cache.lookups"] == 0
