"""CLI surface: exit codes, determinism, cache transparency, error paths."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def run_cli(args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "torva.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture()
def cfg(tmp_path):
    shutil.copy(os.path.join(ROOT, "configs", "sl2.json"), tmp_path / "sl2.json")
    payload = {
        "algebra": "sl2.json", "r": 1, "level": "1",
        "windows": [{"m0": [-1, 1], "m": [[0, 0]], "states": ["vac", "e"],
                     "locality_bound": 8, "depth": 1}],
        "seed": 3, "samples": 4, "budget": 8000000,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_validate_ok(cfg):
    out = run_cli(["--config", cfg, "validate"])
    assert out.returncode == 0
    assert json.loads(out.stdout)["ok"] is True


def test_validate_math_failure(tmp_path, cfg):
    bad = json.load(open(os.path.join(ROOT, "configs", "sl2.json")))
    bad["form"][2][2] = "3"
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    payload = json.loads(open(cfg).read())
    payload["algebra"] = "bad.json"
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(payload))
    out = run_cli(["--config", str(cfg2), "validate"])
    assert out.returncode == 1
    data = json.loads(out.stdout)
    assert data["kind"] == "invariance"
    assert set(data["witness"]) == {"e", "f", "h"}


def test_malformed_json_exit_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    out = run_cli(["--config", str(p), "validate"])
    assert out.returncode == 2
    assert "line" in out.stderr


@pytest.mark.parametrize("edit", [
    {"seed": "abc"}, {"seed": 2.5}, {"samples": "x"}, {"budget": [1]}, {"depth": "two"},
    {"locality_bound": None}, {"cache": {"max_entries": "many"}}, {"cache": "big"},
    {"checks": "lie"}, {"checks": ["lie", "bogus"]}])
def test_bad_config_field_exit_2(cfg, tmp_path, edit):
    payload = {**json.loads(open(cfg).read()), **edit}
    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps(payload))
    out = run_cli(["--config", str(bad), "validate"])
    assert out.returncode == 2, out.stderr
    assert "must be" in out.stderr
    assert "Traceback" not in out.stderr


def test_config_not_an_object_exit_2(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    out = run_cli(["--config", str(p), "validate"])
    assert out.returncode == 2, out.stderr
    assert "JSON object" in out.stderr


@pytest.mark.parametrize("window", [{"m0": "x"}, {"m0": [-1, 1], "depth": "d"}, 1])
def test_malformed_window_exit_2(cfg, tmp_path, window):
    payload = json.loads(open(cfg).read())
    payload["windows"] = [window]
    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps(payload))
    out = run_cli(["--config", str(bad), "field", "e"])
    assert out.returncode == 2, out.stderr
    assert "malformed mode window" in out.stderr


def test_product_command(cfg):
    out = run_cli(["--config", cfg, "product", "e", "1", "0", "f"])
    assert out.returncode == 0
    assert out.stdout.strip() == "|1>"
    out = run_cli(["--config", cfg, "product", "1", "-1", "0", "f(-1;0)", "vac"])
    assert out.returncode == 0
    assert out.stdout.strip() == "f(-1;0) |1>"


def test_act_command(cfg):
    out = run_cli(["--config", cfg, "act", "e", "-1", "2", "vac"])
    assert out.returncode == 0
    assert out.stdout.strip() == "e(-1;2) |1>"


def test_locality_command(cfg):
    out = run_cli(["--config", cfg, "locality", "e", "f"])
    assert out.returncode == 0
    assert out.stdout.strip() == "2"


def test_field_command(cfg):
    out = run_cli(["--config", cfg, "field", "e(-1;0)", "vac"])
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["modes"]


def test_axioms_deterministic_and_cached(cfg, tmp_path):
    out1 = run_cli(["--config", cfg, "axioms", "--out", str(tmp_path / "r1.json")])
    assert out1.returncode == 0, out1.stderr
    out2 = run_cli(["--config", cfg, "--cache", str(tmp_path / "cache.json"),
                    "axioms", "--out", str(tmp_path / "r2.json")])
    assert out2.returncode == 0
    out3 = run_cli(["--config", cfg, "--cache", str(tmp_path / "cache.json"),
                    "axioms", "--out", str(tmp_path / "r3.json")])
    assert out3.returncode == 0

    def strip(path):
        data = json.load(open(path))
        return [{k: v for k, v in f.items() if k != "wall_ms"} for f in data["findings"]]

    assert strip(tmp_path / "r1.json") == strip(tmp_path / "r2.json") == strip(tmp_path / "r3.json")


def test_cache_not_replayed_after_algebra_edit(cfg, tmp_path):
    payload = json.loads(open(cfg).read())
    payload["checks"] = ["lie", "table"]
    path = tmp_path / "cfg_lie.json"
    path.write_text(json.dumps(payload))
    args = ["--config", str(path), "--cache", str(tmp_path / "cache.json"), "axioms"]
    assert run_cli(args).returncode == 0
    algebra = json.load(open(tmp_path / "sl2.json"))
    algebra["form"][0][1] = "7"
    (tmp_path / "sl2.json").write_text(json.dumps(algebra))
    out = run_cli(args)
    assert out.returncode == 1, out.stdout
    assert "overall: FAIL" in out.stdout


def test_budget_refusal(cfg):
    out = run_cli(["--config", cfg, "--budget", "1", "axioms"])
    assert out.returncode == 3
    assert "budget" in out.stderr


def test_mutate_mode(cfg):
    out = run_cli(["--config", cfg, "--mutate", "axioms"])
    assert out.returncode == 0, out.stdout + out.stderr


def test_v0_command(cfg, tmp_path):
    out = run_cli(["--config", cfg, "v0", "--out", str(tmp_path / "v0.json")])
    assert out.returncode == 0, out.stdout + out.stderr
    data = json.load(open(tmp_path / "v0.json"))
    assert data["ok"] is True
    assert data["graded_dims"]["0"] == 1
    assert data["graded_dims"]["1"] == 3  # dim g * |box| = 3 * 1


def test_report_command(cfg, tmp_path):
    run_cli(["--config", cfg, "axioms", "--out", str(tmp_path / "rep.json")])
    out = run_cli(["--config", cfg, "report", str(tmp_path / "rep.json")])
    assert out.returncode == 0
    assert "overall: pass" in out.stdout
