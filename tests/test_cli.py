"""CLI surface: exit codes, determinism, cache transparency, error paths."""

import gc
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from torva.axioms import CHECK_GROUPS

from conftest import report_digest

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
    {"checks": "lie"}, {"checks": ["lie", "bogus"]}, {"samples": -1},
    {"budget": -1}, {"r": True}, {"r": "2"}, {"samples": "3"}, {"colour": "red"}])
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


@pytest.mark.parametrize("window", [{"m0": "x"}, {"m0": [-1, 1], "depth": "d"}, 1,
                                    {"m0": [-1.5, 1]}, {"m0": [-1, "1"]}, {"m": [[-1.9, 1]]},
                                    {"depth": 2.7}, {"locality_bound": "3"}, {"depth": True}])
def test_malformed_window_exit_2(cfg, tmp_path, window):
    payload = json.loads(open(cfg).read())
    payload["windows"] = [window]
    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps(payload))
    out = run_cli(["--config", str(bad), "field", "e"])
    assert out.returncode == 2, out.stderr
    assert "malformed mode window" in out.stderr


@pytest.mark.parametrize("entry", [["f", 1.7, 0], ["f", "2", 0], ["f", True, 0], ["f", 1, 0.5]],
                         ids=["k_float", "k_string", "k_bool", "m_float"])
def test_window_state_json_takes_the_integer_rule_exit_2(cfg, tmp_path, entry):
    # a state written as JSON obeys the integer rule of the window fields
    payload = json.loads(open(cfg).read())
    payload["windows"][0]["states"] = ["vac", [{"word": [entry], "tail": "1", "coeff": "1"}]]
    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps(payload))
    out = run_cli(["--config", str(bad), "field", "vac"])
    assert out.returncode == 2, out.stderr
    assert "must be an integer" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("state", [[], [{"word": [["e", 1, 0]], "tail": "1", "coeff": "0"}]],
                         ids=["no_terms", "zero_coeff"])
def test_zero_window_state_exit_2(cfg, tmp_path, state):
    # a zero test state would read every locality order as 0: a config error,
    # not a failed finding
    payload = json.loads(open(cfg).read())
    payload["windows"][0]["states"] = [state]
    payload["checks"] = ["locality"]
    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps(payload))
    out = run_cli(["--config", str(bad), "axioms"])
    assert out.returncode == 2, out.stdout + out.stderr
    assert "are zero" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("states", ["e", "vac"])
def test_window_states_string_exit_2(cfg, tmp_path, states):
    # a string is not read one character at a time as labels
    payload = json.loads(open(cfg).read())
    payload["windows"][0]["states"] = states
    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps(payload))
    out = run_cli(["--config", str(bad), "axioms"])
    assert out.returncode == 2, out.stderr
    assert "'states' must be a list" in out.stderr
    assert "Traceback" not in out.stderr


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


def test_act_on_deep_word_refused_exit_3():
    word = ["f(-1;0)"] * 1100
    out = run_cli(["--config", os.path.join(ROOT, "configs", "session_sl2_r1.json"),
                   "act", "e", "3", "0", *word, "vac"])
    assert out.returncode == 3, out.stderr[-500:]
    assert out.stderr.startswith("refused:")
    assert "Traceback" not in out.stderr


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


def _depth_config(tmp_path, depth):
    """The shipped r1 config at window depth ``depth``, with no output file."""
    shutil.copy(os.path.join(ROOT, "configs", "sl2.json"), tmp_path / "sl2.json")
    data = json.load(open(os.path.join(ROOT, "configs", "session_sl2_r1.json")))
    data.pop("output")
    data["windows"] = [{**w, "depth": depth} for w in data["windows"]]
    path = tmp_path / f"depth{depth}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("command", ["v0", "axioms"])
def test_deep_vacuum_ideal_is_refused_by_its_chain_count(tmp_path, command):
    # 13,123,110 chains at depth 10 on the r1 window, about 8 GB if built: the
    # budget refuses them before any is built; the child runs under its own
    # address-space limit, where a tree without the count would exit 3 only
    # after a MemoryError, late and with another message
    import resource
    import time

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "torva.cli", "--config",
                          _depth_config(tmp_path, 10), command], capture_output=True,
                         text=True, cwd=ROOT, env=env, preexec_fn=limit, timeout=120)
    elapsed = time.perf_counter() - start
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("refused: estimated cost ") and "exceeds budget 6000000" in out.stderr
    assert "(13123110 vacuum-ideal chains)" in out.stderr
    assert elapsed < 1.0, elapsed


def test_chain_count_is_the_ideal_the_budget_admits(tmp_path):
    # the closed form C(M + depth, depth) counts the states build_vacuum_ideal
    # makes; every shipped config and the benchmark's depth-4 run pass the
    # budget with it, and a count past 2**1000 is refused without computing it
    from torva import SessionConfig
    from torva.cli import _chain_count, _estimate_cost, _refusal, build_parser

    args = build_parser().parse_args(["--config", "unused", "v0"])
    for depth, want in ((2, 190), (4, 7315), (6, 134596), (10, 13123110)):
        cfg = SessionConfig.from_file(_depth_config(tmp_path, depth))
        session = cfg.build_session()
        win, = cfg.build_windows(session)
        assert _chain_count(session.spec.dim, win) == want
        if depth <= 4:
            assert len(session.build_vacuum_ideal(depth, win).spanning) == want
            assert _refusal(cfg, args, session.spec.dim, [win], ("ideal",)) is None
    for name in ("session_sl2_r1.json", "session_sl2_r2.json"):
        cfg = SessionConfig.from_file(os.path.join(ROOT, "configs", name))
        session = cfg.build_session()
        windows = cfg.build_windows(session)
        for groups in (("ideal",), cfg.checks or CHECK_GROUPS):
            assert _refusal(cfg, args, session.spec.dim, windows, groups) is None
    cfg = SessionConfig.from_file(_depth_config(tmp_path, 2000))
    cfg.windows[0]["m0"] = [-2000, 2]
    session = cfg.build_session()
    windows = cfg.build_windows(session)
    assert _estimate_cost(session.spec.dim, windows, ("ideal",)) == (None, None)
    assert _refusal(cfg, args, session.spec.dim, windows, ("ideal",)) == (
        "refused: the vacuum ideal has more than 2**1000 chains")


def test_negative_budget_flag_exit_2(cfg):
    out = run_cli(["--config", cfg, "--budget", "-1", "axioms"])
    assert out.returncode == 2, out.stderr
    assert "--budget must be >= 0" in out.stderr


@pytest.mark.parametrize("where, message", [("form", "float"), ("coeffs", "float"),
                                            ("index", "unknown basis reference True")])
def test_inexact_algebra_entry_exit_2(cfg, tmp_path, where, message):
    # 0.1 has no exact binary value: it is refused, never read as 3602879701896397/2**55;
    # a JSON true is not basis index 1
    algebra = json.load(open(tmp_path / "sl2.json"))
    if where == "form":
        algebra["form"][0][1] = 0.1
    elif where == "coeffs":
        algebra["brackets"][0]["coeffs"]["h"] = 1.0
    else:
        algebra["brackets"][0]["i"] = True
    (tmp_path / "sl2.json").write_text(json.dumps(algebra))
    out = run_cli(["--config", cfg, "validate"])
    assert out.returncode == 2, out.stderr
    assert message in out.stderr and "Traceback" not in out.stderr


def test_only_capped_findings_exit_3(tmp_path):
    # seed 9 on r1: the random#2 triple's exponent search hits its cap of 8,
    # and nothing fails, so there is no verdict rather than a failure
    shutil.copy(os.path.join(ROOT, "configs", "sl2.json"), tmp_path / "sl2.json")
    payload = json.load(open(os.path.join(ROOT, "configs", "session_sl2_r1.json")))
    payload.update(checks=["axioms"], seed=9, output="rep.json")
    (tmp_path / "cfg.json").write_text(json.dumps(payload))
    out = run_cli(["--config", str(tmp_path / "cfg.json"), "axioms"])
    assert out.returncode == 3, out.stdout + out.stderr
    assert "[CAP ] jacobi identity :: random#2" in out.stdout
    assert "FAIL" not in out.stdout
    assert "overall: no full verdict (caps exceeded)" in out.stdout
    report = json.load(open(tmp_path / "rep.json"))
    assert report["cap_exceeded"] and not report["ok"]


@pytest.mark.parametrize("statuses, code", [(["pass", "cap_exceeded"], 3),
                                            (["cap_exceeded", "fail"], 1),
                                            (["pass"], 0)])
def test_report_exit_code_ranks_failure_over_cap(cfg, tmp_path, statuses, code):
    findings = [{"identity": "jacobi identity", "window": {}, "status": st, "witness": None,
                 "detail": {}} for st in statuses]
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"findings": findings}))
    out = run_cli(["--config", cfg, "report", str(path)])
    assert out.returncode == code, out.stdout + out.stderr
    assert ("overall: FAIL" in out.stdout) == (code == 1)


def test_cache_not_replayed_by_other_engine_code(cfg, tmp_path):
    # a copy of the engine whose generator product table doubles the level
    # term writes a failing verdict; the real engine must not replay it
    copy = tmp_path / "engine"
    shutil.copytree(os.path.join(ROOT, "src", "torva"), copy / "torva",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / "torva" / "vertexops.py"
    text = source.read_text()
    term = "c = self.level * self.spec.pairing_basis(ai, bi)"
    assert text.count(term) == 1
    source.write_text(text.replace(term, "c = 2 * self.level * self.spec.pairing_basis(ai, bi)"))
    payload = json.loads(open(cfg).read())
    payload["checks"] = ["table"]
    path = tmp_path / "cfg_table.json"
    path.write_text(json.dumps(payload))
    args = [sys.executable, "-m", "torva.cli", "--config", str(path),
            "--cache", str(tmp_path / "cache.json"), "axioms"]
    env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
    broken = subprocess.run(args, capture_output=True, text=True, cwd=tmp_path, env=env)
    assert broken.returncode == 1, broken.stdout + broken.stderr
    out = run_cli(args[3:])
    assert out.returncode == 0, out.stdout + out.stderr


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


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # every process pays for an import; dataclasses would also load inspect,
    # ast, dis and tokenize, and hashlib would load OpenSSL's libcrypto
    code = ("import sys, torva.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', '_hashlib') "
            "if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=ROOT, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_digests_are_hashlib_sha256():
    import hashlib

    from torva import cli
    payload = {"algebra": "sl2.json", "level": "1", "seed": 3, "windows": [[-1, 1]]}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert cli._digest(payload) == hashlib.sha256(blob).hexdigest()
    root = os.path.dirname(os.path.abspath(cli.__file__))
    want = hashlib.sha256()
    for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
        with open(os.path.join(root, name), "rb") as fh:
            want.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    assert cli._engine_digest() == want.hexdigest()


# The v0 report on the r1 config; a change that alters it on purpose records
# the new digest here.
V0_R1_DIGEST = "b784c9ddfd1e74d28bf4a09a27a22307b2424f736ecddcc484c4d323c5895b63"


def test_v0_builds_the_ideal_once(tmp_path, monkeypatch):
    from torva import cli
    from torva.vertexops import Session

    calls = []
    build = Session.build_vacuum_ideal

    def counted(self, *args, **kwargs):
        calls.append(args)
        return build(self, *args, **kwargs)

    monkeypatch.setattr(Session, "build_vacuum_ideal", counted)
    out = tmp_path / "v0.json"
    config = os.path.join(ROOT, "configs", "session_sl2_r1.json")
    assert cli.main(["--config", config, "v0", "--out", str(out)]) == 0
    assert len(calls) == 1
    report = json.load(open(out))
    assert report["basis_size"] == 190
    assert report_digest(report) == V0_R1_DIGEST


@pytest.mark.parametrize("collecting", [True, False])
def test_a_command_pauses_the_collector_and_restores_it(cfg, tmp_path, monkeypatch, collecting):
    from torva import cli

    seen = []
    validate = cli._COMMANDS["validate"]

    def watched(config, args):
        seen.append(gc.isenabled())
        return validate(config, args)

    monkeypatch.setitem(cli._COMMANDS, "validate", watched)
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    try:
        if not collecting:
            gc.disable()
        assert cli.main(["--config", cfg, "validate"]) == 0
        assert seen == [False] and gc.isenabled() is collecting
        assert cli.main(["--config", str(broken), "validate"]) == 2
        assert gc.isenabled() is collecting
    finally:
        gc.enable()


def test_report_command(cfg, tmp_path):
    run_cli(["--config", cfg, "axioms", "--out", str(tmp_path / "rep.json")])
    out = run_cli(["--config", cfg, "report", str(tmp_path / "rep.json")])
    assert out.returncode == 0
    assert "overall: pass" in out.stdout


@pytest.mark.parametrize("args", [
    ["act", "e", "0", "x", "vac"],
    ["act", "e", "0", "0", "e(x;0)", "vac"],
    ["product", "e", "0", "0", "e(-1;x)", "vac"],
    ["product", "e", "0", "e", "vac"]])
def test_bad_mode_token_exit_2(cfg, args):
    out = run_cli(["--config", cfg, *args])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("content", ["{nope", "[1, 2]", '{"findings": 3}',
                                     '{"findings": [1]}', '{"findings": [{}]}'])
def test_report_on_a_non_report_exit_2(cfg, tmp_path, content):
    bad = tmp_path / "bad_report.json"
    bad.write_text(content)
    out = run_cli(["--config", cfg, "report", str(bad)])
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("path", [os.path.join(ROOT, "configs", "sl2.json"),
                                  os.path.join(ROOT, "configs")],
                         ids=["config", "directory"])
def test_report_on_a_config_or_directory_exit_2(cfg, path):
    # an object without a findings list is not a passing report
    out = run_cli(["--config", cfg, "report", path])
    assert out.returncode == 2, out.stderr
    assert "overall" not in out.stdout
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("case", ["cache-not-json", "cache-list", "cache-directory",
                                  "axioms-out-directory", "v0-out-directory"])
def test_bad_cache_or_out_path_exit_2(cfg, tmp_path, case):
    cache = tmp_path / "cache.json"
    if case == "cache-not-json":
        cache.write_text("{nope")
    elif case == "cache-list":
        cache.write_text("[1, 2]")
    args = {"cache-not-json": ["--cache", str(cache), "axioms"],
            "cache-list": ["--cache", str(cache), "axioms"],
            "cache-directory": ["--cache", str(tmp_path), "axioms"],
            "axioms-out-directory": ["axioms", "--out", str(tmp_path)],
            "v0-out-directory": ["v0", "--out", str(tmp_path)]}[case]
    out = run_cli(["--config", cfg, *args])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command, out", [("axioms", "."), ("v0", "."),
                                          ("axioms", "missing/r.json")])
def test_unwritable_out_fails_before_the_run(cfg, tmp_path, monkeypatch, capsys, command, out):
    from torva import cli

    def started(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_suite", started)
    monkeypatch.setattr(cli, "_vacuum_ideal_findings", started)
    assert cli.main(["--config", cfg, command, "--out", str(tmp_path / out)]) == 2
    assert "report path" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


# Runs ``cli.main`` in a child process that sees ``cpus`` CPUs in its affinity
# mask, with the check groups of one fault set replaced; exits with main's
# code, or 99 when a process it forked outlives main.
DRIVER = """
import os, signal, sys, time, traceback
from torva import axioms, cli
from torva.fields import LocalityError

cpus, fault, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
os.sched_getaffinity = lambda pid: set(range(cpus))


def raising(exc, delay=0.0):
    def group(*args):
        time.sleep(delay)
        raise exc
    return group


def recurse(*args):
    return recurse(*args)


FAULTS = {
    "none": {},
    "locality": {"oracle": raising(LocalityError("no locality order for (e, f) within 8"))},
    "recursion": {"oracle": recurse},
    "sigkill": {"oracle": lambda *args: os.kill(os.getpid(), signal.SIGKILL)},
    "bug": {"oracle": raising(ValueError("not a torva error"))},
    # the earlier job fails last: its error is the one a serial run meets
    "two": {"table": raising(LocalityError("the earlier job"), delay=0.5),
            "locality": raising(KeyError("the later job"))},
}
axioms.GROUPS.update(FAULTS[fault])
try:
    code = cli.main(argv)
except ValueError:
    traceback.print_exc()
    code = 1
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""


def run_driver(cpus, fault, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", DRIVER, str(cpus), fault, *args],
                          capture_output=True, text=True, cwd=ROOT, env=env)


def _without_wall_ms(obj):
    if isinstance(obj, dict):
        return {k: _without_wall_ms(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_without_wall_ms(v) for v in obj]
    return obj


def test_workers_leave_reports_and_stdout_as_the_serial_run(tmp_path):
    config = os.path.join(ROOT, "configs", "session_sl2_r1.json")
    full = tmp_path / "full-cache.json"
    runs, caches = [], []
    for cpus, cache in ((1, full), (2, None), (1, "half-1"), (2, "half-2")):
        if isinstance(cache, str):
            # every other group of the full run, so workers run the rest
            entries = json.load(open(full))
            cache = tmp_path / f"{cache}.json"
            cache.write_text(json.dumps({k: entries[k] for k in sorted(entries)[::2]}))
        out = tmp_path / f"report-{len(runs)}.json"
        args = ["--config", config, "axioms", "--out", str(out)]
        done = run_driver(cpus, "none", ["--cache", str(cache), *args] if cache else args)
        assert done.returncode == 0, done.stderr
        runs.append((_without_wall_ms(json.load(open(out))),
                     re.sub(r"\(\d+ ms\)", "", done.stdout)))
        if cache:
            caches.append(_without_wall_ms(json.load(open(cache))))
    assert all(run == runs[0] for run in runs)
    assert "overall: pass" in runs[0][1]
    assert all(c == caches[0] for c in caches) and len(caches[0]) == len(CHECK_GROUPS)


@pytest.mark.parametrize("fault, code, line", [
    ("locality", 1, "mathematical failure: no locality order for (e, f) within 8"),
    ("recursion", 3, "refused: out of resources (RecursionError: maximum recursion depth exceeded)"),
    ("two", 1, "mathematical failure: the earlier job")])
def test_a_failing_job_exits_as_in_the_serial_run(cfg, tmp_path, fault, code, line):
    cache = tmp_path / "cache.json"
    out = tmp_path / "report.json"
    args = ["--config", cfg, "--cache", str(cache), "axioms", "--out", str(out)]
    serial, forked = run_driver(1, fault, args), run_driver(2, fault, args)
    for done in (serial, forked):
        assert done.returncode == code, done.stderr
        assert done.stderr == line + "\n"
        assert done.stdout == ""
    assert not cache.exists() and not out.exists()


def test_a_worker_killed_by_a_signal_exits_3(cfg, tmp_path):
    cache = tmp_path / "cache.json"
    done = run_driver(2, "sigkill", ["--config", cfg, "--cache", str(cache), "axioms"])
    assert done.returncode == 3, done.stderr
    assert done.stderr == "refused: a check worker ended without a result (SIGKILL)\n"
    assert done.stdout == ""
    assert not cache.exists()


def test_jobs_run_in_process_while_another_thread_runs(monkeypatch):
    # a forked child holds only the forking thread, and could inherit a lock
    # that another thread holds
    import threading

    from torva import cli
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    where = lambda item: [os.getpid(), item]  # noqa: E731
    assert {pid for pid, _ in cli._forked_map(where, [1, 2])} != {os.getpid()}
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert cli._forked_map(where, [1, 2]) == [[os.getpid(), 1], [os.getpid(), 2]]
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forks", [0, 1])
def test_a_failed_fork_leaves_the_jobs_to_the_workers_forked_before_it(monkeypatch, forks):
    from torva import cli
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    real_fork, forked = os.fork, []

    def fork():
        if len(forked) == forks:
            raise BlockingIOError("fork: Resource temporarily unavailable")
        forked.append(real_fork())
        return forked[-1]

    monkeypatch.setattr(os, "fork", fork)
    where = lambda item: [os.getpid(), item]  # noqa: E731
    results = cli._forked_map(where, [1, 2, 3])
    assert [item for _, item in results] == [1, 2, 3]
    assert {pid for pid, _ in results} == set(forked or [os.getpid()])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="exception notes are new in 3.11")
def test_an_uncaught_error_in_a_worker_shows_the_workers_traceback(cfg):
    # a program error is not caught by main: its traceback names the frame
    # in the worker that raised it, as a serial run's does
    done = run_driver(2, "bug", ["--config", cfg, "axioms"])
    assert done.returncode == 1, done.stderr
    assert done.stderr.count("ValueError: not a torva error") == 2, done.stderr
    assert ', in group\n' in done.stderr
