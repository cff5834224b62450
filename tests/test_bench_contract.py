"""Every name the benchmark's tracer hooks or reads must still exist.

``bench/tracer.py`` wraps torva's layer entry points and reads its memo
tables by attribute path; a target that is gone is skipped silently and its
metrics are missing from the benchmark's result.  These tests turn a removed
or renamed target into a test failure that names it.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import torva.cli  # noqa: F401  (imports every layer, as the tracer does)
from torva import SessionConfig
from torva.states import Memo

from conftest import CONFIG_DIR

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
TRACER_PATH = os.path.join(ROOT, "bench", "tracer.py")

# span targets the tracer installs besides HOOKS: (module, attribute path)
SPANS = [("torva.config", "SessionConfig.build_session"),
         ("torva.config", "SessionConfig.build_windows"),
         ("torva.cli", "run_suite"),
         ("torva.cli", "_vacuum_ideal_findings")]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("torva_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark's directory as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_hook_target_resolves():
    tracer = _load_tracer()
    targets = list(tracer.HOOKS.values()) + SPANS
    missing = [f"{mod}:{path}" for mod, path in targets if tracer.resolve(mod, path) is None]
    assert not missing, f"bench/tracer.py hooks targets that no longer exist: {missing}"


def test_every_cache_path_is_a_counted_table():
    tracer = _load_tracer()
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    bad = []
    for prefix, path in tracer.CACHES.items():
        table = session
        for part in path.split("."):
            table = getattr(table, part, None)
        if not all(hasattr(table, name) for name in ("hits", "misses", "__len__")):
            bad.append(f"{prefix} = Session.{path}")
    assert not bad, f"bench/tracer.py reads memo tables that no longer exist: {bad}"


def test_the_tracer_reads_every_memo_table():
    # a table the tracer does not read is invisible in the benchmark's result
    tracer = _load_tracer()
    cfg = SessionConfig.from_file(os.path.join(CONFIG_DIR, "session_sl2_r1.json"))
    session = cfg.build_session()
    traced = set()
    for path in tracer.CACHES.values():
        table = session
        for part in path.split("."):
            table = getattr(table, part, None)
        traced.add(id(table))
    owners = {"": session, "module.": session.module, "fields.": session.fields}
    untraced = [prefix + name for prefix, owner in owners.items()
                for name, table in vars(owner).items()
                if isinstance(table, Memo) and id(table) not in traced]
    assert not untraced, f"bench/tracer.py does not read these memo tables: {untraced}"


def test_binom_keeps_its_cache_info():
    from torva.series import binom
    info = binom.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("workload", ["suite-r2", "ideal-r1-d4"])
def test_traced_bench_run_ends_on_a_strict_result_line(workload):
    # the benchmark reads the last line of a traced run as its result: it
    # must be strict JSON (no NaN or Infinity), correct, and hold every
    # per-layer metric that BENCHMARK.json names
    out = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "run.py"),
                          "--workload", workload, "--seed", "7", "--seconds", "1",
                          "--trace", "1"], capture_output=True, text=True, cwd=ROOT,
                         timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, out.stdout + out.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]]
    assert [name for name in wanted if name not in result["metrics"]] == []
    assert "absent metric" not in out.stderr and "hooks not installed" not in out.stderr
