"""torva benchmark: time from `torva ... axioms` (or `v0`) to its verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Paths are taken from the repository root, the parent of this directory, which
must hold the torva sources (`src/torva`) and the session configs.  Each
workload is a closed loop with one client: one CLI child at a time, `--jobs`
left at its default of 1, nothing else running.  The seed is written into a
generated copy of the workload's config, so the program sees only that
generated input.

--trace 0  Runs CLI children until the next one would end after S seconds (at
           least one), with set-up probes (bench/setup_probe.py) before the
           first and after each, and prints the end-to-end metrics named in
           BENCHMARK.json: wall_s and cpu_s as the mean over the children
           (seconds per verdict, the run's work rate), peak_rss_mb and setup_s
           as medians.  Every child's numbers, with median and quartiles, are
           printed above the result.
--trace 1  Runs one untraced CLI child and one traced in-process run
           (bench/tracer.py), whatever S, prints the per-layer metrics named
           in BENCHMARK.json and writes the trace to .bench_work/.

Every child's output is checked: exit code 0, `"ok": true`, and the SHA-256
of the report with every `wall_ms` key removed equal to the workload's
reference digest for the seed (bench/baseline.json) or, for a seed without
one, to every other digest of the run.  A child that fails any of these counts
in `failed` and is printed, never dropped.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 2      # before the first CLI child and after each one, plus a warm-up
RUN_LIMIT_S = 170     # a whole run must end within 180 s

# Only check groups whose work does not depend on the seed: the random Jacobi
# triples of the `axioms` group change its cost fivefold from seed to seed.
# Why each workload is here is recorded in BENCHMARK.json and baseline.json.
WORKLOADS = {
    "suite-r2": {"config": "configs/session_sl2_r2.json", "command": "axioms",
                 "checks": ["table", "locality", "derivative", "transfer", "skew",
                            "module-variant"]},
    "ideal-r1-d4": {"config": "configs/session_sl2_r1.json", "command": "v0", "depth": 4},
}


def write_config(workload: dict, seed: int, workdir: Path) -> Path:
    """Generated copy of the workload's config, with the seed written in and
    no `output`, so no run can write next to the shipped configs.  The
    algebra file is copied beside it under its own name, which keeps the
    report's config digest independent of where the checkout lives."""
    base = ROOT / workload["config"]
    data = json.loads(base.read_text())
    algebra = Path(data["algebra"]).name
    shutil.copyfile(base.parent / data["algebra"], workdir / algebra)
    data["algebra"] = algebra
    data["seed"] = seed
    data.pop("output", None)
    if "checks" in workload:
        data["checks"] = workload["checks"]
    if "depth" in workload:
        data["windows"] = [{**w, "depth": workload["depth"]} for w in data["windows"]]
    path = workdir / "session.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True))
    return path


def cli_args(workload: dict, config: Path, out: Path) -> list:
    return ["--config", str(config), workload["command"], "--out", str(out)]


def strip_wall_ms(obj):
    """The report without any `wall_ms` key, at any depth."""
    if isinstance(obj, dict):
        return {k: strip_wall_ms(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [strip_wall_ms(v) for v in obj]
    return obj


def report_digest(report) -> str:
    blob = json.dumps(strip_wall_ms(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def judge(exit_code: int, report_path: Path, expected):
    """(digest or None, problem or None) for one finished CLI child."""
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return None, f"unreadable report: {exc}"
    if not isinstance(report, dict) or report.get("ok") is not True:
        return None, 'report lacks "ok": true'
    digest = report_digest(report)
    if expected is not None and digest != expected:
        return digest, f"digest {digest} differs from expected {expected}"
    return digest, None


class Gate:
    """Counts attempted and failed children; the first good digest becomes
    the expected one when the seed has no recorded reference."""

    def __init__(self, reference):
        self.expected = reference
        self.seen = set()
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAIL {what}: {problem}", file=sys.stderr)

    def check(self, what: str, exit_code: int, report_path: Path, log: Path):
        digest, problem = judge(exit_code, report_path, self.expected)
        if digest:
            self.seen.add(digest)
        if problem is None and self.expected is None:
            self.expected = digest
        self.record(what, problem)
        if problem and log.exists():
            sys.stderr.write(log.read_text()[-2000:])
        return digest


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def spawn(argv: list, env: dict, cwd: Path, log: Path, limit_s: float) -> Child:
    """Run one child to completion; wall time from spawn to exit, CPU time
    and peak RSS from its rusage.  A child still running after `limit_s` is
    killed."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=cwd)
        killer = threading.Timer(max(limit_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode)


def summary(values: list) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"median {q[1]:.4f} q1 {q[0]:.4f} q3 {q[2]:.4f} n={len(values)}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: spawn() kills the running child and the work
    # directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]

    needed = [ROOT / "BENCHMARK.json", ROOT / "src/torva/cli.py", ROOT / workload["config"],
              BENCH / "baseline.json"]
    absent = [str(path) for path in needed if not path.is_file()]
    if absent:
        print(f"error: not a torva checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((BENCH / "baseline.json").read_text())["references"]
    gate = Gate(references.get(args.workload, {}).get(str(args.seed)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK))
    try:
        config = write_config(workload, args.seed, workdir)

        def remaining() -> float:
            return RUN_LIMIT_S - (time.perf_counter() - started)

        def run_cli(i: int) -> Child:
            out = workdir / f"report-{i}.json"
            log = workdir / f"cli-{i}.log"
            child = spawn([sys.executable, "-m", "torva.cli", *cli_args(workload, config, out)],
                          env, workdir, log, remaining())
            gate.check(f"cli run {i}", child.exit_code, out, log)
            return child

        if args.trace:
            metrics = traced_metrics(args, workload, config, workdir, env, gate,
                                     run_cli, remaining)
            wanted = spec["per_layer"]
        else:
            metrics = timed_metrics(args, config, workdir, env, gate, run_cli, remaining)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for digest in sorted(gate.seen):
        print(f"digest {args.workload} seed {args.seed} {digest}")
    result = {}
    for m in wanted:
        if m["name"] in metrics:
            result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            print(f"absent metric: {m['name']}", file=sys.stderr)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": result}))
    return 0


def timed_metrics(args, config, workdir, env, gate, run_cli, remaining) -> dict:
    probe_ids = itertools.count()

    def probe() -> float:
        i = next(probe_ids)
        log = workdir / f"setup-{i}.log"
        child = spawn([sys.executable, str(BENCH / "setup_probe.py"), str(config)],
                      env, workdir, log, remaining())
        imported = log.read_text().strip()
        problem = None
        if child.exit_code != 0:
            problem = f"exit code {child.exit_code}: {imported[-2000:]}"
        elif not imported.startswith(str(ROOT / "src")):
            problem = f"imported torva from {imported}, not from this checkout"
        gate.record(f"setup probe {i}", problem)
        return child.wall_s

    def probes() -> list:
        # spread over the run, so a slow moment weighs no more than elsewhere
        return [probe() for _ in range(SETUP_PROBES)]

    probe()  # warm-up: the first start after a checkout compiles bytecode
    setup = probes()
    runs = []
    measure_start = time.perf_counter()
    while True:
        runs.append(run_cli(len(runs)))
        setup += probes()
        longest = max(c.wall_s for c in runs)
        if (time.perf_counter() - measure_start + longest > args.seconds
                or remaining() < longest):
            break
    for i, c in enumerate(runs):
        print(f"{args.workload} cli run {i}: wall_s {c.wall_s:.4f} cpu_s {c.cpu_s:.4f} "
              f"peak_rss_mb {c.peak_rss_mb:.2f} exit {c.exit_code}")
    samples = {"wall_s": [c.wall_s for c in runs], "cpu_s": [c.cpu_s for c in runs],
               "peak_rss_mb": [c.peak_rss_mb for c in runs], "setup_s": setup}
    for name, values in samples.items():
        print(f"{args.workload} {name}: {summary(values)}")
    print(f"{args.workload} fail_ratio: {gate.failed}/{gate.attempted}")
    # Seconds per verdict is the run's mean, its work rate: the host's speed
    # swings for seconds at a time flip the median of a few children.
    return {"wall_s": statistics.fmean(samples["wall_s"]),
            "cpu_s": statistics.fmean(samples["cpu_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "setup_s": statistics.median(setup)}


def traced_metrics(args, workload, config, workdir, env, gate, run_cli, remaining) -> dict:
    plain = run_cli(0)
    out = workdir / "report-traced.json"
    log = workdir / "traced.log"
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.unlink(missing_ok=True)
    traced = spawn([sys.executable, str(BENCH / "tracer.py"), str(trace_path), "--",
                    *cli_args(workload, config, out)], env, workdir, log, remaining())
    gate.check("traced run", traced.exit_code, out, log)
    try:
        trace = json.loads(trace_path.read_text())
        findings = len(json.loads(out.read_text())["findings"])
    except (OSError, ValueError, KeyError) as exc:
        gate.record("trace result", f"unreadable: {exc}")
        return {}
    if trace["missing"]:
        print(f"hooks not installed: {', '.join(trace['missing'])}", file=sys.stderr)
    print(f"trace written to {trace_path}")
    return {**trace["metrics"], "axioms.findings": findings,
            "trace.overhead_s": traced.wall_s - plain.wall_s}


if __name__ == "__main__":
    sys.exit(main())
