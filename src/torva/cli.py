"""Batch front-end.

Commands: validate | act | product | field | locality | axioms | v0 | report.
Exit codes: 0 pass, 1 mathematical failure, 2 usage/config error, 3 resource
refusal (the estimated cost, vacuum-ideal chains included, exceeds the
budget, an exponent search hit its cap so no verdict was reached and no
finding failed, or the run exhausted the recursion limit or memory).

All input and output is JSON with rationals as "p/q" strings; reports are
byte-deterministic for a fixed config apart from the timing fields.

A command runs with the cyclic garbage collector paused, and :func:`main`
restores the state it found: the engine makes no reference cycles (a tier-1
test checks every check group), so the collector would only rescan the memo
tables and free nothing; reference counting frees everything.

``axioms`` runs the (window, group) jobs that ``--cache`` does not hold on
forked workers, one per CPU in the process's affinity mask and at most one per
job, so ``taskset -c 0`` gives a serial run; with one CPU or one job, or on a
platform without ``os.fork`` and ``os.sched_getaffinity``, the jobs run in
this process.  ``v0``, ``--mutate`` and every other command stay in-process.
Each check group draws from its own random stream and no memo table changes a
result (:func:`torva.axioms.run_suite`), so the report is the serial run's
byte for byte, apart from ``wall_ms``, and a failing job exits as it would
serially.  Each worker fills its own memo tables: the footprint is about
(workers + 1) processes, and the budget's memory weight is per process.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys
from typing import Optional

try:  # CPython's own SHA-256: hashlib would load OpenSSL's libcrypto for two digests
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .axioms import (CHECK_GROUPS, Finding, SuiteReport, run_mutation_suite, run_suite,
                     _vacuum_ideal_findings)
from .config import SessionConfig
from .fields import LocalityError, TerminationError
from .liecore import LieAlgebraSpec, SpecFormatError, validate_lie_spec
from .states import state_to_json

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return sha256(blob).hexdigest()


@functools.cache
def _engine_digest() -> str:
    """SHA-256 of the bytes of this package's ``*.py`` files, in name order."""
    root = os.path.dirname(os.path.abspath(__file__))
    h = sha256()
    for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
        with open(os.path.join(root, name), "rb") as fh:
            h.update(name.encode() + b"\0" + sha256(fh.read()).digest())
    return h.hexdigest()


def _group_cache_key(cfg: SessionConfig, spec: LieAlgebraSpec, window_index: int,
                     group: str) -> str:
    """Key of one group's cached findings.  Besides the config digest payload,
    which names the algebra by path only, it covers the algebra's content,
    the top-level window defaults and the engine's own source, so a cache
    written by other code is never replayed."""
    return _digest({**cfg.digest_payload(), "algebra_sha256": _digest(spec.to_json()),
                    "depth": cfg.depth, "locality_bound": cfg.locality_bound,
                    "engine_sha256": _engine_digest(), "window_index": window_index,
                    "group": group})


def _load_cache(path):
    if not path or not os.path.exists(path):
        return {}
    try:
        with open(path) as fh:
            cache = json.load(fh)
        if not isinstance(cache, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as exc:
        raise SpecFormatError(f"cache {path!r} is not a readable cache file: {exc}") from exc
    return cache


def _save_cache(path, cache):
    if path:
        with open(path, "w") as fh:
            json.dump(cache, fh, sort_keys=True, indent=1)


def _findings_from_json(items):
    return [Finding(f["identity"], f["window"], f["status"], f.get("witness"),
                    f.get("wall_ms", 0), f.get("detail", {})) for f in items]


_CHAIN_BYTES = 640   # v0 on the r1 window grew by about 0.64 KB per chain from depth 4 to 6
_COUNTED = 1000      # past min(M, depth) = 1000 there are over 2**1000 chains, and comb's
                     # time grows with the digits of its result


def _chain_count(dim: int, window) -> Optional[int]:
    """The chains the vacuum ideal builds on ``window`` (the vacuum included):
    C(M + depth, depth), with M = #{m0 <= -1} x dim g x |m-box| creation
    modes; None when min(M, depth) > _COUNTED, so more than 2**_COUNTED."""
    creation = max(0, min(window.m0_hi, -1) - window.m0_lo + 1) * dim * window.box_size
    depth = max(window.depth, 0)
    if min(creation, depth) > _COUNTED:
        return None
    return math.comb(creation + depth, depth)


def _estimate_cost(dim: int, windows, groups) -> tuple:
    """(cost, chains): window size² x states x groups, plus _CHAIN_BYTES per
    vacuum-ideal chain when the ``ideal`` group runs; ``chains`` is their
    count, None (and the cost with it) when a window's is past counting."""
    cost = sum(w.size * w.size * len(w.states) for w in windows) * len(groups)
    if "ideal" not in groups:
        return cost, 0
    counts = [_chain_count(dim, w) for w in windows]
    if None in counts:
        return None, None
    return cost + sum(counts) * _CHAIN_BYTES, sum(counts)


def _refusal(cfg: SessionConfig, args, dim: int, windows, groups) -> Optional[str]:
    """The ``refused:`` line when the estimated cost exceeds the budget, else None."""
    budget = args.budget if args.budget is not None else cfg.budget
    if budget < 0:
        raise SpecFormatError(f"--budget must be >= 0, got {budget}")
    cost, chains = _estimate_cost(dim, windows, groups)
    if cost is None:
        return f"refused: the vacuum ideal has more than 2**{_COUNTED} chains"
    if cost <= budget:
        return None
    return (f"refused: estimated cost {cost} exceeds budget {budget}"
            + (f" ({chains} vacuum-ideal chains)" if chains else "")
            + "; shrink the window or raise --budget")


def _out_path(cfg: SessionConfig, args):
    """``--out`` or the config's ``output`` (or None), refused before the run
    when it is a directory or its directory is missing; nothing is written."""
    path = args.out or (cfg.resolve(cfg.output) if cfg.output else None)
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path)))):
        raise SpecFormatError(f"report path {path!r} is a directory or has no parent directory")
    return path


def _verdict(report: SuiteReport) -> int:
    """1 if a finding failed, else 3 if an exponent search hit its cap, else
    0; prints the summary and the overall line."""
    for line in report.summary_lines():
        print(line)
    if any(f.status == "fail" for f in report.findings):
        print("overall: FAIL" + (" (caps exceeded)" if report.cap_exceeded else ""))
        return EXIT_MATH_FAIL
    if report.cap_exceeded:
        print("overall: no full verdict (caps exceeded)")
        print("no full verdict: an exponent search hit its cap", file=sys.stderr)
        return EXIT_REFUSED
    print("overall: pass")
    return EXIT_PASS


def _write_report(report: SuiteReport, path):
    if path:
        with open(path, "w") as fh:
            json.dump(report.to_json(), fh, indent=1, sort_keys=True)


def cmd_validate(cfg: SessionConfig, args) -> int:
    spec = LieAlgebraSpec.from_file(cfg.resolve(cfg.algebra_path))
    rep = validate_lie_spec(spec)
    print(json.dumps(rep.to_json(), indent=1, sort_keys=True))
    return EXIT_PASS if rep.ok else EXIT_MATH_FAIL


def cmd_act(cfg: SessionConfig, args) -> int:
    session = cfg.build_session()
    state = session.parse_state(" ".join(args.state))
    n = _parse_multi(args.m, session.r)
    result = session.module.act(args.label, args.n0, n, state)
    _print_state(session, result, args.json)
    return EXIT_PASS


def cmd_product(cfg: SessionConfig, args) -> int:
    session = cfg.build_session()
    u = session.parse_state(args.u)
    v = session.parse_state(" ".join(args.v))
    m = _parse_multi(args.m, session.r)
    result = session.product(u, args.m0, m, v)
    _print_state(session, result, args.json)
    return EXIT_PASS


def cmd_field(cfg: SessionConfig, args) -> int:
    session = cfg.build_session()
    u = session.parse_state(" ".join(args.state))
    windows = cfg.build_windows(session)
    if not 0 <= args.window < len(windows):
        raise SpecFormatError(f"window index {args.window} out of range")
    win = windows[args.window]
    table = []
    for (n0, n) in win.modes():
        for si, w in enumerate(win.states):
            val = session.vertex_mode(u, n0, n, w)
            if val:
                table.append({"mode": [n0, list(n)], "state": si,
                              "value": state_to_json(session.spec, val)})
    print(json.dumps({"modes": table}, indent=1, sort_keys=True))
    return EXIT_PASS


def cmd_locality(cfg: SessionConfig, args) -> int:
    session = cfg.build_session()
    win = cfg.build_windows(session)[0]
    fs = session.fields
    ha = fs.identity() if args.a == "1" else fs.current(args.a)
    hb = fs.identity() if args.b == "1" else fs.current(args.b)
    k = fs.locality_order(ha, hb, win)
    if k is None:
        print(f"locality of ({args.a}, {args.b}) exceeds bound {win.locality_bound} on the window")
        return EXIT_REFUSED
    print(k)
    return EXIT_PASS


class _WorkerLost(Exception):
    """A worker ended, by a signal or the OOM killer, with a job unfinished."""


_QUEUED = 1024  # job indices of 4 bytes in the pipe at most: 4 KiB, so a write never blocks


def _forked_map(fn, items: list) -> list:
    """``[fn(x) for x in items]`` with ``fn`` returning JSON, on forked
    workers: one per CPU in the affinity mask, at most one per item.  With one
    of either, without ``os.fork``/``os.sched_getaffinity``, or while another
    thread runs (a forked child could inherit a lock that thread holds), the
    loop runs in-process; so it does when the first fork fails, and when a
    later one fails the workers forked before it take every job.

    Each worker takes the next index, in order, from one shared pipe and
    sends back JSON lines on its own pipe, which the parent drains as they
    arrive: ``{"job": i}`` when it starts a job, then the job's result or its
    pickled exception.  The parent takes the outcomes in item order and
    re-raises the first exception, so a failure reads as in the serial loop;
    a worker that ends inside a job raises :class:`_WorkerLost`.  Every worker
    is killed, if still running, and reaped before this returns or raises."""
    affinity = getattr(os, "sched_getaffinity", None)
    threading = sys.modules.get("threading")
    count = (min(len(affinity(0)), len(items)) if affinity and hasattr(os, "fork")
             and not (threading and threading.active_count() > 1) else 1)
    if count < 2:
        return [fn(x) for x in items]
    import pickle
    import select
    import signal
    sys.stdout.flush()
    sys.stderr.flush()
    parent = os.getpid()
    jobs_r, jobs_w = os.pipe()
    queued = min(len(items), _QUEUED)
    os.write(jobs_w, b"".join(i.to_bytes(4, "big") for i in range(queued)))
    workers = {}   # read end of a worker's pipe -> [pid, unread bytes, job it runs]
    outcomes = {}  # job -> ("result" | "error" | "lost", value)
    try:
        if queued == len(items):
            os.close(jobs_w)
            jobs_w = None
        for _ in range(count):
            out_r, out_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the workers forked so far take every job
                os.close(out_r)
                os.close(out_w)
                if not workers:
                    return [fn(x) for x in items]
                break
            if pid == 0:
                inherited = [out_r, *workers, *([jobs_w] if jobs_w is not None else [])]
                _work(fn, items, jobs_r, out_w, parent, inherited)
            os.close(out_w)
            workers[out_r] = [pid, b"", None]
        poll = select.poll()
        for fd in workers:
            poll.register(fd, select.POLLIN)
        results, lost = [], "exit status 0"
        while len(results) < len(items):
            kind, value = outcomes.pop(len(results), (None, None))
            if kind == "result":
                results.append(value)
                continue
            if kind == "error":
                raise pickle.loads(bytes.fromhex(value))
            if kind == "lost" or not workers:
                raise _WorkerLost(f"a check worker ended without a result ({value or lost})")
            for fd, _ in poll.poll():
                worker = workers[fd]
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    poll.unregister(fd)
                    del workers[fd]
                    os.close(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
                    if code:
                        lost = (next((s.name for s in signal.Signals if s == -code),
                                     f"signal {-code}") if code < 0 else f"exit status {code}")
                    if worker[2] is not None:
                        outcomes[worker[2]] = ("lost", lost)
                    continue
                *lines, worker[1] = (worker[1] + chunk).split(b"\n")
                for line in lines:
                    message = json.loads(line)
                    job = message.pop("job")
                    if message:
                        outcomes[job], worker[2] = message.popitem(), None
                        continue
                    worker[2] = job
                    if jobs_w is not None:  # one index left the pipe: queue the next
                        os.write(jobs_w, queued.to_bytes(4, "big"))
                        queued += 1
                        if queued == len(items):
                            os.close(jobs_w)
                            jobs_w = None
        return results
    finally:
        for fd in (jobs_r, jobs_w):
            if fd is not None:
                os.close(fd)
        for fd, (pid, _, _) in workers.items():
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)


_ORPHAN_POLL_S = 0.1  # a worker looks this often for its parent, inside a job too


def _work(fn, items, jobs_r, out_w, parent, inherited):
    """A worker: close the ``inherited`` descriptors it does not use, run
    jobs from the shared pipe until it is empty, a job fails, or the parent
    is gone; then ``os._exit``, so no worker returns into :func:`main`,
    prints, or writes a report or a cache.  A timer signal looks for the
    parent every :data:`_ORPHAN_POLL_S` seconds, so a worker whose parent was
    killed exits within one period even inside a job; the pipe reads and
    writes it interrupts are retried (PEP 475)."""
    import signal

    def send(message):
        data = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        while data:
            data = data[os.write(out_w, data):]

    def orphaned(signum, frame):
        if os.getppid() != parent:
            os._exit(0)
    try:
        for fd in inherited:
            os.close(fd)
        signal.signal(signal.SIGALRM, orphaned)
        signal.setitimer(signal.ITIMER_REAL, _ORPHAN_POLL_S, _ORPHAN_POLL_S)
        while os.getppid() == parent:
            record = os.read(jobs_r, 4)
            if not record:
                break
            job = int.from_bytes(record, "big")
            send({"job": job})
            try:
                send({"job": job, "result": fn(items[job])})
            except BaseException as exc:
                import pickle
                import traceback
                if hasattr(exc, "add_note"):  # shown where the parent prints a traceback
                    exc.add_note("".join(traceback.format_exception(exc)).rstrip())
                try:
                    blob = pickle.dumps(exc)
                    pickle.loads(blob)
                except Exception:  # an exception that does not round-trip goes as its text
                    blob = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                send({"job": job, "error": blob.hex()})
                break
    finally:
        os._exit(0)


def cmd_axioms(cfg: SessionConfig, args) -> int:
    out = _out_path(cfg, args)
    session = cfg.build_session()
    windows = cfg.build_windows(session)
    groups = cfg.checks or CHECK_GROUPS
    refusal = _refusal(cfg, args, session.spec.dim, windows, groups)
    if refusal:
        print(refusal, file=sys.stderr)
        return EXIT_REFUSED
    if args.mutate:
        report = run_mutation_suite(session, windows[0], seed=cfg.seed)
        report.config_digest = _digest(cfg.digest_payload())
        _write_report(report, out)
        return _verdict(report)
    cache = _load_cache(args.cache)
    jobs = [(_group_cache_key(cfg, session.spec, wi, group), win, group)
            for wi, win in enumerate(windows) for group in groups]
    todo = [job for job in jobs if job[0] not in cache]

    def run(job):
        part = run_suite(session, job[1], seed=cfg.seed, checks=[job[2]], samples=cfg.samples)
        return [f.to_json() for f in part.findings]

    try:
        for job, items in zip(todo, _forked_map(run, todo)):
            cache[job[0]] = items
    except _WorkerLost as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    _save_cache(args.cache, cache)
    findings = [f for key, _, _ in jobs for f in _findings_from_json(cache[key])]
    report = SuiteReport(findings, config_digest=_digest(cfg.digest_payload()))
    _write_report(report, out)
    return _verdict(report)


def cmd_v0(cfg: SessionConfig, args) -> int:
    import random
    out = _out_path(cfg, args)
    session = cfg.build_session()
    win = cfg.build_windows(session)[0]
    refusal = _refusal(cfg, args, session.spec.dim, [win], ("ideal",))
    if refusal:
        print(refusal, file=sys.stderr)
        return EXIT_REFUSED
    holder = {}
    findings = _vacuum_ideal_findings(session, win, random.Random(cfg.seed), holder)
    report = SuiteReport(findings, config_digest=_digest(cfg.digest_payload()))
    payload = report.to_json()
    payload["graded_dims"] = {str(k): v for k, v in sorted(holder["graded_dims"].items())}
    payload["basis_size"] = holder["basis_size"]
    if holder["labels"] is not None:
        payload["spanning"] = holder["labels"]
    if out:
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    print("graded dims:", payload["graded_dims"])
    return _verdict(report)


def cmd_report(cfg, args) -> int:
    try:
        with open(args.path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or not isinstance(data.get("findings"), list):
            raise ValueError("no 'findings' list")
        findings = _findings_from_json(data["findings"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SpecFormatError(f"{args.path!r} is not a readable report: {exc!r}") from exc
    return _verdict(SuiteReport(findings, config_digest=data.get("config_digest", "")))


def _parse_multi(text: str, r: int):
    parts = [p for p in str(text).split(",") if p != ""]
    if len(parts) != r:
        raise SpecFormatError(f"multi-index {text!r} has rank {len(parts)}, expected {r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise SpecFormatError(f"multi-index {text!r} is not a list of integers") from None


def _print_state(session, state, as_json: bool):
    if as_json:
        print(json.dumps(state_to_json(session.spec, state), indent=1, sort_keys=True))
    else:
        print(session.render(state))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torva", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", required=True, help="session config JSON")
    p.add_argument("--cache", default=None, help="persistent finding cache file")
    p.add_argument("--budget", type=int, default=None, help="window cost budget override")
    p.add_argument("--mutate", action="store_true",
                   help="with 'axioms': corrupt constants one at a time and require detection")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="check the algebra hypotheses")

    pa = sub.add_parser("act", help="apply one loop mode to a state")
    pa.add_argument("label"); pa.add_argument("n0", type=int); pa.add_argument("m")
    pa.add_argument("state", nargs="+"); pa.add_argument("--json", action="store_true")

    pp = sub.add_parser("product", help="state product u_(m0,m) v")
    pp.add_argument("u"); pp.add_argument("m0", type=int); pp.add_argument("m")
    pp.add_argument("v", nargs="+"); pp.add_argument("--json", action="store_true")

    pf = sub.add_parser("field", help="mode table of the vertex operator of a state")
    pf.add_argument("state", nargs="+")
    pf.add_argument("--window", type=int, default=0, help="index of the config window to tabulate")

    pl = sub.add_parser("locality", help="locality order of two generator currents")
    pl.add_argument("a"); pl.add_argument("b")

    px = sub.add_parser("axioms", help="run the verification suite")
    px.add_argument("--out", default=None)

    pv = sub.add_parser("v0", help="build the vacuum ideal and run its checks")
    pv.add_argument("--out", default=None)

    pr = sub.add_parser("report", help="summarise a stored report file")
    pr.add_argument("path")
    return p


_COMMANDS = {"validate": cmd_validate, "act": cmd_act, "product": cmd_product,
             "field": cmd_field, "locality": cmd_locality, "axioms": cmd_axioms,
             "v0": cmd_v0, "report": cmd_report}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        cfg = SessionConfig.from_file(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (SpecFormatError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LocalityError, TerminationError) as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except (RecursionError, MemoryError) as exc:
        print(f"refused: out of resources ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_REFUSED
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
