"""Batch front-end.

Commands: validate | act | product | field | locality | axioms | v0 | report.
Exit codes: 0 pass, 1 mathematical failure, 2 usage/config error, 3 resource
refusal (window budget exceeded, an exponent search hit its cap so no verdict
was reached and no finding failed, or the run exhausted the recursion limit
or memory).

All input and output is JSON with rationals as "p/q" strings; reports are
byte-deterministic for a fixed config apart from the timing fields.

A command runs with the cyclic garbage collector paused, and :func:`main`
restores the state it found: the engine makes no reference cycles (a tier-1
test checks every check group), so the collector would only rescan the memo
tables and free nothing; reference counting frees everything.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

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


def _estimate_cost(cfg: SessionConfig, windows) -> int:
    groups = len(cfg.checks or CHECK_GROUPS)
    return sum(w.size * w.size * len(w.states) * groups for w in windows)


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


def cmd_axioms(cfg: SessionConfig, args) -> int:
    out = _out_path(cfg, args)
    session = cfg.build_session()
    windows = cfg.build_windows(session)
    cost = _estimate_cost(cfg, windows)
    budget = args.budget if args.budget is not None else cfg.budget
    if budget < 0:
        raise SpecFormatError(f"--budget must be >= 0, got {budget}")
    if cost > budget:
        print(f"refused: estimated cost {cost} exceeds budget {budget}; "
              f"shrink the window or raise --budget", file=sys.stderr)
        return EXIT_REFUSED
    if args.mutate:
        report = run_mutation_suite(session, windows[0], seed=cfg.seed)
        report.config_digest = _digest(cfg.digest_payload())
        _write_report(report, out)
        return _verdict(report)
    cache = _load_cache(args.cache)
    findings = []
    groups = cfg.checks or CHECK_GROUPS
    for wi, win in enumerate(windows):
        for group in groups:
            key = _group_cache_key(cfg, session.spec, wi, group)
            if key in cache:
                findings.extend(_findings_from_json(cache[key]))
                continue
            part = run_suite(session, win, seed=cfg.seed, checks=[group], samples=cfg.samples)
            cache[key] = [f.to_json() for f in part.findings]
            findings.extend(part.findings)
    _save_cache(args.cache, cache)
    report = SuiteReport(findings, config_digest=_digest(cfg.digest_payload()))
    _write_report(report, out)
    return _verdict(report)


def cmd_v0(cfg: SessionConfig, args) -> int:
    import random
    out = _out_path(cfg, args)
    session = cfg.build_session()
    win = cfg.build_windows(session)[0]
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
