"""Traced run of one torva CLI command, in-process.

Installs timing hooks on the entry points of each torva layer from outside,
as class and module attribute wrappers, then calls ``torva.cli.main`` with the
given arguments and writes the per-layer numbers and the recorded spans to a
JSON file.  Nothing under ``src/torva`` changes.  A hook whose target no
longer exists is skipped, and its metrics are absent from the result.

    python3 bench/tracer.py RESULT.json -- --config CFG axioms --out REPORT.json

The process exits with the CLI's exit code.  ``torva`` must be importable
(``PYTHONPATH=src``).
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

GROUPS = ["lie", "module", "table", "locality", "oracle", "derivative",
          "transfer", "axioms", "skew", "vacuum", "ideal", "module-variant"]

# metric prefix -> (module, attribute path of the hooked callable)
HOOKS = {
    "liecore.bracket": ("torva.liecore", "ToroidalAlgebra.bracket"),
    "states.act": ("torva.states", "VacuumModule.act"),
    "states.act_mono": ("torva.states", "VacuumModule._act_mono"),
    "states.normalize_word": ("torva.states", "VacuumModule._normalize_word"),
    "fields.mode": ("torva.fields", "FieldSpace.mode"),
    "fields.product_mode": ("torva.fields", "FieldSpace._product_mode"),
    "fields.commutator": ("torva.fields", "FieldSpace.commutator"),
    "fields.locality_order": ("torva.fields", "FieldSpace.locality_order"),
    "fields.residue_oracle": ("torva.fields", "FieldSpace.residue_oracle_mode"),
    "vertexops.vertex_mode": ("torva.vertexops", "Session.vertex_mode"),
    "vertexops.vm_mono": ("torva.vertexops", "Session._vm_mono"),
    "vertexops.ordinary_mode": ("torva.vertexops", "Session.ordinary_mode"),
    "vertexops.build_vacuum_ideal": ("torva.vertexops", "Session.build_vacuum_ideal"),
    "vertexops.echelonize": ("torva.vertexops", "echelonize"),
}

# metric prefix -> attribute path of an LRU table, starting at the Session
CACHES = {
    "states.act_cache": "module._act_cache",
    "states.word_cache": "module._word_cache",
    "fields.mode_cache": "fields._mode_cache",
    "fields.comm_cache": "fields._comm_cache",
    "vertexops.vm_cache": "_vm_cache",
    "vertexops.vm_state_cache": "_vm_state_cache",
}


def resolve(module_name: str, path: str):
    """(owner, attribute name) for a dotted path inside a module, or None."""
    owner = sys.modules.get(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Call counts and self times of hooked functions, plus spans.

    A hooked call's self time is its duration minus the durations of the
    hooked calls made inside it.  Hot recursive functions are hooked, so each
    call only bumps two numbers; spans are kept for the few calls at command,
    set-up and check-group boundaries.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.children = [0.0]   # per open hooked call: time spent in hooked callees
        self.counters = {}      # prefix -> [calls, self seconds, rows]
        self.spans = []
        self.open_spans = []
        self.sessions = []

    def hook(self, prefix: str, module_name: str, path: str, count_rows=False) -> bool:
        """Count calls and self time of a callable; with ``count_rows`` also
        sum the length of its first argument."""
        target = resolve(module_name, path)
        if target is None:
            return False
        owner, name = target
        fn = getattr(owner, name)
        counter = self.counters[prefix] = [0, 0.0, 0 if count_rows else None]
        children = self.children
        clock = time.perf_counter

        def hooked(*args, **kwargs):
            if count_rows:
                counter[2] += len(args[0])
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                counter[0] += 1
                counter[1] += elapsed - children.pop()
                children[-1] += elapsed

        setattr(owner, name, hooked)
        return True

    def span(self, module_name: str, path: str, label, keep=None) -> bool:
        """Record a span per call; ``label(args, kwargs)`` names it and
        ``keep(result)`` sees the return value."""
        target = resolve(module_name, path)
        if target is None:
            return False
        owner, name = target
        fn = getattr(owner, name)

        def spanned(*args, **kwargs):
            with self.spanning(label(args, kwargs)):
                result = fn(*args, **kwargs)
            if keep is not None:
                keep(result)
            return result

        setattr(owner, name, spanned)
        return True

    @contextlib.contextmanager
    def spanning(self, name: str):
        record = {"id": len(self.spans), "name": name,
                  "parent": self.open_spans[-1] if self.open_spans else None,
                  "start_s": time.perf_counter() - self.t0}
        self.spans.append(record)
        self.open_spans.append(record["id"])
        try:
            yield
        finally:
            record["end_s"] = time.perf_counter() - self.t0
            self.open_spans.pop()

    def span_seconds(self, name: str) -> float:
        return sum((s["end_s"] - s["start_s"] for s in self.spans
                    if s["name"] == name and "end_s" in s), 0.0)


def install(tracer: Tracer) -> set:
    """Install every hook and span; returns the prefixes that could not be."""
    import torva.cli  # noqa: F401  (imports every layer)

    missing = {p for p, (mod, path) in HOOKS.items()
               if not tracer.hook(p, mod, path, count_rows=p == "vertexops.echelonize")}
    if not tracer.span("torva.config", "SessionConfig.build_session",
                       lambda a, k: "config.build_session", keep=tracer.sessions.append):
        missing.add("config.build_session")
    if not tracer.span("torva.config", "SessionConfig.build_windows",
                       lambda a, k: "config.build_windows"):
        missing.add("config.build_windows")
    groups = tracer.span("torva.cli", "run_suite",
                         lambda a, k: "group:" + ",".join(k.get("checks") or GROUPS))
    # `v0` runs the `ideal` group's checks directly
    ideal = tracer.span("torva.cli", "_vacuum_ideal_findings", lambda a, k: "group:ideal")
    if not (groups and ideal):
        missing.add("axioms.group")
    return missing


def metrics(tracer: Tracer, missing: set) -> dict:
    out = {}
    for prefix, (calls, self_s, rows) in tracer.counters.items():
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.self_s"] = self_s
        if rows is not None:
            out[f"{prefix}.rows"] = rows
    session = tracer.sessions[-1] if tracer.sessions else None
    for prefix, path in CACHES.items():
        table = session
        for part in path.split("."):
            table = getattr(table, part, None)
        if table is None or not hasattr(table, "hits"):
            continue
        lookups = table.hits + table.misses
        out[f"{prefix}.hits"] = table.hits
        out[f"{prefix}.misses"] = table.misses
        out[f"{prefix}.evictions"] = table.misses - len(table)
        out[f"{prefix}.lookups"] = lookups
        out[f"{prefix}.hit_ratio"] = table.hits / lookups if lookups else 0.0
    binom = getattr(sys.modules.get("torva.series"), "binom", None)
    if hasattr(binom, "cache_info"):
        info = binom.cache_info()
        calls = info.hits + info.misses
        out["series.binom.calls"] = calls
        out["series.binom.hit_ratio"] = info.hits / calls if calls else 0.0
    if "axioms.group" not in missing:
        for group in GROUPS:
            out[f"axioms.group.{group}.s"] = tracer.span_seconds(f"group:{group}")
    for name in ("config.build_session", "config.build_windows"):
        if name not in missing:
            out[f"{name}.s"] = tracer.span_seconds(name)
    return out


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    missing = install(tracer)
    import torva.cli

    with tracer.spanning("command:" + " ".join(cli_args)):
        code = torva.cli.main(cli_args)
    with open(result_path, "w") as fh:
        json.dump({"exit": code, "missing": sorted(missing),
                   "metrics": metrics(tracer, missing), "spans": tracer.spans}, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
