"""Every function in the engine is reached by a CLI command.

Each command runs once through ``cli.main`` on a small generated config with
``sys.setprofile`` on, and every ``def`` in ``src/torva/*.py`` (found with
``ast``) must have been entered.  The affinity mask is pinned to one CPU, so
``axioms`` runs its check groups in this process, where the profiler sees
them, and not on forked workers.  A function that only tests reach is dead
code to the program: delete it, or name it in ``ALLOWED`` with its reason.
"""

import ast
import json
import os
import shutil
import sys

from conftest import CONFIG_DIR

from torva import cli

SRC = os.path.dirname(os.path.abspath(cli.__file__))

# module:qualified name -> why no command enters it
ALLOWED = {
    "fields:FieldHandle.__repr__": "debugging aid; reports print labels",
    "liecore:ToroidalElement.__repr__": "witness text of a failing loop-algebra finding",
    "states:PBWMonomial.__repr__": "debugging aid; states render through the session",
    "states:StateVector.__repr__": "debugging aid; states render through the session",
    "axioms:CapExceeded.__init__": "raised only when a search hits its cap",
    "liecore:ToroidalElement.__hash__": "elements are compared, never used as keys",
    "states:Memo.__len__": "read by the benchmark tracer",
    "vertexops:_subtract": "the ideal spans by distinct unit monomials, so echelonize never subtracts",
    "cli:_work": "runs only inside a forked worker; covered by "
                 "tests/test_cli.py::test_workers_leave_reports_and_stdout_as_the_serial_run",
    "cli:_work.send": "runs only inside a forked worker; covered by "
                      "tests/test_cli.py::test_workers_leave_reports_and_stdout_as_the_serial_run",
}


def engine_defs():
    """{(file, first line of the def or its first decorator): qualified name}."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        tree = ast.parse(open(path).read())

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qual = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                        out[(path, first)] = f"{name[:-3]}:{qual}"
                    walk(child, qual + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
    return out


def write_config(tmp_path):
    shutil.copy(os.path.join(CONFIG_DIR, "sl2.json"), tmp_path / "sl2.json")
    json_state = [{"word": [["f", 1, 0]], "tail": "h", "coeff": "1/2"}]
    payload = {"algebra": "sl2.json", "r": 1, "level": "1", "seed": 3, "samples": 2,
               "windows": [{"m0": [-1, 1], "m": [[0, 0]], "states": ["vac", "e", json_state],
                            "locality_bound": 8, "depth": 1}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_every_engine_function_is_reached_by_a_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = write_config(tmp_path)
    report, cache = str(tmp_path / "report.json"), str(tmp_path / "cache.json")
    commands = [
        ["validate"], ["act", "e", "0", "0", "f(-1;0)", "vac"],
        ["product", "e(-1;0) vac", "-1", "0", "f(-1;0)", "vac"], ["field", "h(-1;0) vac"],
        ["locality", "e", "f"], ["--cache", cache, "axioms", "--out", report],
        ["--cache", cache, "axioms"], ["--mutate", "axioms"], ["v0"], ["report", report]]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # a memoised function filled by an earlier test would not be entered again
    for module in [m for name, m in sys.modules.items() if name.startswith("torva.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    codes = []
    sys.setprofile(profile)
    try:
        for args in commands:
            codes.append(cli.main(["--config", cfg, *args]))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(commands)
    entered = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in entered}
    defs = engine_defs()
    assert set(ALLOWED) <= set(defs.values())
    unreached = sorted(q for key, q in defs.items() if key not in entered and q not in ALLOWED)
    assert unreached == []
    assert sorted(q for key, q in defs.items() if key in entered and q in ALLOWED) == []
