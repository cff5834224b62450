"""Session configuration: a JSON file naming the algebra, the rank, the
level, the check windows and the resource knobs.

Shape:

    {
      "algebra": "configs/sl2.json",
      "r": 1,
      "level": "1",
      "windows": [{"m0": [-2, 2], "m": [[-1, 1]], "states": ["vac", "e"],
                   "locality_bound": 8, "depth": 2}],
      "seed": 0, "samples": 20, "budget": 4000000,
      "checks": null, "output": "report.json"
    }

Rationals are strings ("p/q") end to end; window states use the state
reference grammar of :meth:`torva.vertexops.Session.parse_state`.  A
top-level field not named above is a config error.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .axioms import CHECK_GROUPS
from .fields import ModeWindow
from .liecore import LieAlgebraSpec, SpecFormatError, _integer, frac
from .vertexops import Session


_FIELDS = ("algebra", "r", "level", "windows", "seed", "samples", "budget", "checks",
           "output", "depth", "locality_bound")


class SessionConfig:
    def __init__(self, algebra_path: str, r: int, level: str, windows: list, seed: int = 0,
                 samples: int = 20, budget: int = 4_000_000, checks: Optional[list] = None,
                 output: Optional[str] = None, base_dir: str = ".", depth: int = 2,
                 locality_bound: int = 8):
        self.algebra_path, self.r, self.level, self.windows = algebra_path, r, level, windows
        self.seed, self.samples, self.budget, self.checks = seed, samples, budget, checks
        self.output, self.base_dir = output, base_dir
        # window defaults when a window omits them
        self.depth, self.locality_bound = depth, locality_bound

    @classmethod
    def from_file(cls, path: str) -> "SessionConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecFormatError(
                    f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        return cls.from_json(data, base_dir=os.path.dirname(os.path.abspath(path)))

    @classmethod
    def from_json(cls, data: dict, base_dir: str = ".") -> "SessionConfig":
        if not isinstance(data, dict):
            raise SpecFormatError("config must be a JSON object")
        unknown = sorted(set(data) - set(_FIELDS))
        if unknown:
            raise SpecFormatError(f"config fields {unknown} are unknown: each field must be "
                                  f"one of {list(_FIELDS)}")
        try:
            algebra = data["algebra"]
            r = _integer("r", data["r"], 1)
            level = str(data.get("level", "0"))
        except KeyError as exc:
            raise SpecFormatError(f"config missing field {exc}") from exc
        output = data.get("output")
        if not isinstance(algebra, str) or not isinstance(output, (str, type(None))):
            raise SpecFormatError(f"config fields 'algebra' and 'output' must be paths, got "
                                  f"{algebra!r} and {output!r}")
        try:
            frac(level)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecFormatError(f"level {level!r} is not a rational") from exc
        windows = data.get("windows") or [{}]
        if not isinstance(windows, list) or not windows:
            raise SpecFormatError("'windows' must be a nonempty list")
        checks = data.get("checks")
        if checks is not None and not (isinstance(checks, list)
                                       and all(c in CHECK_GROUPS for c in checks)):
            raise SpecFormatError(f"'checks' must be null or a list of check groups "
                                  f"{list(CHECK_GROUPS)}, got {checks!r}")
        return cls(
            algebra_path=algebra, r=r, level=level, windows=windows,
            seed=_integer("seed", data.get("seed", 0)),
            samples=_integer("samples", data.get("samples", 20), 0),
            budget=_integer("budget", data.get("budget", 4_000_000), 0),
            checks=checks, output=output, base_dir=base_dir,
            depth=_integer("depth", data.get("depth", 2)),
            locality_bound=_integer("locality_bound", data.get("locality_bound", 8)))

    def resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)

    def build_session(self) -> Session:
        spec = LieAlgebraSpec.from_file(self.resolve(self.algebra_path))
        return Session(spec, self.r, self.level)

    def build_windows(self, session: Session) -> list:
        out = []
        for w in self.windows:
            if not isinstance(w, dict):
                raise SpecFormatError(f"malformed mode window: {w!r} is not an object")
            m0 = w.get("m0", [-2, 2])
            m_box = w.get("m") or [[-1, 1]] * self.r
            if not isinstance(m_box, list):
                raise SpecFormatError(f"malformed mode window: 'm' must be a list of ranges, "
                                      f"got {m_box!r}")
            if len(m_box) != self.r:
                raise SpecFormatError(f"window box rank {len(m_box)} != r={self.r}")
            states = w.get("states", ["vac"])
            if not isinstance(states, list):
                raise SpecFormatError(f"malformed mode window: 'states' must be a list of "
                                      f"state references, got {states!r}")
            states = [session.parse_state(s) for s in states]
            out.append(ModeWindow(m0, m_box, states,
                                  locality_bound=w.get("locality_bound", self.locality_bound),
                                  depth=w.get("depth", self.depth)))
        return out

    def digest_payload(self) -> dict:
        return {"algebra": self.algebra_path, "r": self.r, "level": self.level,
                "windows": self.windows, "seed": self.seed, "samples": self.samples,
                "checks": self.checks}
