"""Fuzzed input contract: a mutated config or algebra file never crashes the
CLI.  Whatever the input, ``torva ... axioms`` ends with exit 0, 1, 2 or 3
and no exception escapes ``cli.main``; an integer field of the wrong type or
out of its range exits 2.

Each example starts from a shipped config, cut to a one-mode window and the
``table`` check so that a run takes milliseconds, and from ``sl2.json``; it
then replaces one to three values of either file by a type swap, a negative
number, a float, an empty list or a list of another length, or adds an
unknown key.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from torva import cli

from conftest import CONFIG_DIR

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, 2.0, -1.5, 0.1]),
    st.sampled_from(["", "x", "2", "-1", "1/0", "e", "vac"]), st.just([]), st.just({}),
    st.lists(st.integers(-2, 2), max_size=3), st.lists(st.lists(st.integers(-1, 1), max_size=3),
                                                       min_size=1, max_size=3))


def _base(name):
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        cfg = json.load(fh)
    r = cfg["r"]
    cfg["windows"] = [{"m0": [0, 0], "m": [[0, 0]] * r, "states": ["vac"],
                       "locality_bound": 8, "depth": 1}]
    cfg["checks"] = ["table"]
    cfg.pop("output")
    return cfg


def _paths(doc, prefix=()):
    """Every value's path in a JSON document, the document itself first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def _mutated(draw, doc, fixed=()):
    for _ in range(draw(st.integers(1, 3))):
        if isinstance(doc, dict) and draw(st.integers(0, 9)) == 0:
            doc = {**doc, draw(st.sampled_from(["cache", "extra", "seeds"])): draw(LEAVES)}
            continue
        paths = [p for p in _paths(doc) if not (p and p[0] in fixed)]
        doc = _replace(doc, draw(st.sampled_from(paths)), draw(LEAVES))
    return doc


@st.composite
def _inputs(draw):
    cfg = _base(draw(st.sampled_from(["session_sl2_r1.json", "session_sl2_r2.json"])))
    with open(os.path.join(CONFIG_DIR, "sl2.json")) as fh:
        algebra = json.load(fh)
    if draw(st.booleans()):
        cfg = draw(_mutated(cfg, fixed=("checks",)))  # other checks would make a run slow
    else:
        algebra = draw(_mutated(algebra))
    return cfg, algebra


def _run(cfg, algebra):
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in (("session.json", cfg), ("sl2.json", algebra)):
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["--config", os.path.join(tmp, "session.json"), "axioms"])


def test_unmutated_inputs_pass():
    with open(os.path.join(CONFIG_DIR, "sl2.json")) as fh:
        algebra = json.load(fh)
    for name in ("session_sl2_r1.json", "session_sl2_r2.json"):
        assert _run(_base(name), algebra) == 0


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_inputs())
def test_mutated_inputs_keep_the_exit_contract(inputs):
    assert _run(*inputs) in (0, 1, 2, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_integer_field_out_of_type_or_range_exit_2(data):
    field = data.draw(st.sampled_from(["r", "seed", "samples", "budget", "depth",
                                       "locality_bound"]))
    bad = st.one_of(st.none(), st.booleans(), st.sampled_from([0.5, "2", "x", [], {}]))
    if field in ("r", "samples", "budget"):
        bad = st.one_of(bad, st.integers(-5, 0 if field == "r" else -1))
    cfg = {**_base("session_sl2_r1.json"), field: data.draw(bad)}
    with open(os.path.join(CONFIG_DIR, "sl2.json")) as fh:
        assert _run(cfg, json.load(fh)) == 2
