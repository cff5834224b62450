"""Genericity and edge cases: higher rank, degenerate forms, fractional
levels, zero level with the abelian algebra."""

import random
from fractions import Fraction

from torva import LieAlgebraSpec, ModeWindow, Session, validate_lie_spec
from torva.axioms import AxiomChecker, check_jacobi, check_skew_symmetry

from conftest import abelian_spec, sl2_spec


def test_rank3_basics():
    s = Session(abelian_spec(), 3, Fraction(1, 2))
    win = ModeWindow([-1, 1], [[0, 0], [0, 0], [-1, 0]], [s.vacuum(), s.tail("a")])
    assert s.product(s.tail("a"), 1, (0, 0, 0), s.tail("a")) == s.vacuum().scaled(Fraction(1, 2))
    ch = AxiomChecker(s)
    f = check_jacobi(ch, s.tail("a"), s.tail("a"), s.tail("a"), win,
                     rng=random.Random(0), spot_checks=3)
    assert f.ok, f.witness
    k = s.fields.locality_order(s.fields.current("a"), s.fields.current("a"), win)
    assert k == 2  # pairing * level nonzero


def test_rank3_sl2_spot():
    s = Session(sl2_spec(), 3, 1)
    w = s.monomial([(1, "f", (0, 1, -1))])
    out = s.module.act("e", 1, (0, -1, 1), w)
    assert out == s.vacuum()
    assert s.module.act("e", 1, (0, 0, 1), w).is_zero()  # toroidal degrees miss


def test_degenerate_form_allowed():
    spec = LieAlgebraSpec(["e", "f", "h"], sl2_spec().brackets,
                          [[0] * 3 for _ in range(3)])
    assert validate_lie_spec(spec).ok
    s = Session(spec, 1, 1)
    win = ModeWindow([-2, 2], [[-1, 1]], [s.vacuum(), s.tail("e")])
    # without the pairing the central term is gone everywhere
    assert s.fields.locality_order(s.fields.current("e"), s.fields.current("f"), win) == 1
    assert s.product(s.tail("e"), 1, (0,), s.tail("f")).is_zero()
    ch = AxiomChecker(s)
    f = check_jacobi(ch, s.tail("e"), s.tail("f"), s.tail("h"), win, rng=random.Random(1))
    assert f.ok, f.witness


def test_fractional_level():
    s = Session(sl2_spec(), 1, Fraction(-3, 7))
    assert s.product(s.tail("e"), 1, (0,), s.tail("f")) == s.vacuum().scaled(Fraction(-3, 7))
    win = ModeWindow([-2, 2], [[-1, 1]], [s.vacuum(), s.tail("e")])
    ch = AxiomChecker(s)
    f = check_skew_symmetry(ch, s.tail("e"), s.tail("f"), win)
    assert f.ok, f.witness


def test_zero_level_abelian_everything_commutes():
    s = Session(abelian_spec(), 1, 0)
    win = ModeWindow([-2, 2], [[-1, 1]], [s.vacuum(), s.tail("a")])
    cur = s.fields.current("a")
    assert s.fields.locality_order(cur, cur, win) == 0
    assert s.fields.transfer_check(cur, cur, [], (0,), win) == []


def test_solvable_two_dim_algebra():
    # [x, y] = y forces a degenerate invariant form supported on <x, x>
    spec = LieAlgebraSpec(["x", "y"],
                          {(0, 1): {1: 1}, (1, 0): {1: -1}},
                          [[5, 0], [0, 0]])
    assert validate_lie_spec(spec).ok
    s = Session(spec, 1, 1)
    win = ModeWindow([-2, 2], [[-1, 1]], [s.vacuum(), s.tail("y")])
    assert s.product(s.tail("x"), 0, (0,), s.tail("y")) == s.tail("y")
    assert s.product(s.tail("x"), 1, (0,), s.tail("y")).is_zero()
    assert s.product(s.tail("x"), 1, (0,), s.tail("x")) == s.vacuum().scaled(5)
    ch = AxiomChecker(s)
    for a in ("x", "y"):
        for b in ("x", "y"):
            f = check_jacobi(ch, s.tail(a), s.tail(b), s.tail("y"), win,
                             rng=random.Random(2), spot_checks=3)
            assert f.ok, (a, b, f.witness)
            f = check_skew_symmetry(ch, s.tail(a), s.tail(b), win)
            assert f.ok, (a, b, f.witness)


def test_level_string_through_config(tmp_path):
    import json
    import shutil
    import os
    from torva import SessionConfig
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    shutil.copy(os.path.join(root, "sl2.json"), tmp_path / "sl2.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "algebra": "sl2.json", "r": 1, "level": "-3/2",
        "windows": [{"m0": [-1, 1], "m": [[0, 0]], "states": ["vac", "e"]}],
    }))
    cfg = SessionConfig.from_file(str(cfg_path))
    s = cfg.build_session()
    assert s.level == Fraction(-3, 2)
    assert s.product(s.tail("e"), 1, (0,), s.tail("f")) == s.vacuum().scaled(Fraction(-3, 2))
    wins = cfg.build_windows(s)
    assert wins[0].size == 3


def test_top_level_window_defaults_apply_without_windows():
    # a config without "windows" gets one window whose depth and locality
    # bound are the config's top-level values, or 2 and 8 when absent
    from torva import SessionConfig
    from conftest import CONFIG_DIR
    base = {"algebra": "sl2.json", "r": 1}
    for extra, want in (({"depth": 4, "locality_bound": 3}, (4, 3)), ({}, (2, 8))):
        cfg = SessionConfig.from_json({**base, **extra}, base_dir=CONFIG_DIR)
        s = cfg.build_session()
        win, = cfg.build_windows(s)
        assert (win.depth, win.locality_bound) == want
        assert (win.m0_lo, win.m0_hi, win.m_box, win.states) == (-2, 2, ((-1, 1),), (s.vacuum(),))
