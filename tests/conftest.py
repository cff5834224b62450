import hashlib
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from torva import LieAlgebraSpec, ModeWindow, Session
from torva.states import Memo

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def sl2_spec():
    return LieAlgebraSpec.from_file(os.path.join(CONFIG_DIR, "sl2.json"))


def abelian_spec():
    return LieAlgebraSpec.from_file(os.path.join(CONFIG_DIR, "abelian.json"))


@pytest.fixture(scope="session")
def sl2():
    return sl2_spec()


@pytest.fixture(scope="session")
def abelian():
    return abelian_spec()


@pytest.fixture(scope="session")
def session_l1(sl2):
    return Session(sl2, 1, 1)


@pytest.fixture(scope="session")
def session_l0(sl2):
    return Session(sl2, 1, 0)


@pytest.fixture(scope="session")
def session_lneg2(sl2):
    return Session(sl2, 1, -2)


@pytest.fixture(scope="session")
def session_r2(sl2):
    return Session(sl2, 2, 1)


def small_window(session, m0=(-2, 2), box=(-1, 1), extra_states=()):
    states = [session.vacuum(), session.tail(session.spec.basis[0])]
    states += list(extra_states)
    return ModeWindow(m0, [list(box)] * session.r, states)


@pytest.fixture()
def win_l1(session_l1):
    return small_window(session_l1,
                        extra_states=[session_l1.parse_state("f(-1;0) vac")])


class _Forgetful(Memo):
    """A memo table that stores nothing, so every lookup recomputes."""
    __slots__ = ()

    def put(self, key, value):
        pass


def forget_memos(session):
    """Swap each of the session's six memo tables for one that stores
    nothing; returns the session."""
    for owner, name in ((session.module, "_act_cache"), (session.module, "_word_cache"),
                        (session.fields, "_mode_cache"), (session.fields, "_comm_cache"),
                        (session, "_vm_cache"), (session, "_vm_state_cache")):
        assert isinstance(getattr(owner, name), Memo), name
        setattr(owner, name, _Forgetful())
    return session


def report_digest(report):
    """SHA-256 of a report without its ``wall_ms`` keys, as the benchmark
    harness hashes it."""
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "wall_ms"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    blob = json.dumps(strip(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
