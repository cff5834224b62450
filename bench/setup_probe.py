"""Set-up probe: the steps before the first torva check can start, then exit.

Interpreter start, ``import torva``, ``SessionConfig.from_file``,
``build_session`` and ``build_windows`` (which parses the window's test states
through ``VacuumModule.act``).  Prints the file torva was imported from, so
the caller can check that the probe ran the checkout's code.

    PYTHONPATH=src python3 bench/setup_probe.py CONFIG.json
"""

import sys

import torva
from torva.config import SessionConfig


def main(config_path: str) -> None:
    cfg = SessionConfig.from_file(config_path)
    cfg.build_windows(cfg.build_session())
    print(torva.__file__)


if __name__ == "__main__":
    main(sys.argv[1])
