"""``python -m repro.experiments [E1 E4 ...]`` is ``repro experiments``.

Usage::

    python -m repro.experiments            # all experiments
    python -m repro.experiments E4 E6      # a subset
"""

from __future__ import annotations

import sys

from ..cli import main as cli_main


def main(argv: list[str]) -> int:
    return cli_main(["experiments", *argv])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
