"""``python -m graphlhv``: the command-line front end, as ``graphlhv.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
