"""``python -m bethestrip``: the command-line driver of :mod:`bethestrip.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
