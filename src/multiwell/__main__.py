"""``python -m multiwell``: the command-line front end (see ``multiwell.cli``)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
