"""``python -m doushouqi``: the command-line driver (see doushouqi.cli)."""

from doushouqi.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
