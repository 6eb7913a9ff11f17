"""Run the command-line interface: python -m cgraforge ARGS."""

from .cli import main

raise SystemExit(main())
