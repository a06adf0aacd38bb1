"""`python -m mhdlab`: the command-line front end (see `mhdlab.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
