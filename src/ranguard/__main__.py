"""`python -m ranguard`: the `ranguard` command."""

import sys

from ranguard.cli import main

if __name__ == "__main__":
    sys.exit(main())
