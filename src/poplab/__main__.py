"""``python -m poplab``: the same command line as the ``poplab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
