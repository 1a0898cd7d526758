"""``python -m fcopt``: the fcopt command, the same ``main`` as the script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
