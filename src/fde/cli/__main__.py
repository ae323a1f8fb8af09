"""``python -m fde.cli``: run the command line front end."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
