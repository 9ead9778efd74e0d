"""`python -m adpsim`: the same entry point as the `adpsim` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
