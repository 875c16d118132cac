"""``python -m killingkit``: the command-line interface, as ``killingkit``."""
from .cli import main

if __name__ == "__main__":
    main()
