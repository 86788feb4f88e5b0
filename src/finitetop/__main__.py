"""``python -m finitetop``: the same command as ``finitetop``."""
from .cli import main

if __name__ == "__main__":
    main()
