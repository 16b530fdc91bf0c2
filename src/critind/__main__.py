"""python -m critind: the critind command line."""

from .cli import main

if __name__ == "__main__":  # importing this module runs nothing
    raise SystemExit(main())
