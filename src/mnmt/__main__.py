"""`python -m mnmt ...` runs the command line, as the installed `mnmt` script does."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
