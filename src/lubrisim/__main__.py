"""Run the command line from a checkout: ``python -m lubrisim <command> ...``."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
