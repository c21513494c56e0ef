"""Entry point of `python -m ssmkit` and of the `ssmkit` script."""

import os
import sys


def main() -> int:
    """Run the CLI, with OpenBLAS held to one thread unless the caller's
    environment sets `OPENBLAS_NUM_THREADS`: the array work the CLI does
    gains nothing from more, and idle BLAS workers spin on CPU.
    It must be set before numpy loads; `cli.main` leaves the environment
    alone, so in-process callers keep their own BLAS setting."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
