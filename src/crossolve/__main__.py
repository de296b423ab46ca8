"""Run the command line front end as ``python -m crossolve <command>``."""

from .cli import console

__all__: list[str] = []

if __name__ == "__main__":
    console()
