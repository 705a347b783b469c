"""`python -m finito`: the same CLI as the `finito` console script."""

from .cli import console_entry

if __name__ == "__main__":
    console_entry()
