"""`python -m polycap`: the same command line as the `polycap` script."""

from polycap.cli import entrypoint

if __name__ == "__main__":
    entrypoint()
