"""``python -m leggettlab``: the command-line interface without the console script."""
from .cli import console_main

if __name__ == "__main__":
    console_main()
