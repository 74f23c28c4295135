"""``python -m tools.card_lint`` — run ``card-lint`` from the repository root."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
