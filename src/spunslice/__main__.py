"""`python -m spunslice`: the `spunslice` command without an install."""

import sys

from .cli import main

sys.exit(main())
