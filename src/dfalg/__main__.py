"""python -m dfalg: the dfalg command line."""

import sys

from .cli import main

sys.exit(main())
