"""``python -m passivekey``: the same command line as the ``passivekey`` script."""

import sys

from .cli import main

sys.exit(main())
