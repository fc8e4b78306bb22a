"""`python -m maxdisp ...` runs the command line front end, maxdisp.cli."""

import sys

from .cli import main

sys.exit(main())
