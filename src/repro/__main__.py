"""``python -m repro``: the command-line interface (:mod:`repro.cli`)."""

import sys

from repro.cli import main

sys.exit(main())
