"""Import path for the benchmark's modules and the program's sources."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from common import ensure_program  # noqa: E402

ensure_program()
