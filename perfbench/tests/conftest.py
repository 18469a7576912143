"""Import paths for the harness self-tests: the program under ``src`` and the
benchmark's own modules.  Run from the repository root with
``python3 -m pytest perfbench/tests -q``."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent

for path in (REPO_ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
