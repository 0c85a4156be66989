"""Set-up shared by the benchmark runner, the fixture trainer and the tests.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
pins the BLAS thread pools to one thread, so it must be imported before numpy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = BENCH_DIR / "fixtures"
WORK = ROOT / ".bench_build" / "streamdec"


class MissingProgram(RuntimeError):
    """The checkout holds no streamdec sources to benchmark."""


def import_streamdec():
    """Import streamdec from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "streamdec" / "__init__.py").is_file():
        raise MissingProgram(f"no streamdec package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import streamdec

    if Path(streamdec.__file__).resolve().parent != SRC / "streamdec":
        raise MissingProgram(f"streamdec imported from {streamdec.__file__}")


import_streamdec()

from streamdec import SyntheticTaskSpec  # noqa: E402

# The paper's traffic: utterances of 4-10 tokens (0.8-3 s).
SHORT_SPEC = SyntheticTaskSpec()
# Long streams whose encoder prefix and committed prefix keep growing.
LONG_SPEC = SyntheticTaskSpec(min_tokens=15, max_tokens=25)
