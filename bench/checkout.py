"""Point the benchmark at the sources of the checkout it runs in.

Every benchmark process starts here, before numpy is imported: BLAS and
OpenMP pools are capped at one thread, and ``./src`` goes first on
``sys.path`` so that the package under test is the one in the current
directory, never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> Path:
    """Cap threads, import ``hartogs`` from ``./src``; exit with status 2 if absent."""
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    src = (Path.cwd() / "src").resolve()
    if not (src / "hartogs" / "__init__.py").is_file():
        print(f"bench: no hartogs sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import hartogs

    if not Path(hartogs.__file__).resolve().is_relative_to(src):
        print(f"bench: imported hartogs from {hartogs.__file__}, not from {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return Path.cwd()
