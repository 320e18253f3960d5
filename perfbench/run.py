"""nsfem benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload march-fine-mesh --seed 0 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` gives
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
The program measured is the checkout's own ``src/nsfem``; without it the
benchmark exits with an error and prints no result.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: every thread pool numpy/scipy may start, pinned to one thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def bootstrap():
    """Pin thread pools and make the checkout's nsfem importable.

    Must run before numpy is imported.  Raises SystemExit when the checkout
    has no ``src/nsfem`` or another copy of nsfem would be imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "nsfem" / "__init__.py").is_file():
        raise SystemExit(f"error: no nsfem sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import nsfem
    if Path(nsfem.__file__).resolve().parent != src / "nsfem":
        raise SystemExit(f"error: imported nsfem from {nsfem.__file__}, "
                         f"not from {src}")


def main(argv=None):
    bootstrap()
    from perfbench import harness
    return harness.main(sys.argv[1:] if argv is None else argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
