"""Benchmark entry point for spikecl.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload conv-train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each run drives the users' batch commands (``spikecl run`` then
``spikecl evaluate``) in this process, on the checkout's ``src/`` tree, and
prints a result table; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs with the
outside-in tracer and reports the per-layer metrics instead.

BLAS runs on one thread, set before numpy is imported: the matrices are
small, and a second spinning BLAS thread on a two-core machine made timings
noisier.  Exits 2 without a result when the checkout has no ``src/spikecl``
package.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def main():
    if not (ROOT / "src" / "spikecl" / "__init__.py").is_file():
        print(f"error: no spikecl package under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
