"""Benchmark entry point for mmsets.

Run from anywhere inside a source checkout:

    python3 perfbench/run.py --workload dense-d32 --seed 1 --seconds 20 --trace 0

It imports mmsets from the checkout's ``src/`` (nothing needs installing),
runs one workload for about ``--seconds`` and prints the metrics, the
correctness fingerprint and the machine facts; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones. The exit code is 0 only when every correctness check passed.
See WORKLOADS.md for the workloads and what each metric should move.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"  # one closed-loop caller; at most nproc BLAS threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from WORKLOADS.md")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "mmsets" / "__init__.py").is_file():
        print(f"error: no mmsets sources under {src}; run inside an mmsets checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy first loads it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import pipeline

    return pipeline.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
