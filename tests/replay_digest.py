"""One SHA-256 over every solve_batch row of a seeded workload pass or of a
pytest run, to show that a change to the solver leaves its output
bit-identical.

    python3 tests/replay_digest.py corpus lattice separation --seed 1
    python3 tests/replay_digest.py separation --seed 204
    python3 tests/replay_digest.py --pytest        # every row of the tier-1 run
    python3 tests/replay_digest.py --pytest -- -W error   # pytest options after --

Run from the root of a source checkout: the package is imported from
``./src`` and the workloads from ``perfbench/workloads.py``. BLAS is pinned
to one thread, as the benchmark and the tests pin it, because the low-order
bits of solver output depend on the thread count. During the run
``solver.solve_batch`` and ``analysis.solve_batch`` are wrapped, and every
row they return is hashed in call order: its status, its iteration count
and the bytes of x, y, s and certificate (an absent array hashes as a
marker). Each workload pass runs its ops once, in the canonical order of
``perfbench/workloads.py``, with its problem files written to a temporary
directory. One line per run prints the row count, the iteration total and
the digest. pytest does not collect this file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from conecert import analysis, solver  # noqa: E402


class Digest:
    """Wraps the solve_batch names of the solver and the analysis and hashes
    every row they return."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.rows = 0
        self.iterations = 0
        self.real = solver.solve_batch

    def __enter__(self):
        def spy(*args, **kwargs):
            out = self.real(*args, **kwargs)
            for sol in out:
                self.add(sol)
            return out

        solver.solve_batch = analysis.solve_batch = spy
        return self

    def __exit__(self, *exc):
        solver.solve_batch = analysis.solve_batch = self.real

    def add(self, sol) -> None:
        self.rows += 1
        self.iterations += sol.iterations
        self.sha.update(f"{sol.status.value}:{sol.iterations}".encode())
        for v in (sol.x, sol.y, sol.s, sol.certificate):
            self.sha.update(b"-" if v is None else np.ascontiguousarray(v, dtype=float).tobytes())

    def line(self, label: str) -> str:
        return f"{label}: rows {self.rows} iterations {self.iterations} sha256 {self.sha.hexdigest()}"


def workload_pass(name: str, seed: int) -> str:
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        ops = workloads.WORKLOADS[name](np.random.default_rng(seed), Path(tmp))
        with Digest() as d:
            for op in ops:
                op.run()
    return d.line(f"{name} seed {seed}")


def pytest_run(args: list[str]) -> tuple[int, str]:
    import pytest

    with Digest() as d:
        rc = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    return int(rc), d.line("pytest")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    rest = argv[argv.index("--") + 1 :] if "--" in argv else []
    argv = argv[: argv.index("--")] if "--" in argv else argv
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="{corpus,lattice,separation}",
                    help="workloads to replay, one pass each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pytest", action="store_true",
                    help="digest every row of one run of the test suite instead")
    args = ap.parse_args(argv)
    bad = set(args.workloads) - {"corpus", "lattice", "separation"}
    if bad or args.pytest == bool(args.workloads):
        ap.error("name one or more workloads, or pass --pytest alone")
    if args.pytest:
        rc, line = pytest_run(rest)
        print(line)
        return rc
    for name in args.workloads:
        print(workload_pass(name, args.seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
