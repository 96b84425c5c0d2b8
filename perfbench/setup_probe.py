"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from interpreter start-up to a workload ready for its
first pass: ``import qcaloric`` (with numpy), input generation from the seed
and model/scenario construction. The runner starts several probes and
reports their median as ``setup_s``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(1, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    workdir = tempfile.mkdtemp(prefix=f"setup-{name}-", dir=ROOT / ".perfbench")
    os.chdir(workdir)
    try:
        workloads.prepare(name, seed)
        elapsed = time.perf_counter() - T0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
