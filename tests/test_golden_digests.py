"""Every CLI output on the blobs and conv16 benchmark inputs at seed 401 keeps
the bytes recorded in golden_digests.txt.

The digests are those of scripts/output_digests.py with BLAS on one thread.
They hold where Python, numpy, its BLAS and the CPU match the file's header;
elsewhere the test skips and names both environments. After a deliberate
output change, rewrite the file in the same change with

    python tests/test_golden_digests.py

and say in CHANGES.md why the bytes moved.
"""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_digests.txt")
SCRIPT = os.path.join(os.path.dirname(HERE), "scripts", "output_digests.py")
WORKLOADS = ("blobs", "conv16")
SEED = 401


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": _cpu_model(),
        "blas_threads": "1",
    }


def digests(workload: str) -> list:
    """The script's lines for one workload, each prefixed with its name."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, SCRIPT, "--workload", workload, "--seed", str(SEED)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return ["%s %s" % (workload, line) for line in out.splitlines()]


def read_golden():
    """(recorded environment, digest lines) of the golden file."""
    recorded, lines = {}, []
    with open(GOLDEN) as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(": ")
                if key in environment():
                    recorded[key] = value
            elif line:
                lines.append(line)
    return recorded, lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cli_outputs_match_golden_digests(workload):
    recorded, golden = read_golden()
    running = environment()
    if recorded != running:
        pytest.skip("golden digests come from another environment:\n  recorded %r\n  running  %r"
                    % (recorded, running))
    want = [line for line in golden if line.split()[0] == workload]
    got = digests(workload)
    assert [line.split()[1] for line in got] == [line.split()[1] for line in want]
    changed = [w.split()[1] for g, w in zip(got, want) if g != w]
    assert not changed, "outputs whose bytes moved: %s" % changed


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write("# scripts/output_digests.py --workload W --seed %d, BLAS on one thread.\n" % SEED)
        fh.write("# Rewrite with: python tests/test_golden_digests.py\n")
        for key, value in environment().items():
            fh.write("# %s: %s\n" % (key, value))
        for workload in WORKLOADS:
            fh.write("\n".join(digests(workload)) + "\n")
