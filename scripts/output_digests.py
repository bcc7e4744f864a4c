#!/usr/bin/env python3
"""Digests of every CLI output on one benchmark workload's inputs.

Writes the workload's model and dataset with bench/workloads.py, runs each
command of its benchmark sequence and a few more (other strategies, other
ratios, PCA guidance, and commands that must exit 2) through
``nisprune.cli.main``, and prints one line per command: its label, exit
code, the sha256 of stdout and of stderr, and the sha256 of each file it
wrote. The package is imported from this checkout's src/, so running the
script from two checkouts on the same workload and seed, then diffing the
output, shows which command's bytes a change moved.

    python3 scripts/output_digests.py --workload conv16 --seed 401
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from nisprune import cli  # noqa: E402


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commands(workloads, workload: str, frl_index: int) -> list:
    """(label, arguments after --model/--data/--out) of every command run."""
    ratio = workloads.RATIO
    extra = [
        ("prune_mag", ["prune", "--ratio-all", ratio, "--strategy", "nisp-mag"]),
        ("prune_random", ["prune", "--ratio-all", ratio, "--strategy", "random", "--seed", "5"]),
        ("rank_pca", ["rank", "--pca-threshold", "0.9"]),
        ("prune_quarter", ["prune", "--ratio-all", "0.25"]),
    ]
    if workload == "conv16":
        extra.append(("verify_5", ["verify", "--ratio-all", ratio, "--layer", "5", "--trials", "5"]))
    extra += [
        ("exit2_verify_frl", ["verify", "--layer", str(frl_index), "--trials", "1"]),
        ("exit2_scratch", ["prune", "--strategy", "scratch"]),
        ("exit2_negative_seed", ["prune", "--strategy", "random", "--seed", "-1"]),
    ]
    return list(workloads.COMMANDS[workload]) + extra


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads = _workloads()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        # Relative paths keep any path an error message quotes the same in
        # every run.
        os.chdir(work)
        try:
            workloads.generate(args.workload, args.seed, ".")
            with open("model.json") as fh:
                frl_index = json.load(fh)["frl_index"]
            for label, rest in commands(workloads, args.workload, frl_index):
                out = os.path.join("out", label)
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(rest[:1] + ["--model", "model.json", "--data", "data.csv", "--out", out] + rest[1:])
                files = []
                for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                    with open(os.path.join(out, name), "rb") as fh:
                        files.append("%s=%s" % (name, _sha(fh.read())))
                print(" ".join([label, "exit=%d" % code, "stdout=" + _sha(stdout.getvalue().encode()),
                                "stderr=" + _sha(stderr.getvalue().encode())] + files))
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
