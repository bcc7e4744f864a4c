#!/usr/bin/env python3
"""nisprune benchmark: wall time of CLI commands, with a traced per-layer run.

    python3 bench/run.py --workload lenet --seed 1 --seconds 30 --trace 0

One process runs one workload. It writes the workload's model and dataset
from the seed into a temporary directory inside the checkout, then runs the
workload's command sequence through ``nisprune.cli.main(argv)`` as a closed
loop (one client, one command at a time, BLAS pinned to one thread) until
``--seconds`` of command time have passed and the sequence has run at least
three times. Each pass starts by timing ``read_model`` + ``load_dataset``.
Every output is checked outside the timed sections: the first output of each
command in full, later ones by comparing checksums.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes that record spans around the package's layers
(see ``tracing.py``), and reports per-layer self times, computed counts, and
the tracing overhead. The last line of standard output is one JSON object; the
line before it, prefixed ``info``, holds everything reported for reading
rather than gating: environment, output checksums, per-command layer shares,
and the quality figures of ``compare``.
"""

import os
import sys

# Pin BLAS before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import COMMANDS, WHY, WORKLOADS  # noqa: E402

MIN_PASSES = 3        # passes of the command sequence in an untraced run
TRACE_MIN_PASSES = 2  # traced passes per traced run, so counts can be compared
SETUP_S_PER_PASS = 0.5  # set-up repeats before each pass until it has taken this long
LAST_START_S = 110.0  # start no further pass after this much wall time

# Per-layer time metrics are "<span key>_s" for these span keys.
TIMED_SPANS = (
    "engine.dense", "engine.conv", "engine.pool", "engine.lrn", "engine.batchnorm",
    "engine.activation", "engine.glue",
    "ranking.affinity", "ranking.spectral_radius", "ranking.solve",
    "propagation.backward", "propagation.dense", "propagation.conv", "propagation.pool",
    "propagation.lrn", "propagation.bp_matrix",
    "surgery.plan", "surgery.apply",
    "analysis.verify", "analysis.ware", "analysis.cost",
    "trainer.train",
    "datasets.load", "model.read", "model.write",
    "cli.self",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="nisprune benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import nisprune from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "nisprune" / "__init__.py").is_file():
        sys.exit("error: %s/nisprune not found; run from a full checkout" % src)
    sys.path.insert(0, str(src))
    import nisprune
    if Path(nisprune.__file__).resolve().parent != (src / "nisprune").resolve():
        sys.exit("error: nisprune was imported from %s, not from %s" % (nisprune.__file__, src))


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


class Runner:
    """Runs a workload's commands, checks every output, and counts failures."""

    def __init__(self, workload, model_path, data_path, work_dir):
        from nisprune import cli
        import checks

        self.cli = cli
        self.checks = checks
        self.commands = COMMANDS[workload]
        self.model_path, self.data_path = model_path, data_path
        self.base = ["--model", model_path, "--data", data_path]
        self.work_dir = work_dir
        self.setup_times = []
        self.net = self.data = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = []
        self.facts = {}
        self.reference = {}  # label -> (digests, failure reason or None)
        self.records = []    # traced invocations: (pass, label, seconds, span lo, span hi, counts)

    def invoke(self, label, args, tracer=None, pass_no=0):
        out = os.path.join(self.work_dir, label)
        argv = args[:1] + self.base + ["--out", out] + args[1:]
        if tracer is None:
            start = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - start
        else:
            lo = len(tracer.spans)
            tracer.install()
            start = time.perf_counter()
            code = tracer.call("cli.self", self.cli.main, argv)
            seconds = time.perf_counter() - start
            tracer.uninstall()
            self.records.append((pass_no, label, seconds, lo, len(tracer.spans), tracer.take_counts()))
        self.attempted += 1
        reason = "exit code %d" % code if code != 0 else self._check(label, out, argv)
        if reason is not None:
            self.failed += 1
            self.failures.append("%s: %s" % (label, reason))
        return seconds

    def _check(self, label, out, argv):
        from nisprune.errors import NispruneError

        digests = self.checks.sha256_files(out)
        ref = self.reference.get(label)
        if ref is not None and ref[0] == digests:
            return ref[1]
        if ref is not None:
            self.notes.append("%s: output bytes changed between runs of the same command" % label)
        try:
            self.facts.update(self.checks.CHECKS[label](out, self.net, self.data, argv))
            reason = None
        except (self.checks.CheckFailed, NispruneError, ValueError, KeyError, OSError) as err:
            reason = "%s: %s" % (type(err).__name__, err)
        self.reference[label] = (digests, reason)
        return reason

    def setup(self, min_seconds):
        """Time read_model + load_dataset, repeated until ``min_seconds`` have passed."""
        from nisprune import datasets, model

        spent = 0.0
        while spent < min_seconds:
            start = time.perf_counter()
            self.net = model.read_model(self.model_path)
            self.data = datasets.load_dataset(self.data_path)
            self.setup_times.append(time.perf_counter() - start)
            spent += self.setup_times[-1]

    def run_pass(self, pass_no=0, tracer=None):
        """One pass of the command sequence; returns {label: seconds}."""
        return {label: self.invoke(label, args, tracer, pass_no) for label, args in self.commands}


def closed_loop(step, budget, min_passes, started):
    """Call ``step(pass_no)``, which returns seconds of command time, until
    ``budget`` seconds and ``min_passes`` passes are done; start no pass after
    LAST_START_S of wall time."""
    passes, timed = 0, 0.0
    while passes < min_passes or timed < budget:
        if passes and time.monotonic() - started > LAST_START_S:
            break
        timed += step(passes)
        passes += 1


def command_medians(passes):
    """Median seconds of each command over ``passes``."""
    return {label: statistics.median([p[label] for p in passes]) for label in passes[0]}


def end_to_end(setup_times, passes):
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    metrics["sequence_s"] = (sum(command_medians(passes).values()), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(tracer, runner, untraced, traced):
    """Per-pass medians of self times, exact per-pass counts, and derived rates."""
    from tracing import COMPUTED

    n = len(traced)
    selfs = [dict() for _ in range(n)]
    counts = [dict() for _ in range(n)]
    verify_passes = [0] * n
    shares = {}
    for pass_no, label, seconds, lo, hi, cmd_counts in runner.records:
        own = tracer.self_times(lo, hi)
        for key, value in own.items():
            selfs[pass_no][key] = selfs[pass_no].get(key, 0.0) + value
        for key, value in cmd_counts.items():
            if key == "ranking.max_features":
                counts[pass_no][key] = max(counts[pass_no].get(key, 0), value)
            else:
                counts[pass_no][key] = counts[pass_no].get(key, 0) + value
        verify_passes[pass_no] += tracer.passes_under(lo, hi, "analysis.verify")
        layer_share = shares.setdefault(label, {"_total": 0.0})
        layer_share["_total"] += seconds
        for key, value in own.items():
            layer = key.split(".")[0]
            layer_share[layer] = layer_share.get(layer, 0.0) + value

    # Self-check: computed counts repeat exactly from pass to pass.
    for key in COMPUTED:
        values = [c.get(key, 0) for c in counts]
        if len(set(values)) != 1:
            raise SystemExit("error: computed count %s differs between passes: %r" % (key, values))
    if len(set(verify_passes)) != 1:
        raise SystemExit("error: verify sample passes differ between passes: %r" % verify_passes)

    def med_time(key):
        return statistics.median([s.get(key, 0.0) for s in selfs])

    def med_rate(num, key, scale=1.0):
        rates = [c.get(num, 0) / s[key] / scale if s.get(key, 0.0) > 0 else 0.0 for c, s in zip(counts, selfs)]
        return statistics.median(rates)

    count = counts[0]
    metrics = {key + "_s": (med_time(key), "s") for key in TIMED_SPANS}
    evals = count.get("engine.layer_evals", 0)
    trials = count.get("analysis.trials", 0)
    metrics.update({
        "engine.sample_passes": (count.get("engine.sample_passes", 0), "count"),
        "engine.layer_evals": (evals, "count"),
        "engine.useful_eval_ratio": (count.get("engine.useful_evals", 0) / evals if evals else 0.0, "ratio"),
        "engine.dense_gflops": (med_rate("engine.dense_flops", "engine.dense", 1e9), "GFLOP/s"),
        "engine.conv_gflops": (med_rate("engine.conv_flops", "engine.conv", 1e9), "GFLOP/s"),
        "ranking.graphs": (count.get("ranking.graphs", 0), "count"),
        "ranking.max_features": (count.get("ranking.max_features", 0), "count"),
        "propagation.bp_matrix_mb": (count.get("propagation.bp_matrix_bytes", 0) / 1e6, "MB"),
        "analysis.trials": (trials, "count"),
        "analysis.sample_passes_per_trial": (verify_passes[0] / trials if trials else 0.0, "count"),
        "trainer.steps": (count.get("trainer.steps", 0), "count"),
        "trainer.steps_per_s": (med_rate("trainer.steps", "trainer.train"), "1/s"),
        "io.bytes_read": (count.get("io.bytes_read", 0), "bytes"),
        "io.bytes_written": (count.get("io.bytes_written", 0), "bytes"),
    })
    plain = sum(command_medians(untraced).values())
    with_spans = sum(command_medians(traced).values())
    metrics["trace.overhead_pct"] = (100.0 * (with_spans - plain) / plain, "%")

    share_table = {
        label: {layer: round(v / s["_total"], 4) for layer, v in sorted(s.items()) if layer != "_total"}
        for label, s in shares.items()
    }
    return metrics, share_table, count


def check_flop_formula(net):
    """Self-check: the traced FLOP counts use count_cost's per-layer formulas."""
    from nisprune import analysis
    from tracing import layer_flops

    want = analysis.count_cost(net).flops
    for i, layer in enumerate(net.layers):
        if layer.kind in ("Dense", "Conv2D") and layer_flops(layer) != want[i]:
            raise SystemExit("error: layer %d FLOPs %d, count_cost says %d" % (i, layer_flops(layer), want[i]))


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    import_package()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=scratch)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", work_dir],
            check=True, timeout=170,
        )
        model_path = os.path.join(work_dir, "model.json")
        data_path = os.path.join(work_dir, "data.csv")

        runner = Runner(args.workload, model_path, data_path, work_dir)
        runner.setup(SETUP_S_PER_PASS)
        check_flop_formula(runner.net)

        info = {"workload": args.workload, "seed": args.seed, "why": WHY[args.workload],
                "environment": environment(),
                "commands": {label: " ".join(cmd) for label, cmd in runner.commands}}
        if args.trace == 0:
            passes = []

            # Set-up is timed again before every pass, so its samples are
            # spread over the run like the commands' are.
            def step(pass_no):
                runner.setup(SETUP_S_PER_PASS)
                passes.append(runner.run_pass(pass_no))
                return sum(passes[-1].values())

            closed_loop(step, args.seconds, MIN_PASSES, started)
            metrics = end_to_end(runner.setup_times, passes)
            info["passes"] = len(passes)
            info["command_s"] = command_medians(passes)
            info["samples"] = {label: [p[label] for p in passes] for label in passes[0]}
            info["samples"]["setup"] = runner.setup_times
        else:
            from tracing import COMPUTED, Tracer

            # Untraced and traced passes alternate, so drift in machine speed
            # during the run does not show up as tracing overhead.
            tracer = Tracer()
            untraced, traced = [], []

            def step(pass_no):
                untraced.append(runner.run_pass(pass_no))
                traced.append(runner.run_pass(pass_no, tracer))
                return sum(untraced[-1].values()) + sum(traced[-1].values())

            closed_loop(step, args.seconds, TRACE_MIN_PASSES, started)
            metrics, shares, count = per_layer(tracer, runner, untraced, traced)
            info.update({"passes": [len(untraced), len(traced)], "layer_shares": shares,
                         "computed": list(COMPUTED), "counts_per_pass": count,
                         "absent_wrappers": sorted(tracer.absent)})
        info.update(runner.facts)
        info["failed_share"] = runner.failed / runner.attempted
        info["failures"] = runner.failures
        info["notes"] = runner.notes
        info["sha256"] = {label: ref[0] for label, ref in runner.reference.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        print("%-36s %14.6g %s" % (name, value, unit))
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
