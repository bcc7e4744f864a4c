"""The experiment scripts and the benchmark's output checks run end to end
on tiny settings.

Nothing else imports them, so a change to the package API they call would
otherwise break them silently: a script would fail when next run, and the
benchmark would count every command as failed.
"""

import csv
import importlib.util
import os

import pytest

from nisprune import cli, datasets, model

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
BENCH = os.path.join(ROOT, "bench")


def load_script(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, os.path.join(directory, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, args", [
    ("blob_compare", ["--seeds", "1", "--epochs", "1"]),
    ("ware_depth", ["--depths", "2", "--keeps", "0.5", "--seeds", "1"]),
], ids=["blob_compare", "ware_depth"])
def test_script_writes_rows(tmp_path, capsys, name, args):
    out = str(tmp_path / (name + ".csv"))
    assert load_script(name).main(args + ["--out", out]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert "wrote %d rows" % len(rows) in capsys.readouterr().out


def test_output_digests_prints_one_line_per_command(capsys):
    script = load_script("output_digests")
    assert script.main(["--workload", "blobs", "--seed", "401"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [label for label, _ in script.commands(load_script("workloads", BENCH), "blobs", 1)]
    assert [line.split()[0] for line in lines] == labels
    for line in lines:
        fields = line.split()
        assert fields[1] in ("exit=0", "exit=2")
        assert all(len(field.split("=")[1]) == 64 for field in fields[2:])
        assert len(fields) > 4 if fields[1] == "exit=0" else len(fields) == 4


@pytest.mark.parametrize("workload", ["conv16", "blobs"])
def test_bench_checks_pass_on_cli_outputs(tmp_path, workload):
    # Every command of the workload's sequence, compare at 2 epochs instead
    # of the benchmark's 40, checked by the benchmark's own checks.
    workloads, checks = load_script("workloads", BENCH), load_script("checks", BENCH)
    model_path, data_path = workloads.generate(workload, 401, str(tmp_path))
    net, data = model.read_model(model_path), datasets.load_dataset(data_path)
    for label, args in workloads.COMMANDS[workload]:
        if "--epochs" in args:
            args = list(args)
            args[args.index("--epochs") + 1] = "2"
        out = str(tmp_path / label)
        argv = args[:1] + ["--model", model_path, "--data", data_path, "--out", out] + args[1:]
        assert cli.main(argv) == 0, label
        checks.CHECKS[label](out, net, data, argv)
    assert {label for label, _ in workloads.COMMANDS["conv16"] + workloads.COMMANDS["blobs"]} == set(checks.CHECKS)
