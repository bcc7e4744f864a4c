"""The experiment scripts run end to end on tiny settings.

Nothing else imports them, so a change to the package API they call would
otherwise break them silently.
"""

import csv
import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
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
