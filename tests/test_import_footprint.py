"""Each CLI command imports only the algorithm family it runs.

Runs the CLI in fresh interpreters, because the test process itself has
already imported every family.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import registry
from repro.cli import main

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

# Runs ``repro.cli.main`` on argv, then prints its exit code and every
# module loaded.
PROBE = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _python(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env)


def _loaded_modules(*argv):
    proc = _python("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    return report["modules"]


def _packages(modules):
    return {name.split(".")[1] for name in modules
            if name.startswith("repro.")}


@pytest.fixture
def basket_file(tmp_path):
    path = tmp_path / "tiny.dat"
    path.write_text("1 2 3\n1 2\n2 3\n1 3\n1 2 3\n")
    return path


def test_mine_loads_no_other_family(basket_file):
    loaded = _packages(_loaded_modules("mine", str(basket_file),
                                       "--min-support", "0.4"))
    assert "associations" in loaded
    assert not loaded & {"classification", "clustering", "sequences",
                         "server"}


@pytest.fixture
def credit_file(tmp_path):
    path = tmp_path / "credit.csv"
    assert main(["generate", "agrawal", str(path), "--rows", "200"]) == 0
    return path


def test_classify_loads_no_miners(credit_file):
    """Nor a clusterer, nor scipy."""
    modules = _loaded_modules("classify", str(credit_file), "--target",
                              "group")
    loaded = _packages(modules)
    assert "classification" in loaded
    assert not loaded & {"associations", "clustering", "sequences"}
    assert "scipy" not in modules


# Runs ``repro.cli.main`` with scipy unimportable, as on a numpy-only
# install.
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_classify_c45_needs_no_scipy(credit_file):
    argv = ["classify", str(credit_file), "--target", "group",
            "--classifier", "c45"]
    plain = _python("-m", "repro.cli", *argv)
    bare = _python("-c", WITHOUT_SCIPY, *argv)
    assert plain.returncode == 0, plain.stderr
    assert bare.returncode == 0, bare.stderr
    assert bare.stdout == plain.stdout


def test_mine_help_lists_every_miner():
    proc = _python("-m", "repro.cli", "mine", "-h")
    assert proc.returncode == 0
    assert set(registry.names("associations")) <= set(
        re.split(r"\W+", proc.stdout))


def test_unknown_miner_is_invalid_choice():
    proc = _python("-m", "repro.cli", "mine", "x.dat", "--miner", "nope")
    assert proc.returncode == 2
    assert "argument --miner: invalid choice: 'nope'" in proc.stderr


def test_capability_table_order_ignores_import_order():
    proc = _python("-c", "from repro import registry; "
                         "registry.names('clustering'); "
                         "print(' '.join(s.name for s in registry.specs()))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [s.name for s in registry.specs()]
