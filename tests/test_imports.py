"""What ``import ordnet`` and each command load, and the lazily bound names.

``ordnet`` and ``ordnet.cli`` import the SciPy-backed submodules on first
use.  The loading checks run in fresh interpreters, since this process has
imported SciPy already; the name checks run here.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordnet
from ordnet import NumericalError, cli
from ordnet.cli import main

SRC = str(Path(ordnet.__file__).resolve().parents[1])
LAZY_SUBMODULES = ("baseline", "engine", "selection", "simulate")


def write_config(path: Path, *lines: str) -> str:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A small simulated design, its configurations and a short joint fit."""
    root = tmp_path_factory.mktemp("run")
    sim = write_config(
        root / "sim.conf", "p = 10", "levels = 1,2,3", "n_base_edges = 10",
        "n_appearing = 3", "n_disappearing = 3", "n_per_group = 50", "seed = 3",
    )
    write_config(root / "fit.conf", "nu0 = 0.04", "max_iter = 5")
    write_config(root / "select.conf", "nu0_grid = 0.02,0.04", "max_iter = 5")
    assert main(["simulate", "--config", sim, "--out-dir", str(root / "data")]) == 0
    assert main(["fit", "--config", str(root / "fit.conf"),
                 "--manifest", str(root / "data" / "manifest.csv"),
                 "--out", str(root / "fit.json")]) == 0
    return root


def loaded_after(statements: str) -> list[str]:
    """The scipy and ordnet modules a fresh interpreter holds after ``statements``."""
    script = (
        "import json, sys\n"
        f"{statements}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'ordnet'))))\n"
    )
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def command(argv: list[str]) -> str:
    return f"from ordnet.cli import main\nassert main({argv!r}) == 0"


SHORT_COMMANDS = {
    "import": lambda root: "import ordnet, ordnet.cli",
    "help": lambda root: (
        "import contextlib, io\n"
        "from ordnet.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['--help']) == 0"
    ),
    "evaluate": lambda root: command([
        "evaluate", "--fit", str(root / "fit.json"),
        "--truth", str(root / "data" / "truth.json"), "--out", str(root / "metrics.csv"),
    ]),
    "rank": lambda root: command([
        "rank", "--fit", str(root / "fit.json"), "--k", "3",
        "--out-prefix", str(root / "rank"),
    ]),
}


@pytest.mark.parametrize("name", sorted(SHORT_COMMANDS))
def test_short_commands_load_no_scipy(name, run_dir):
    loaded = loaded_after(SHORT_COMMANDS[name](run_dir))
    assert "ordnet.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy" or m == "ordnet.engine"] == []


def test_fit_loads_scipy_and_the_engine(run_dir, tmp_path):
    loaded = loaded_after(command([
        "fit", "--config", str(run_dir / "fit.conf"),
        "--manifest", str(run_dir / "data" / "manifest.csv"),
        "--out", str(tmp_path / "fit.json"),
    ]))
    assert "ordnet.engine" in loaded and "scipy" in loaded
    assert (tmp_path / "fit.json").read_bytes() == (run_dir / "fit.json").read_bytes()


def test_submodules_resolve_after_a_bare_import():
    statements = (
        "import ordnet\n"
        f"for name in {LAZY_SUBMODULES!r}:\n"
        "    assert getattr(ordnet, name) is sys.modules['ordnet.' + name]"
    )
    loaded = loaded_after(statements)
    assert {f"ordnet.{name}" for name in LAZY_SUBMODULES} <= set(loaded)


def test_every_exported_name_is_its_defining_modules_object():
    for name in ordnet.__all__:
        if name == "__version__":
            continue
        value = getattr(ordnet, name)
        defining = importlib.import_module(value.__module__)
        assert getattr(defining, name) is value, name


def test_each_exported_name_is_declared_once():
    assert len(ordnet.__all__) == len(set(ordnet.__all__))
    declared = {*ordnet.core.__all__, *ordnet.metrics.__all__, *ordnet._SOURCE, "__version__"}
    assert set(ordnet.__all__) == declared


@pytest.mark.parametrize("name", sorted(ordnet._SOURCE))
def test_cli_late_names_are_package_exports(name):
    assert getattr(cli, name) is getattr(ordnet, name)
    assert cli.engine_fit is ordnet.fit


def test_dir_lists_every_exported_name():
    listing = dir(ordnet)
    assert set(ordnet.__all__) <= set(listing)
    assert set(LAZY_SUBMODULES) <= set(listing)


def test_star_import_binds_every_exported_name():
    namespace: dict[str, object] = {}
    exec("from ordnet import *", namespace)
    for name in ordnet.__all__:
        assert namespace[name] is getattr(ordnet, name), name


@pytest.mark.parametrize("module", [ordnet, cli], ids=["ordnet", "cli"])
def test_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


SPIED = {
    "simulate_experiment": lambda root: [
        "simulate", "--config", str(root / "sim.conf"), "--out-dir", str(root / "spied"),
    ],
    "line_search_nu0": lambda root: [
        "select-nu0", "--config", str(root / "select.conf"),
        "--manifest", str(root / "data" / "manifest.csv"), "--out", str(root / "nu0.json"),
    ],
    "engine_fit": lambda root: [
        "fit", "--config", str(root / "fit.conf"),
        "--manifest", str(root / "data" / "manifest.csv"), "--out", str(root / "spied.json"),
    ],
    "fit_ssl": lambda root: [
        "fit", "--config", str(root / "fit.conf"), "--method", "ssl",
        "--manifest", str(root / "data" / "manifest.csv"), "--out", str(root / "spied.json"),
    ],
}


@pytest.mark.parametrize("name", sorted(SPIED))
def test_main_calls_the_name_set_on_cli(name, run_dir, monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        raise NumericalError("spy")

    monkeypatch.setattr(cli, name, spy)
    assert main(SPIED[name](run_dir)) == 4
    assert calls == [name]
