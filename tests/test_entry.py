"""The process entry point: it freezes the start-up heap, then runs the
command exactly as an in-process ``cli.main`` call does, which never freezes."""

import gc
import importlib
import os
import runpy
import subprocess
import sys

import pytest

import tracebw.__main__
from tracebw.cli import main

from .test_parsing import LANL_LINE

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The child finds the package that this process imported.
ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tracebw.__main__.__file__))}


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


def test_entry_freezes_before_it_runs_the_command(monkeypatch, unfreeze):
    frozen = []

    def record():
        frozen.append(gc.get_freeze_count())
        return 7

    monkeypatch.setattr(tracebw.__main__, "main", record)
    before = gc.get_freeze_count()
    assert tracebw.__main__.entry() == 7
    assert len(frozen) == 1 and frozen[0] > before


def test_console_script_runs_the_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["tracebw"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is tracebw.__main__.entry


# This process imported tracebw.cli already, which runpy warns of; python -m
# tracebw.cli has not, since the package's __init__ does not import it.
@pytest.mark.filterwarnings("ignore:'tracebw.cli' found in sys.modules:RuntimeWarning")
def test_running_cli_as_main_goes_through_the_entry(tmp_path, monkeypatch, unfreeze):
    # python -m tracebw.cli runs cli.py as __main__; it freezes as the entry does.
    trace = tmp_path / "t.trace"
    trace.write_text(LANL_LINE + "\n")
    monkeypatch.setattr(sys, "argv", ["tracebw", "inspect", str(trace)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("tracebw.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert gc.get_freeze_count() > 0


def test_main_in_process_never_freezes(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text(LANL_LINE + "\n")
    spec = tmp_path / "s.genspec"
    spec.write_text("count=5\n")
    before = gc.get_freeze_count()
    for argv in (["inspect", str(trace)], ["rates", str(trace)], ["summary", str(trace)],
                 ["gen", str(spec), "--out", str(tmp_path / "g.trace")]):
        assert main(argv) == 0
        assert gc.get_freeze_count() == before
        assert gc.isenabled()


@pytest.mark.parametrize("argv, status", [
    (["rates", "--mb", "kilo", "t.trace"], 2),
    (["gen", "bad.genspec", "--out", "g.trace"], 2),
    (["rates", "missing.trace"], 1),
], ids=["bad-flag", "bad-genspec", "missing-input"])
def test_module_entry_keeps_error_statuses_and_stderr(argv, status, tmp_path, monkeypatch,
                                                      capsys):
    # Exit status 141 on a closed pipe is checked through the same entry by
    # test_cli.py's test_reader_closing_early_in_subprocess.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.trace").write_text(LANL_LINE + "\n")
    (tmp_path / "bad.genspec").write_text("count=-1\n")
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    in_process = capsys.readouterr()
    for module in ("tracebw", "tracebw.cli"):
        result = subprocess.run([sys.executable, "-m", module, *argv],
                                env=ENV, capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (status, "", in_process.err)
    assert code == status and in_process.out == ""

