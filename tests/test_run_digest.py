"""tools/run_digest.py, solve and verify on the benchmark's seed-1
instances: all of them, and certify-64's twelve twice."""
import importlib.util
import sys
from pathlib import Path

from pcst import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digest.py"
SRC = Path(cli.__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("run_digest", TOOL)
run_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_digest)

# the digest of every run's stdout, stderr, exit code and trace file,
# byte for byte: all 70 runs, and certify-64's 60 of them
ALL_RUNS = "6d3e3c825ade7d1e513e4e3127c606db7c0c064ea35506b0c68de14b9c0d50c8"
CERTIFY_64 = "6529597bd0e5572484f70d8aa98fc4d3ae8cabe50aeb3684ed9b569ed4b60087"


def test_all_runs_print_as_pinned():
    """solve and verify on sparse-4k, dense-800 and certify-64."""
    assert run_digest.run_digest(str(SRC)) == {"codes": {0: 70},
                                               "sha256": ALL_RUNS}


def test_certify_64_runs_repeat_and_leave_sys_path_as_it_was():
    path, modules = list(sys.path), set(sys.modules)
    first = run_digest.run_digest(str(SRC), ("certify-64",))
    assert first == {"codes": {0: 60}, "sha256": CERTIFY_64}
    assert run_digest.run_digest(str(SRC), ("certify-64",)) == first
    assert sys.path == path
    assert set(sys.modules) == modules


def test_no_package_module_names_the_tool():
    for path in (SRC / "pcst").glob("*.py"):
        assert "run_digest" not in path.read_text(encoding="utf-8")
