"""tools/run_digest.py, solve and verify on the benchmark's seed-1
instances, on certify-64's twelve."""
import importlib.util
import sys
from pathlib import Path

from pcst import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digest.py"
SRC = Path(cli.__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("run_digest", TOOL)
run_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_digest)

# the digest of certify-64's 60 runs: every run's stdout, stderr, exit
# code and trace file, byte for byte
CERTIFY_64 = "6529597bd0e5572484f70d8aa98fc4d3ae8cabe50aeb3684ed9b569ed4b60087"


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
