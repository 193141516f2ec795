"""tools/verify_corpus.py, the perturbation corpus of pcst verify, on
its first documents."""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from pcst import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verify_corpus.py"
SRC = Path(cli.__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("verify_corpus", TOOL)
verify_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_corpus)


def test_corpus_verifies_each_document_twice_and_repeats():
    path = list(sys.path)
    first = verify_corpus.run_corpus(str(SRC), 12)
    assert sum(first["codes"].values()) == 24
    assert set(first["codes"]) <= {0, 2, 3}
    assert verify_corpus.run_corpus(str(SRC), 12) == first
    assert len(verify_corpus.PERTURBATIONS) == 22
    assert sys.path == path


# what a refused document's message may name after the common prefix:
# the tree, the laminar family or one of the five reported numbers
NAMED_FIELD = re.compile(
    r"error: doc\.json: malformed solution field: (tree |laminar"
    r"|(cost|penalty|objective|lagrangean_objective|lower_bound): ).*")


# the corpus's runs per exit code and its digest: every run's stdout,
# stderr and exit code, byte for byte
CODES = {"0": "138", "2": "1060", "3": "1202"}
SHA256 = "7392974fb79dc5bd900ad666c286158cd015807bfcdef2e852638413f7540173"


def test_main_prints_the_counts_and_the_digest():
    """The runs per exit code, then each stderr line of the runs that
    exit 2 with its count, one line per run, and the digest, all as
    pinned.  Every such line names the field that was refused."""
    proc = subprocess.run([sys.executable, str(TOOL), str(SRC)],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == "runs: 2400"
    codes = dict(re.fullmatch(r"exit ([023]): (\d+)", line).groups()
                 for line in lines[1:4])
    assert codes == CODES
    messages = [re.fullmatch(r"exit 2 message, (\d+) runs: (.*)", line)
                for line in lines[4:-1]]
    assert all(messages)
    assert sum(int(match[1]) for match in messages) == int(codes["2"])
    for match in messages:
        assert NAMED_FIELD.fullmatch(match[2]), match[2]
    assert lines[-1] == f"sha256: {SHA256}"


def test_no_package_module_imports_the_tool():
    for path in (SRC / "pcst").glob("*.py"):
        assert "verify_corpus" not in path.read_text(encoding="utf-8")
