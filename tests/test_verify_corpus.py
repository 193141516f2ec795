"""tools/verify_corpus.py, the perturbation corpus of pcst verify, on
its first documents."""
import importlib.util
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
CODES = {"0": "96", "2": "1198", "3": "1106"}
SHA256 = "71ca73a80a73b325bbf0f52c291c7784361caa35c64ac161f1b43faef5694d17"


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


def rewriting_duals(form):
    """The corpus's perturbations, each followed by a rewrite of every
    laminar dual of the document to form(p, q) of its value p / q in
    lowest terms: an equal token, not in the canonical form."""
    def then_rewrite(perturb):
        def edit(rng, doc, inst):
            perturb(rng, doc, inst)
            for entry in doc["laminar"]:
                entry["y"] = form(*Fraction(entry["y"]).as_integer_ratio())
        return edit
    return tuple(map(then_rewrite, verify_corpus.PERTURBATIONS))


@pytest.mark.parametrize("form", [lambda p, q: f"{2 * p}/{2 * q}",
                                  lambda p, q: f" {p}/{q}"],
                         ids=["2p/2q", "space-p/q"])
def test_non_canonical_duals_verify_as_the_canonical_ones(form, monkeypatch):
    """The first 12 documents, each dual rewritten to an equal token
    that the reader does not split but reads through Fraction, give
    every run's stdout, stderr and exit code as the documents do."""
    canonical = verify_corpus.run_corpus(str(SRC), 12)
    monkeypatch.setattr(verify_corpus, "PERTURBATIONS", rewriting_duals(form))
    assert verify_corpus.run_corpus(str(SRC), 12) == canonical


def test_no_package_module_imports_the_tool():
    for path in (SRC / "pcst").glob("*.py"):
        assert "verify_corpus" not in path.read_text(encoding="utf-8")
