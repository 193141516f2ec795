"""Run ``pcst solve`` and ``pcst verify`` on the benchmark's seed-1
instances and print one digest of everything they printed.

    python tools/run_digest.py SRC

SRC is the ``src`` directory whose ``pcst`` package is imported and run,
so the same runs can be put to two checkouts and their digests
compared.  The instances are drawn with perfbench/workloads.py's
sampler, which is imported and not changed: the seed-1 instance of
sparse-4k and of dense-800, and the 12 of certify-64.  Each instance is
run five times in this process through ``cli.main``: ``solve``,
``solve --json``, ``solve --trace FILE``, and ``verify`` and
``verify --json`` of the ``solve --json`` document.  certify-64's
solves add ``--check-invariants``, as the benchmark's do; 70 runs in
all.  The output is the count of runs per exit code and one sha256 over
the stdout, the stderr without timing lines, the exit code and the
trace file of every run, in order.  The package is imported and run by
tools/verify_corpus.py's own functions.
"""
import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("sparse-4k", "dense-800", "certify-64")
SEED = 1


def load(path: Path):
    """The file at path as a module.  It is listed in sys.modules, under
    a name of its own, only while it runs: a dataclass reads its module
    back from there."""
    spec = importlib.util.spec_from_file_location(f"run_digest_{path.stem}",
                                                  path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def run_digest(src: str, names=NAMES) -> dict:
    """Run the named workloads' instances with the package under src:
    {"codes": {exit code: runs}, "sha256": digest}."""
    corpus = load(ROOT / "tools" / "verify_corpus.py")
    cli = corpus.import_cli(src)
    workloads = load(ROOT / "perfbench" / "workloads.py")
    digest, codes = hashlib.sha256(), {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # the files are named relative to it in every line
        try:
            for name in names:
                workload = workloads.WORKLOADS[name]
                directory = Path(name)
                directory.mkdir()
                check = ["--check-invariants"] if workload.checked else []
                for path in workloads.write_instances(workload, SEED,
                                                      directory):
                    inst = str(path)
                    doc, trace = directory / "doc.json", directory / "trace"
                    runs = [["solve", inst, *check],
                            ["solve", inst, "--json", *check],
                            ["solve", inst, "--trace", str(trace), *check],
                            ["verify", str(doc), inst],
                            ["verify", str(doc), inst, "--json"]]
                    for argv in runs:
                        trace.unlink(missing_ok=True)
                        code, out, err = corpus.run_cli(cli, argv)
                        if argv[0] == "solve" and "--json" in argv:
                            doc.write_text(out, encoding="utf-8")
                        codes[code] = codes.get(code, 0) + 1
                        traced = trace.read_text(encoding="utf-8") \
                            if trace.exists() else None
                        digest.update(json.dumps(
                            [code, out, err, traced]).encode())
                        digest.update(b"\n")
        finally:
            os.chdir(cwd)
    return {"codes": dict(sorted(codes.items())),
            "sha256": digest.hexdigest()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src directory of a checkout")
    args = parser.parse_args()
    result = run_digest(args.src)
    print(f"runs: {sum(result['codes'].values())}")
    for code, runs in result["codes"].items():
        print(f"exit {code}: {runs}")
    print(f"sha256: {result['sha256']}")


if __name__ == "__main__":
    main()
