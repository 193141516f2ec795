"""Run ``pcst verify`` over a seeded corpus of perturbed solution
documents and print one digest of everything it printed.

    python tools/verify_corpus.py SRC

SRC is the ``src`` directory whose ``pcst`` package is imported and run,
so the same corpus can be put to two checkouts and their digests
compared.  The corpus is fixed by its seeds: 40 ``gen_random``
instances with n from 3 to 18 (every fourth with rational costs and
prizes), the ``pcst solve --json`` document of each, and 30 copies of
each document that carry 1 to 3 of the 22 kinds of PERTURBATIONS,
1200 documents in all.  Each document is verified twice in this
process through ``cli.main``, plain and with ``--json``.  The output
is the count of runs per exit code, the count of each distinct stderr
line of the runs that exit 2, with its digit runs folded to N, and one
sha256 over the stdout, the stderr without timing lines and the exit
code of every run, in order.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

INSTANCES = 40
PER_INSTANCE = 30
TIMING = re.compile(r"^\w+ time: [0-9.]+s$")
DIGITS = re.compile(r"\d+")


def instance_doc(k: int, gen_random, emit_instance) -> dict:
    """Instance k of the corpus as its json object."""
    n = 3 + k % 16
    doc = json.loads(emit_instance(gen_random(n, "1/2", 10, 10, k), "json"))
    if k % 4 == 3:
        rng = random.Random(-k)
        doc["prizes"] = [str(Fraction(p, rng.randint(1, 6)))
                         for p in doc["prizes"]]
        doc["edges"] = [[u, v, str(Fraction(c, rng.randint(1, 6)))]
                        for u, v, c in doc["edges"]]
    return doc


# -- perturbations: each edits a solution document in place ------------------
# (rng, doc, inst) -> None, where inst is the instance's json object


def _tree(doc):
    return doc["tree"]["vertices"], doc["tree"]["edges"]


def _outside(doc, inst):
    inside = set(doc["tree"]["vertices"])
    return [v for v in range(inst["n"]) if v not in inside]


def out_of_range_vertex(rng, doc, inst):
    doc["tree"]["vertices"].append(inst["n"] + rng.randrange(3))


def negative_vertex(rng, doc, inst):
    doc["tree"]["vertices"].append(-1 - rng.randrange(3))


def outside_vertices_joined(rng, doc, inst):
    vertices, edges = _tree(doc)
    outside = _outside(doc, inst)
    rng.shuffle(outside)
    chain = vertices[:1] + outside[:2]
    vertices.extend(outside[:2])
    edges.extend([u, v] for u, v in zip(chain, chain[1:]))


def negative_edge_end(rng, doc, inst):
    vertices, edges = _tree(doc)
    edges.append([rng.choice(vertices or [0]), -1])


def junk_edge(rng, doc, inst):
    n = inst["n"]
    doc["tree"]["edges"].append([rng.randrange(n), rng.randrange(n)])


def cycle_making_edge(rng, doc, inst):
    vertices, edges = _tree(doc)
    inside, used = set(vertices), {tuple(sorted(e)) for e in edges}
    spare = [[u, v] for u, v, _ in inst["edges"]
             if u in inside and v in inside and (u, v) not in used]
    if spare:
        edges.append(rng.choice(spare))


def edge_off_the_tree(rng, doc, inst):
    vertices, edges = _tree(doc)
    inside = set(vertices)
    leaving = [[u, v] for u, v, _ in inst["edges"]
               if (u in inside) != (v in inside)]
    if leaving:
        edges.append(rng.choice(leaving))


def dropped_edge(rng, doc, inst):
    edges = doc["tree"]["edges"]
    if edges:
        edges.pop(rng.randrange(len(edges)))


def dropped_vertex(rng, doc, inst):
    vertices = doc["tree"]["vertices"]
    if vertices:
        vertices.pop(rng.randrange(len(vertices)))


def flipped_saturation(rng, doc, inst):
    sets = doc["laminar"]
    for entry in rng.sample(sets, min(len(sets), rng.randint(1, 3))):
        entry["saturated"] = not entry["saturated"]


def changed_dual(rng, doc, inst):
    entry = rng.choice(doc["laminar"])
    delta = Fraction(rng.choice([-1, 1]), rng.randint(1, 4))
    value = Fraction(entry["y"]) + delta
    entry["y"] = f"{value.numerator}/{value.denominator}"


def _non_int(rng, value):
    return rng.choice([str(value), 0.5, 1.0, None, True, [value]])


def non_int_vertex(rng, doc, inst):
    vertices = doc["tree"]["vertices"]
    if vertices:
        k = rng.randrange(len(vertices))
        vertices[k] = _non_int(rng, vertices[k])


def non_int_edge_end(rng, doc, inst):
    edges = doc["tree"]["edges"]
    if edges:
        edge = rng.choice(edges)
        side = rng.randrange(2)
        edge[side] = _non_int(rng, edge[side])


def malformed_edge(rng, doc, inst):
    edges = doc["tree"]["edges"]
    if edges:
        k = rng.randrange(len(edges))
        u, v = edges[k]
        edges[k] = rng.choice([[u], [u, v, u], f"{u}-{v}", {"u": u}])


def malformed_vertex_list(rng, doc, inst):
    doc["tree"]["vertices"] = rng.choice([5, None, "0,1", {}])


def malformed_edge_list(rng, doc, inst):
    doc["tree"]["edges"] = rng.choice([5, None, "0-1", {}])


def bad_vertex_and_edge(rng, doc, inst):
    non_int_vertex(rng, doc, inst)
    non_int_edge_end(rng, doc, inst)


def duplicate_vertex(rng, doc, inst):
    vertices = doc["tree"]["vertices"]
    if vertices:
        vertices.append(rng.choice(vertices))


def empty_tree(rng, doc, inst):
    doc["tree"].update(vertices=[], edges=[])


def spanning_forest(rng, doc, inst):
    """Every vertex, and a spanning forest of the instance's edges."""
    root = list(range(inst["n"]))

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    forest = []
    for u, v, _ in inst["edges"]:
        if find(u) != find(v):
            root[find(u)] = find(v)
            forest.append([u, v])
    doc["tree"].update(vertices=list(range(inst["n"])), edges=forest)


def single_vertex(rng, doc, inst):
    doc["tree"].update(vertices=[rng.randrange(inst["n"])], edges=[])


def unchanged(rng, doc, inst):
    pass


# In this order: a document's edits run in it, so that the edits that
# break the tree's shape come after those that read it.
PERTURBATIONS = (
    spanning_forest, single_vertex, empty_tree, out_of_range_vertex,
    negative_vertex, duplicate_vertex, dropped_vertex,
    outside_vertices_joined, dropped_edge, junk_edge, cycle_making_edge,
    edge_off_the_tree, negative_edge_end, flipped_saturation, changed_dual,
    non_int_vertex, non_int_edge_end, bad_vertex_and_edge, malformed_edge,
    malformed_vertex_list, malformed_edge_list, unchanged)


def import_cli(src: str):
    """pcst.cli imported from the package under src, with sys.path left
    as it was; a pcst imported from elsewhere before is refused."""
    sys.path.insert(0, src)
    try:
        from pcst import cli
    finally:
        sys.path.remove(src)
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"error: imported pcst from {cli.__file__}, "
                         f"not from {src}")
    return cli


def run_cli(cli, argv) -> tuple[int, str, str]:
    """The exit code, the stdout and the stderr without timing lines of
    one run of cli.main in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), "".join(
        line for line in err.getvalue().splitlines(keepends=True)
        if not TIMING.match(line.rstrip("\n")))


def run_corpus(src: str, documents: int = INSTANCES * PER_INSTANCE) -> dict:
    """Verify the first `documents` of the corpus with the package under
    src: {"codes": {exit code: runs}, "refusals": {folded stderr line of
    an exit-2 run: count}, "sha256": digest}."""
    cli = import_cli(src)
    from pcst.instance import emit_instance, gen_random
    digest, codes, refusals = hashlib.sha256(), {}, {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # the files are named relative to it in every line
        try:
            for k in range(-(-documents // PER_INSTANCE)):
                inst = instance_doc(k, gen_random, emit_instance)
                Path("inst.json").write_text(json.dumps(inst))
                code, base, err = run_cli(cli, ["solve", "inst.json",
                                                "--json"])
                if code != 0:
                    raise SystemExit(f"error: instance {k}: {err}")
                for j in range(min(PER_INSTANCE,
                                   documents - k * PER_INSTANCE)):
                    rng = random.Random(k * PER_INSTANCE + j)
                    doc = json.loads(base)
                    kinds = rng.sample(range(len(PERTURBATIONS)),
                                       rng.randint(1, 3))
                    for kind in sorted(kinds):
                        PERTURBATIONS[kind](rng, doc, inst)
                    Path("doc.json").write_text(json.dumps(doc))
                    for flags in ([], ["--json"]):
                        code, out, err = run_cli(
                            cli, ["verify", "doc.json", "inst.json", *flags])
                        codes[code] = codes.get(code, 0) + 1
                        if code == 2:
                            for line in err.splitlines():
                                line = DIGITS.sub("N", line)
                                refusals[line] = refusals.get(line, 0) + 1
                        digest.update(json.dumps([code, out, err]).encode())
                        digest.update(b"\n")
        finally:
            os.chdir(cwd)
    return {"codes": dict(sorted(codes.items())),
            "refusals": dict(sorted(refusals.items())),
            "sha256": digest.hexdigest()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", help="the src directory of a checkout")
    args = parser.parse_args()
    result = run_corpus(args.src)
    print(f"runs: {sum(result['codes'].values())}")
    for code, runs in result["codes"].items():
        print(f"exit {code}: {runs}")
    for line, runs in result["refusals"].items():
        print(f"exit 2 message, {runs} runs: {line}")
    print(f"sha256: {result['sha256']}")


if __name__ == "__main__":
    main()
