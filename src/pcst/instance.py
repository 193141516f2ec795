"""Prize-collecting Steiner tree instances over exact rationals.

An instance is an undirected graph with a non-negative cost on every edge
and a non-negative prize on every vertex.  The objective value of a tree T
is cost(T) plus the prizes of the vertices T leaves out; a single vertex
with no edges is a legal tree.  The graph does not have to be connected.

Every number in this package is a ``fractions.Fraction``.  Numeric tokens
in either file format may be integers ("7"), decimals ("2.5"), or ratios
("5/2") and are converted exactly; nothing is ever rounded.

Supported formats:

* ``json``::

      {"n": 3,
       "prizes": [10, "3/2", "3/2"],
       "edges": [[0, 1, 2], [0, 2, 2]]}

  Vertex ids are 0-based.  An optional ``"names"`` list attaches labels.

* ``stp``: line oriented with 1-based ids, in the style of Steiner tree
  benchmark files::

      SECTION Graph
      Nodes 3
      Edges 2
      E 1 2 2
      E 1 3 5/2
      END
      SECTION Terminals
      TP 1 10
      END
      EOF

  Only nonzero prizes appear in the Terminals section.  Blank lines and
  lines starting with ``#`` are ignored.

Self-loops and parallel edges are rejected rather than collapsed so that
cut counting in the solver stays unambiguous.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]

FORMATS = ("json", "stp")

# Limits on one numeric token.  A token's length is paid for in the
# input itself, but an exponent costs only its digits: "1e4000000"
# would otherwise become a 13-million-bit integer before anything can
# refuse it.
MAX_TOKEN_CHARS = 10_000
MAX_EXPONENT = 1_000
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


class ParseError(ValueError):
    """Malformed instance text.  ``line`` and ``column`` are 1-based
    positions when they are known, else None."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line})" if column is None else \
                f" (line {line}, column {column})"
        super().__init__(message + where)


def parse_rational(token: RationalLike) -> Fraction:
    """Convert an int, Fraction, or numeric string token exactly.

    Floats are rejected on purpose: the caller should pass the original
    text so "0.1" means 1/10 and not the nearest binary double.  String
    tokens longer than MAX_TOKEN_CHARS or with an exponent beyond
    MAX_EXPONENT in magnitude are refused.
    """
    if isinstance(token, Fraction):
        return token
    if isinstance(token, bool):
        raise ValueError(f"not a rational token: {token!r}")
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, float):
        raise ValueError("floats are inexact; pass the token as a string")
    if isinstance(token, str):
        text = token.strip()
        if len(text) > MAX_TOKEN_CHARS:
            raise ValueError(f"numeric token longer than {MAX_TOKEN_CHARS} "
                             "characters")
        exponent = _EXPONENT.search(text)
        if exponent and \
                abs(int(exponent.group(1).replace("_", ""))) > MAX_EXPONENT:
            raise ValueError(f"exponent of {text!r} exceeds "
                             f"{MAX_EXPONENT} in magnitude")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational token: {token!r}") from exc
    raise ValueError(f"not a rational token: {token!r}")


def format_rational(value: Fraction) -> str:
    """Canonical exact form "p/q", lowest terms, q >= 1."""
    return f"{value.numerator}/{value.denominator}"


def rational_token(value: Fraction) -> int | str:
    """Compact token for file emission: plain int when integral."""
    if value.denominator == 1:
        return value.numerator
    return format_rational(value)


def approx_decimal(value: Fraction, digits: int = 6) -> str:
    """Human-facing decimal approximation; exact forms stay authoritative."""
    try:
        return f"{float(value):.{digits}g}"
    except OverflowError:
        return "inf"


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    edges hold (u, v, cost) with u < v, in input order; the position of an
    edge in this tuple is its edge index, which the solver uses for
    deterministic tie-breaking.  ``names`` is cosmetic and ignored by
    equality (the stp format cannot carry labels).
    """

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    prizes: tuple[Fraction, ...]
    names: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"vertex count must be a positive int, got {self.n!r}")
        prizes = tuple(parse_rational(p) for p in self.prizes)
        if len(prizes) != self.n:
            raise ValueError(f"expected {self.n} prizes, got {len(prizes)}")
        for v, p in enumerate(prizes):
            if p < 0:
                raise ValueError(f"negative prize {p} at vertex {v}")
        seen: set[tuple[int, int]] = set()
        edges = []
        for k, e in enumerate(self.edges):
            try:
                u, v, c = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {k} is not a (u, v, cost) triple: {e!r}")
            if not isinstance(u, int) or not isinstance(v, int) \
                    or isinstance(u, bool) or isinstance(v, bool):
                raise ValueError(f"edge {k} has non-integer endpoint: {e!r}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {k} endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {k} is a self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"parallel edge {k} between {u} and {v}")
            seen.add((u, v))
            c = parse_rational(c)
            if c < 0:
                raise ValueError(f"negative cost {c} on edge {k}")
            edges.append((u, v, c))
        if self.names is not None:
            names = tuple(str(s) for s in self.names)
            if len(names) != self.n:
                raise ValueError(f"expected {self.n} names, got {len(names)}")
            object.__setattr__(self, "names", names)
        object.__setattr__(self, "prizes", prizes)
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def prize_total(self) -> Fraction:
        return sum(self.prizes, Fraction(0))

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbour, edge index)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for idx, (u, v, _) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return adj


# ---------------------------------------------------------------------------
# parsing / emission


def parse_instance(text: str, fmt: str = "json") -> Instance:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "json":
        return _parse_json(text)
    return _parse_stp(text)


def emit_instance(inst: Instance, fmt: str = "json") -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if fmt == "json":
        return _emit_json(inst)
    return _emit_stp(inst)


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} not allowed")


def _parse_json(text: str) -> Instance:
    try:
        doc = json.loads(text, parse_float=parse_rational,
                         parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid json: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # a number past parse_rational's or int's limits
        raise ParseError(str(exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level json value must be an object")
    for key in ("n", "prizes", "edges"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    extra = set(doc) - {"n", "prizes", "edges", "names"}
    if extra:
        raise ParseError(f"unknown keys {sorted(extra)}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f'"n" must be an integer, got {n!r}')
    if not isinstance(doc["prizes"], list):
        raise ParseError('"prizes" must be a list')
    if not isinstance(doc["edges"], list):
        raise ParseError('"edges" must be a list')
    try:
        prizes = tuple(parse_rational(p) for p in doc["prizes"])
        edges = []
        for k, item in enumerate(doc["edges"]):
            if not isinstance(item, list) or len(item) != 3:
                raise ValueError(f"edge {k} must be a [u, v, cost] triple")
            u, v, c = item
            edges.append((u, v, parse_rational(c)))
        names = doc.get("names")
        if names is not None:
            if not isinstance(names, list):
                raise ValueError('"names" must be a list of strings')
            names = tuple(names)
        return Instance(n, tuple(edges), prizes, names)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _emit_json(inst: Instance) -> str:
    doc: dict = {
        "n": inst.n,
        "prizes": [rational_token(p) for p in inst.prizes],
        "edges": [[u, v, rational_token(c)] for u, v, c in inst.edges],
    }
    if inst.names is not None:
        doc["names"] = list(inst.names)
    return json.dumps(doc, indent=2) + "\n"


def _parse_stp(text: str) -> Instance:
    n = None
    declared_m = None
    edges: list[tuple[int, int, Fraction]] = []
    prize_lines: dict[int, Fraction] = {}
    section = None
    saw_graph = False
    saw_eof = False

    def fail(msg: str, lineno: int):
        raise ParseError(msg, line=lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if saw_eof:
            fail("content after EOF", lineno)
        parts = line.split()
        key = parts[0]
        if key == "SECTION":
            if len(parts) != 2 or parts[1] not in ("Graph", "Terminals"):
                fail(f"unknown section in {line!r}", lineno)
            if section is not None:
                fail("nested SECTION", lineno)
            section = parts[1]
            if section == "Graph":
                if saw_graph:
                    fail("duplicate Graph section", lineno)
                saw_graph = True
            elif not saw_graph:
                fail("Terminals section before Graph section", lineno)
            continue
        if key == "END":
            if section is None:
                fail("END outside a section", lineno)
            section = None
            continue
        if key == "EOF":
            if section is not None:
                fail("EOF inside a section", lineno)
            saw_eof = True
            continue
        if section == "Graph":
            if key == "Nodes":
                if n is not None:
                    fail("duplicate Nodes line", lineno)
                if len(parts) != 2 or not parts[1].isdigit():
                    fail(f"bad Nodes line {line!r}", lineno)
                n = int(parts[1])
            elif key == "Edges":
                if declared_m is not None:
                    fail("duplicate Edges line", lineno)
                if len(parts) != 2 or not parts[1].isdigit():
                    fail(f"bad Edges line {line!r}", lineno)
                declared_m = int(parts[1])
            elif key == "E":
                if len(parts) != 4:
                    fail(f"bad edge line {line!r}", lineno)
                if n is None:
                    fail("edge line before Nodes line", lineno)
                try:
                    u, v = int(parts[1]), int(parts[2])
                    cost = parse_rational(parts[3])
                except ValueError as exc:
                    fail(str(exc), lineno)
                if not (1 <= u <= n and 1 <= v <= n):
                    fail(f"edge endpoint out of range in {line!r}", lineno)
                edges.append((u - 1, v - 1, cost))
            else:
                fail(f"unknown line {line!r} in Graph section", lineno)
        elif section == "Terminals":
            if key != "TP" or len(parts) != 3:
                fail(f"unknown line {line!r} in Terminals section", lineno)
            try:
                v = int(parts[1])
                prize = parse_rational(parts[2])
            except ValueError as exc:
                fail(str(exc), lineno)
            if n is None or not (1 <= v <= n):
                fail(f"terminal vertex out of range in {line!r}", lineno)
            if v - 1 in prize_lines:
                fail(f"duplicate prize for vertex {v}", lineno)
            prize_lines[v - 1] = prize
        else:
            fail(f"unexpected line {line!r} outside any section", lineno)

    if not saw_eof:
        raise ParseError("missing EOF line")
    if n is None:
        raise ParseError("missing Nodes line")
    if declared_m is not None and declared_m != len(edges):
        raise ParseError(f"Edges line declares {declared_m} edges "
                         f"but {len(edges)} E lines found")
    prizes = tuple(prize_lines.get(v, Fraction(0)) for v in range(n))
    try:
        return Instance(n, tuple(edges), prizes)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _emit_stp(inst: Instance) -> str:
    lines = ["SECTION Graph",
             f"Nodes {inst.n}",
             f"Edges {inst.m}"]
    for u, v, c in inst.edges:
        lines.append(f"E {u + 1} {v + 1} {rational_token(c)}")
    lines.append("END")
    lines.append("SECTION Terminals")
    for v, p in enumerate(inst.prizes):
        if p != 0:
            lines.append(f"TP {v + 1} {rational_token(p)}")
    lines.append("END")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators


def gen_tight_star(rho: RationalLike) -> Instance:
    """Three-vertex star on which the solver's output is twice as costly
    as the optimum in the limit.

    Hub 0 carries a large prize; leaves 1 and 2 carry 1 + rho/2 each and
    hang off the hub by cost-2 edges.  The greedy growth buys both edges
    (objective 4) while the best tree is the bare hub (objective 2 + rho).
    Requires 0 < rho < 2 so that the hub alone really is optimal.
    """
    rho = parse_rational(rho)
    if not 0 < rho < 2:
        raise ValueError(f"rho must satisfy 0 < rho < 2, got {rho}")
    leaf = 1 + rho / 2
    return Instance(
        3,
        ((0, 1, Fraction(2)), (0, 2, Fraction(2))),
        (Fraction(10), leaf, leaf),
    )


def gen_tight_path(k: int, rho: RationalLike) -> Instance:
    """Path variant of the tight family, with k cost-2 edges.

    Vertex 0 carries prize 10*k; every other vertex carries 1 + rho/k.
    As rho shrinks the solver buys the whole path (objective 2k) while
    the optimum stays at vertex 0 alone (objective k + rho).
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise ValueError(f"k must be an int >= 2, got {k!r}")
    rho = parse_rational(rho)
    if not 0 < rho < 2:
        raise ValueError(f"rho must satisfy 0 < rho < 2, got {rho}")
    tail = 1 + rho / k
    prizes = (Fraction(10 * k),) + (tail,) * k
    edges = tuple((i, i + 1, Fraction(2)) for i in range(k))
    return Instance(k + 1, edges, prizes)


def gen_random(n: int, edge_probability: RationalLike, max_cost: int,
               max_prize: int, seed: int) -> Instance:
    """Seed-deterministic random instance with integer costs and prizes.

    Draw order is fixed so the same seed always yields the same instance:
    unordered pairs (u, v) with u < v are visited in lexicographic order,
    one inclusion draw each (an exact-rational coin: randrange(q) < p for
    probability p/q) followed by a cost draw when the edge is kept; prize
    draws for vertices 0..n-1 come after all pairs.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive int, got {n!r}")
    p = parse_rational(edge_probability)
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if max_cost < 0 or max_prize < 0:
        raise ValueError("max_cost and max_prize must be non-negative")
    rng = random.Random(seed)
    edges = []
    for u in range(n - 1):
        for v in range(u + 1, n):
            if rng.randrange(p.denominator) < p.numerator:
                edges.append((u, v, Fraction(rng.randint(0, max_cost))))
    prizes = tuple(Fraction(rng.randint(0, max_prize)) for _ in range(n))
    return Instance(n, tuple(edges), prizes)
