"""Prize-collecting Steiner tree instances over exact rationals.

An instance is an undirected graph with a non-negative cost on every edge
and a non-negative prize on every vertex.  The objective value of a tree T
is cost(T) plus the prizes of the vertices T leaves out; a single vertex
with no edges is a legal tree.  The graph does not have to be connected.

Costs and prizes are exact: numeric tokens in either file format may be
integers ("7"), decimals ("2.5"), or ratios ("5/2"); nothing is ever
rounded.  An ``Instance`` holds them once, as ints at one scale, and
the solver and the verifier compute on those ints only.  Its
``fractions.Fraction`` views are built on first read, for the emitters,
the brute-force oracle and callers.

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
import math
import operator
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

RationalLike = Union[int, str, Fraction]

FORMATS = ("json", "stp")

# Limits on one numeric token.  A token's length is paid for in the
# input itself, but an exponent costs only its digits: "1e4000000"
# would otherwise become a 13-million-bit integer before anything can
# refuse it.
MAX_TOKEN_CHARS = 10_000
MAX_EXPONENT = 1_000
# Limit on a declared vertex count, checked before anything is sized by
# it: an STP "Nodes" line costs a few bytes whatever its value, but
# every vertex costs a prize and a heap entry.
MAX_VERTICES = 10**6
# Limits on what an instance adds up to.  Growth runs on ints at the
# scale S = 2 * lcm of every cost and prize denominator.  Every
# rational a solve reports, the ratio of objective to lower bound
# included, has a numerator and a denominator of at most S or the
# scaled total S * (cost total + 2 * prize total).  Both bounds keep
# these ints below Python's 4300-digit (about 14,284-bit) int-to-str
# limit, so every report and document prints.  pcst verify holds a
# solution document to the same bounds: its duals' scale
# (laminar.from_records), their total at the audit's scale and each
# value it reports.
MAX_SCALE_BITS = 4096
MAX_TOTAL_BITS = 14_000
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


def _quoted(token) -> str:
    """repr(token) for a refusal, or, when it is longer than 40
    characters, its first 40 and the token's length: a refused token
    may run to MAX_TOKEN_CHARS."""
    text = repr(token)
    if len(text) <= 40:
        return text
    return f"{text[:40]}... ({len(str(token))} characters)"


def parse_rational(token: RationalLike) -> Fraction:
    """Convert an int, Fraction, or numeric string token exactly.

    Floats are rejected on purpose: the caller should pass the original
    text so "0.1" means 1/10 and not the nearest binary double.  String
    tokens longer than MAX_TOKEN_CHARS or with an exponent beyond
    MAX_EXPONENT in magnitude are refused.  A refusal quotes at most 40
    characters of the token's repr.
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
        # float(), not int(): int() refuses a run past its digit limit
        if exponent and \
                abs(float(exponent.group(1).replace("_", ""))) > MAX_EXPONENT:
            raise ValueError(f"exponent of {_quoted(text)} exceeds "
                             f"{MAX_EXPONENT} in magnitude")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError("not a rational token: "
                             + _quoted(token)) from exc
    raise ValueError(f"not a rational token: {_quoted(token)}")


def _int(token: str) -> int:
    """int(token) of a run of digits, with an optional sign; one past
    int()'s digit limit is refused quoting the token and the limit."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"integer {_quoted(token)} has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def _load_json(text: str, **hooks):
    """json.loads(text, **hooks).  Text it refuses with a ValueError is
    parsed again with every integer read by _int, so that an integer
    past int()'s digit limit is refused in _int's words and any other
    fault as before: the hook costs nothing on text that parses."""
    try:
        return json.loads(text, **hooks)
    except ValueError:
        return json.loads(text, parse_int=_int, **hooks)


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


def budgeted_scale(denominators: Iterable[int], factor: int, name: str) -> int:
    """factor times the lcm of the denominators, refused with a ValueError
    at the first denominator that takes it past MAX_SCALE_BITS."""
    lcm = 1
    for q in denominators:
        lcm = math.lcm(lcm, q)
        if (factor * lcm).bit_length() > MAX_SCALE_BITS:
            raise ValueError(f"{name} needs more than {MAX_SCALE_BITS} bits")
    return factor * lcm


@dataclass(frozen=True, init=False)
class Instance:
    """Immutable problem instance.

    ``ends[k]`` is edge k's (u, v) with u < v, in input order; the
    position of an edge is its edge index, which the solver uses for
    deterministic tie-breaking.  ``scale`` is twice the lcm of every
    cost and prize denominator, and ``scaled_costs[k]`` and
    ``scaled_prizes[v]`` are edge k's cost and vertex v's prize times
    the scale, as ints: they are the only numbers an instance stores.
    They are made here only, on one of two paths that make the same
    checks.  An input of lists or tuples whose every edge is three ints
    with u < v and every prize an int is read in whole-column passes
    (_int_columns) and gets scale 2.  Any other input, and any input
    that fails a check, is read by the per-edge walk (_walk), which
    parses every other token and raises every refusal, naming the
    first bad edge or prize.  An int token takes no ``Fraction`` on
    either path, and an instance past MAX_SCALE_BITS or MAX_TOTAL_BITS
    is refused.  ``edges``, the (u, v, cost) triples, and ``prizes``
    are ``Fraction`` views built on first read.  ``names`` is cosmetic
    and ignored by equality (the stp format cannot carry labels).
    """

    n: int
    ends: tuple[tuple[int, int], ...]
    scale: int
    scaled_costs: tuple[int, ...]
    scaled_prizes: tuple[int, ...]
    names: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __init__(self, n: int, edges: Sequence, prizes: Sequence,
                 names: Optional[Sequence[str]] = None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"vertex count must be a positive int, got {n!r}")
        ends, nums, dens = _int_columns(n, edges, prizes) \
            or _walk(n, edges, prizes)
        if names is not None:
            names = tuple(names)
            if not all(isinstance(s, str) for s in names):
                raise ValueError('"names" must be a list of strings')
            if len(names) != n:
                raise ValueError(f"expected {n} names, got {len(names)}")
        if dens is None:  # every number an int: the scale is 2
            scale = 2
            scaled = [a + a for a in nums]
        else:
            scale = budgeted_scale(set(dens), 2, "the scale, twice the lcm "
                                   "of the denominators,")
            scaled = [a * (scale // q) for a, q in zip(nums, dens)]
        total = sum(scaled) + sum(scaled[:n])  # prizes count twice
        if total.bit_length() > MAX_TOTAL_BITS:
            raise ValueError("the cost total plus twice the prize total, at "
                             f"the instance's scale, needs "
                             f"{total.bit_length()} bits, more than "
                             f"{MAX_TOTAL_BITS}")
        # frozen: the fields are set past the dataclass's __setattr__
        vars(self).update(n=n, ends=ends, scale=scale,
                          scaled_costs=tuple(scaled[n:]),
                          scaled_prizes=tuple(scaled[:n]), names=names)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, Fraction], ...]:
        """(u, v, cost) per edge, in edge index order."""
        return tuple((u, v, Fraction(c, self.scale))
                     for (u, v), c in zip(self.ends, self.scaled_costs))

    @cached_property
    def prizes(self) -> tuple[Fraction, ...]:
        """Prize per vertex."""
        return tuple(Fraction(p, self.scale) for p in self.scaled_prizes)

    @property
    def m(self) -> int:
        return len(self.ends)


def _int_columns(n: int, edges: Sequence, prizes: Sequence):
    """An instance's edge ends and numbers read in whole-column passes,
    as ``(ends, nums, None)`` with nums the prizes and then the costs,
    or None.

    It reads only a list or tuple of edges and of prizes in which every
    edge is a list or tuple of three ints and every prize and cost an
    int (``type(x) is int``, so no bool), and only when the input
    passes every check of _walk with u < v on each edge.  Otherwise it
    returns None, and _walk reads the input: the walk is what parses
    other tokens and words every error.  A one-shot iterable is never
    iterated here.
    """
    if type(edges) not in (list, tuple) or type(prizes) not in (list, tuple) \
            or len(prizes) != n or set(map(type, prizes)) != {int} \
            or min(prizes) < 0:
        return None
    if not set(map(type, edges)) <= {list, tuple}:
        return None
    try:
        us, vs, costs = zip(*edges, strict=True)
    except ValueError:  # no edges, or edges not all of three items
        return None
    if {*map(type, us), *map(type, vs), *map(type, costs)} != {int} \
            or min(us) < 0 or max(vs) >= n or min(costs) < 0 \
            or not all(map(operator.lt, us, vs)):
        return None
    ends = dict.fromkeys(zip(us, vs))  # the parallel-edge check
    if len(ends) != len(edges):
        return None
    return tuple(ends), [*prizes, *costs], None


def _walk(n: int, edges: Iterable, prizes: Iterable):
    """An instance's edge ends and numbers read one token at a time, as
    ``(ends, nums, dens)``: nums and dens are the numerators and
    denominators of the prizes and then the costs.  Every refusal of
    an edge or prize is raised here, naming the first bad one."""
    nums, dens = [], []
    for p in prizes:
        a, q = (p, 1) if type(p) is int \
            else parse_rational(p).as_integer_ratio()
        nums.append(a)
        dens.append(q)
    if len(nums) != n:
        raise ValueError(f"expected {n} prizes, got {len(nums)}")
    for v, a in enumerate(nums):
        if a < 0:
            raise ValueError(f"negative prize {Fraction(a, dens[v])} "
                             f"at vertex {v}")
    ends: dict[tuple[int, int], None] = {}  # ordered, and the seen-set
    for k, e in enumerate(edges):
        if not isinstance(e, (list, tuple)) or len(e) != 3:
            raise ValueError(f"edge {k} must be a [u, v, cost] triple")
        u, v, c = e
        if not isinstance(u, int) or not isinstance(v, int) \
                or isinstance(u, bool) or isinstance(v, bool):
            raise ValueError(f"edge {k} has non-integer endpoint: "
                             f"{_quoted(e)}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {k} endpoint out of range: ({u}, {v})")
        if u == v:
            raise ValueError(f"edge {k} is a self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if (u, v) in ends:
            raise ValueError(f"parallel edge {k} between {u} and {v}")
        ends[u, v] = None
        a, q = (c, 1) if type(c) is int \
            else parse_rational(c).as_integer_ratio()
        if a < 0:
            raise ValueError(f"negative cost {Fraction(a, q)} on edge {k}")
        nums.append(a)
        dens.append(q)
    return tuple(ends), nums, dens


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
        doc = _load_json(text, parse_float=parse_rational,
                        parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid json: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except ValueError as exc:  # a number past parse_rational's or int's limits
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("json nested too deeply") from exc
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
        raise ParseError(f'"n" must be an integer, got {_quoted(n)}')
    if n > MAX_VERTICES:
        raise ParseError(f'"n" is {n}, more than {MAX_VERTICES} vertices')
    if not isinstance(doc["prizes"], list):
        raise ParseError('"prizes" must be a list')
    if not isinstance(doc["edges"], list):
        raise ParseError('"edges" must be a list')
    names = doc.get("names")
    if names is not None and not isinstance(names, list):
        raise ParseError('"names" must be a list of strings')
    try:
        return Instance(n, doc["edges"], doc["prizes"], names)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _json_list(items: list[str], depth: int) -> str:
    """A list of items, each already json text, laid out as
    json.dumps(..., indent=2) lays out a list depth levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json_text(obj, depth: int = 0) -> str:
    """obj as json.dumps(obj, indent=2) writes it, depth levels deep,
    for dicts with str keys, lists and scalars.  json.dumps with an
    indent runs the pure-Python encoder, whose nested functions form a
    reference cycle per call; the scalars here take the C encoder."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "\n" + "  " * (depth + 1)
        return "{" + pad + ("," + pad).join(
            f"{json.dumps(key)}: {_json_text(value, depth + 1)}"
            for key, value in obj.items()) + "\n" + "  " * depth + "}"
    if isinstance(obj, list):
        return _json_list([_json_text(item, depth + 1) for item in obj],
                          depth)
    return json.dumps(obj)


def _emit_json(inst: Instance) -> str:
    doc: dict = {
        "n": inst.n,
        "prizes": [rational_token(p) for p in inst.prizes],
        "edges": [[u, v, rational_token(c)] for u, v, c in inst.edges],
    }
    if inst.names is not None:
        doc["names"] = list(inst.names)
    return _json_text(doc) + "\n"


def _stp_int(token: str) -> int:
    """The stp rule for an integer token, a count, a vertex id or a cost
    or prize: ASCII digits only, so no sign, no underscore and no other
    script's digits.  Anything else is refused as int() refuses junk,
    quoted, and a run past int()'s digit limit as _int refuses it."""
    if token.isascii() and token.isdigit():
        return _int(token)
    raise ValueError("invalid literal for int() with base 10: "
                     + _quoted(token))


def _stp_number(token: str) -> int | Fraction:
    """A cost or prize token of an stp file: an int when it is ASCII
    digits, as a json int is, else parse_rational's Fraction (and its
    refusals)."""
    if len(token) <= MAX_TOKEN_CHARS:
        try:
            return _stp_int(token)
        except ValueError:  # not digits, or past int()'s digit limit
            pass
    return parse_rational(token)


def _parse_stp(text: str) -> Instance:
    n = None
    declared_m = None
    edges: list[tuple[int, int, int | Fraction]] = []
    prize_lines: dict[int, int | Fraction] = {}
    section = None
    saw_graph = False
    saw_eof = False

    def fail(msg: str):
        """Refuse the line being read."""
        raise ParseError(msg, line=lineno)

    def count(parts: list[str], line: str) -> int:
        if len(parts) == 2:
            try:
                return _stp_int(parts[1])
            except ValueError:  # not digits, or past int()'s digit limit
                pass
        fail(f"bad {parts[0]} line {_quoted(line)}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if saw_eof:
            fail("content after EOF")
        parts = line.split()
        key = parts[0]
        if key == "SECTION":
            if len(parts) != 2 or parts[1] not in ("Graph", "Terminals"):
                fail(f"unknown section in {_quoted(line)}")
            if section is not None:
                fail("nested SECTION")
            section = parts[1]
            if section == "Graph":
                if saw_graph:
                    fail("duplicate Graph section")
                saw_graph = True
            elif not saw_graph:
                fail("Terminals section before Graph section")
            continue
        if key == "END":
            if section is None:
                fail("END outside a section")
            section = None
            continue
        if key == "EOF":
            if section is not None:
                fail("EOF inside a section")
            saw_eof = True
            continue
        if section == "Graph":
            if key == "Nodes":
                if n is not None:
                    fail("duplicate Nodes line")
                n = count(parts, line)
                if n > MAX_VERTICES:
                    fail(f"Nodes {n} is more than {MAX_VERTICES} vertices")
            elif key == "Edges":
                if declared_m is not None:
                    fail("duplicate Edges line")
                declared_m = count(parts, line)
            elif key == "E":
                if len(parts) != 4:
                    fail(f"bad edge line {_quoted(line)}")
                if n is None:
                    fail("edge line before Nodes line")
                try:
                    u, v = _stp_int(parts[1]), _stp_int(parts[2])
                    cost = _stp_number(parts[3])
                except ValueError as exc:
                    fail(str(exc))
                if not (1 <= u <= n and 1 <= v <= n):
                    fail(f"edge endpoint out of range in {_quoted(line)}")
                edges.append((u - 1, v - 1, cost))
            else:
                fail(f"unknown line {_quoted(line)} in Graph section")
        elif section == "Terminals":
            if key != "TP" or len(parts) != 3:
                fail(f"unknown line {_quoted(line)} in Terminals section")
            try:
                v = _stp_int(parts[1])
                prize = _stp_number(parts[2])
            except ValueError as exc:
                fail(str(exc))
            if n is None or not (1 <= v <= n):
                fail(f"terminal vertex out of range in {_quoted(line)}")
            if v - 1 in prize_lines:
                fail(f"duplicate prize for vertex {v}")
            prize_lines[v - 1] = prize
        else:
            fail(f"unexpected line {_quoted(line)} outside any section")

    if not saw_eof:
        raise ParseError("missing EOF line")
    if n is None:
        raise ParseError("missing Nodes line")
    if declared_m is not None and declared_m != len(edges):
        raise ParseError(f"Edges line declares {declared_m} edges "
                         f"but {len(edges)} E lines found")
    prizes = tuple(prize_lines.get(v, 0) for v in range(n))
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
        ((0, 1, 2), (0, 2, 2)),
        (10, leaf, leaf),
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
    prizes = (10 * k,) + (tail,) * k
    edges = tuple((i, i + 1, 2) for i in range(k))
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
                edges.append((u, v, rng.randint(0, max_cost)))
    prizes = tuple(rng.randint(0, max_prize) for _ in range(n))
    return Instance(n, tuple(edges), prizes)
