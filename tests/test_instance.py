"""Instance model, rational tokens, both file formats, generators."""
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcst import (FORMATS, Instance, ParseError, approx_decimal,
                  emit_instance, format_rational, gen_random, gen_tight_path,
                  gen_tight_star, parse_instance, parse_rational,
                  rational_token)
from pcst import instance
from pcst.instance import (MAX_SCALE_BITS, MAX_TOTAL_BITS, MAX_VERTICES,
                           rational_token)

rationals = st.fractions(
    min_value=0, max_value=1000,
    max_denominator=10 ** 6)


# -- rational tokens ----------------------------------------------------------


@pytest.mark.parametrize("token, expected", [
    ("5/2", Fraction(5, 2)),
    ("2.5", Fraction(5, 2)),
    ("0.1", Fraction(1, 10)),
    ("3", Fraction(3)),
    ("  7/3 ", Fraction(7, 3)),
    ("1.5e2", Fraction(150)),
    (4, Fraction(4)),
    (Fraction(9, 4), Fraction(9, 4)),
    ("-3/4", Fraction(-3, 4)),
])
def test_parse_rational_exact(token, expected):
    got = parse_rational(token)
    assert got == expected
    assert isinstance(got, Fraction)


@pytest.mark.parametrize("token", [2.5, float("nan"), "1/0", "abc", "",
                                   None, True, [1, 2], "1e4000000",
                                   "1.5E-1_001",
                                   pytest.param("1" * 10_001,
                                                id="10001-digits")])
def test_parse_rational_rejects(token):
    with pytest.raises(ValueError):
        parse_rational(token)


@pytest.mark.parametrize("token, message", [
    ("x" * 38, "not a rational token: '" + "x" * 38 + "'"),
    ("x" * 39, "not a rational token: '" + "x" * 39 + "... (39 characters)"),
    ("1" * 5000,
     "integer '" + "1" * 39 + "... (5000 characters) has more than 4300 "
     "digits"),
    ([1] * 20, "not a rational token: [" + "1, " * 13 + "... (60 characters)"),
    ("1e4000000", "exponent of '1e4000000' exceeds 1000 in magnitude"),
    (" 1e" + "9" * 60,
     "exponent of '1e" + "9" * 37 + "... (62 characters) exceeds 1000 in "
     "magnitude"),
], ids=["repr-40", "repr-41", "5000-digits", "long-list", "exponent",
        "long-exponent"])
def test_parse_rational_quotes_at_most_40_characters(token, message):
    """A refusal quotes a token whose repr runs to 40 characters whole,
    and of a longer one the first 40 and the token's length, so that a
    10,000-character token makes a short message."""
    with pytest.raises(ValueError) as refusal:
        parse_rational(token)
    assert str(refusal.value) == message


DIGIT_ALPHABETS = ("0123456789",
                   "".join(map(chr, range(0x660, 0x66a))),  # Arabic-Indic
                   "\u00b9\u00b2\u00b3")  # superscripts: isdigit, not \d


def sweep_tokens() -> list[str]:
    """Number tokens of every shape the reader meets, from a fixed seed:
    canonical and not in lowest terms, signed, padded with spaces, with
    underscores, decimals and exponents, in three digit alphabets, with
    runs of 1 to 4301 digits.  Exponents stay within MAX_EXPONENT."""
    rng = random.Random(30)
    tokens = ["1/0", "", "/", "1//2", "0/1", "1e" + "0" * 4301 + "1"]
    for digits in DIGIT_ALPHABETS:
        def run(length):
            return "".join(rng.choice(digits) for _ in range(length))
        for length in (1, 3, 12, 4300, 4301):
            a, b, c = run(length), run(rng.randint(1, 3)), run(1)
            tokens += [a, f"{a}/{b}", f"{a}/{a}", f"{b}/{a}", f"+{a}",
                       f"-{a}/{b}", f" {a} ", f"{a}/{b} ", f"{a}.{b}",
                       f"{b}.{a}", f"{a}e{c}", f"{b}E-{c}", f"{a}_{b}",
                       f"{b}_{a}/{b}", f"{a}e+{c}_{c}"]
    return tokens


@pytest.mark.parametrize("int_digits", [4300, 640, 0])
def test_reader_agrees_with_fraction_token_by_token(int_digits):
    """instance._ratio, the one number reader, against Fraction(text)
    under three int() digit limits: a token Fraction reads is read to
    its value in lowest terms; one whose digit run Fraction cannot turn
    into an int is refused in one line that names the limit; any other
    that Fraction refuses is refused in one line."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(int_digits)
    try:
        for token in sweep_tokens():
            try:
                want = Fraction(token)
            except (ValueError, ZeroDivisionError) as exc:
                want = exc
            try:
                p, q = instance._ratio(token)
            except ValueError as exc:
                got = str(exc)
                assert "\n" not in got and len(got) < 200, token
                assert not isinstance(want, Fraction), token
                if "Exceeds the limit" in str(want):
                    assert got.endswith(f"has more than {int_digits} "
                                        "digits"), token
                continue
            assert isinstance(want, Fraction), token
            assert (p, q) == want.as_integer_ratio(), token
    finally:
        sys.set_int_max_str_digits(limit)


def test_format_rational_canonical():
    assert format_rational(Fraction(4)) == "4/1"
    assert format_rational(Fraction(-6, 4)) == "-3/2"
    assert format_rational(Fraction(0)) == "0/1"


def test_rational_token_compact():
    assert rational_token(Fraction(4)) == 4
    assert rational_token(Fraction(1, 2)) == "1/2"


def test_approx_decimal():
    assert approx_decimal(Fraction(5, 2)) == "2.5"
    assert approx_decimal(Fraction(1, 3)) == "0.333333"


@given(rationals)
def test_parse_format_round_trip(x):
    assert parse_rational(format_rational(x)) == x
    assert parse_rational(str(rational_token(x))) == x


# -- instance validation -------------------------------------------------------


def test_instance_normalizes_endpoint_order():
    inst = Instance(3, ((2, 0, Fraction(1)),), (0, 0, 0))
    assert inst.edges == ((0, 2, Fraction(1)),)


def test_instance_coerces_tokens():
    inst = Instance(2, ((0, 1, "1/2"),), ("3", 4))
    assert inst.edges[0][2] == Fraction(1, 2)
    assert inst.prizes == (Fraction(3), Fraction(4))


@pytest.mark.parametrize("kwargs", [
    dict(n=0, edges=(), prizes=()),
    dict(n=2, edges=((0, 0, 1),), prizes=(0, 0)),
    dict(n=2, edges=((0, 1, 1), (1, 0, 2)), prizes=(0, 0)),
    dict(n=2, edges=((0, 2, 1),), prizes=(0, 0)),
    dict(n=2, edges=((0, 1, -1),), prizes=(0, 0)),
    dict(n=2, edges=(), prizes=(0, -1)),
    dict(n=2, edges=(), prizes=(0,)),
    dict(n=2, edges=((0, 1),), prizes=(0, 0)),
    dict(n=2, edges=(), prizes=(0, 0), names=("a",)),
])
def test_instance_rejects_malformed(kwargs):
    with pytest.raises(ValueError):
        Instance(**kwargs)


def test_names_do_not_affect_equality():
    a = Instance(2, (), (1, 2), names=("x", "y"))
    b = Instance(2, (), (1, 2))
    assert a == b
    # equality and hash read the numbers, whatever token wrote them
    one = ("1", "2/2", "1.0", Fraction(1))
    half = ("1/2", "2/4", "0.5", Fraction(1, 2))
    base = Instance(3, ((0, 1, 1), (1, 2, Fraction(1, 2))), (1, "1/2", 0))
    for c, h in zip(one, half):
        same = Instance(3, ((1, 0, c), (2, 1, h)), (c, h, 0))
        assert same == base and hash(same) == hash(base), (c, h)
    for edges, prizes in [(((0, 1, 2), (1, 2, "1/2")), (1, "1/2", 0)),
                          (((0, 1, 1), (1, 2, "1/3")), (1, "1/2", 0)),
                          (((0, 1, 1), (1, 2, "1/2")), (1, "1/2", 1)),
                          (((0, 1, 1), (0, 2, "1/2")), (1, "1/2", 0))]:
        assert Instance(3, edges, prizes) != base, (edges, prizes)


def test_int_tokens_build_no_fraction(monkeypatch):
    """An int-only instance is parsed from either format and generated
    without a single Fraction: its ints are its numbers at scale 2."""
    p = Fraction(1, 250)
    inst = gen_random(1000, p, max_cost=10, max_prize=8, seed=99)
    texts = {fmt: emit_instance(inst, fmt) for fmt in FORMATS}
    built = []

    def counted(*args, real=Fraction.__new__, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    parsed = {fmt: parse_instance(text, fmt) for fmt, text in texts.items()}
    assert built == []
    generated = gen_random(1000, p, max_cost=10, max_prize=8, seed=99)
    assert built == []
    monkeypatch.undo()
    assert generated.m > 1000 and generated.scale == 2
    assert parsed == {fmt: generated for fmt in FORMATS}


def test_prize_total():
    inst = Instance(3, (), ("1/2", "1/3", 0))
    assert Fraction(sum(inst.scaled_prizes), inst.scale) == Fraction(5, 6)


# -- json format ---------------------------------------------------------------


def test_json_decimals_parse_exactly():
    inst = parse_instance('{"n": 1, "prizes": [0.1], "edges": []}')
    assert inst.prizes[0] == Fraction(1, 10)


def test_json_rational_strings():
    inst = parse_instance(
        '{"n": 2, "prizes": ["5/2", 1], "edges": [[0, 1, "1/3"]]}')
    assert inst.prizes[0] == Fraction(5, 2)
    assert inst.edges[0][2] == Fraction(1, 3)


JSON_REJECTS = {  # document: what the error says
    "[]": "top-level json value must be an object",
    "{": "invalid json",
    '{"n": 2, "prizes": [0, 0]}': "missing required key 'edges'",
    '{"n": 2, "prizes": [0, 0], "edges": [], "bogus": 1}': "unknown keys",
    '{"n": "2", "prizes": [0, 0], "edges": []}': '"n" must be an integer',
    '{"n": 2, "prizes": [0, 0], "edges": [[0, 1]]}':
        "edge 0 must be a [u, v, cost] triple",
    '{"n": 2, "prizes": [0, 0], "edges": [{"u": 0, "v": 1, "cost": 1}]}':
        "edge 0 must be a [u, v, cost] triple",
    '{"n": 2, "prizes": [0, 0], "edges": ["011"]}':
        "edge 0 must be a [u, v, cost] triple",
    '{"n": 2, "prizes": [0, 0], "edges": [[0, 1, 1, 1]]}':
        "edge 0 must be a [u, v, cost] triple",
    '{"n": 2, "prizes": [0, 0], "edges": [[0, 1, 1], [0, 1, 2]]}':
        "parallel edge 1",
    '{"n": 1, "prizes": [Infinity], "edges": []}': "non-finite number",
    '{"n": 1, "prizes": [-1], "edges": []}': "negative prize -1",
    '{"n": 1, "prizes": [1e4000000], "edges": []}': "exponent",
    '{"n": 1, "prizes": [1%s], "edges": []}' % ("0" * 5000):
        "(5001 characters) has more than 4300 digits",
    '{"n": 1, "prizes": 0, "edges": []}': '"prizes" must be a list',
    '{"n": 1, "prizes": [0], "edges": {}}': '"edges" must be a list',
    '{"n": 1, "prizes": [0], "edges": [], "names": "a"}':
        '"names" must be a list of strings',
    '{"n": 2, "prizes": [0, 0], "edges": [], "names": [1, {"a": [2]}]}':
        '"names" must be a list of strings',
    '{"n": 2, "prizes": [0, 0], "edges": [], "names": [null, true]}':
        '"names" must be a list of strings',
    '{"n": 2, "prizes": [0, 0], "edges": [], "names": ["a", 2]}':
        '"names" must be a list of strings',
}


@pytest.mark.parametrize(
    "text", JSON_REJECTS,
    ids=lambda text: "5001-digit-int" if len(text) > 5000 else None)
def test_json_rejects_malformed(text):
    with pytest.raises(ParseError, match=re.escape(JSON_REJECTS[text])):
        parse_instance(text)


def test_json_error_carries_location():
    err = None
    try:
        parse_instance('{"n": 1,\n "prizes": [0]\n "edges": []}')
    except ParseError as exc:
        err = exc
    assert err is not None
    assert err.line == 3
    assert "line 3" in str(err)


def test_json_round_trip_with_names():
    inst = Instance(2, ((0, 1, "7/2"),), ("1/3", 0), names=("a", "b"))
    back = parse_instance(emit_instance(inst, "json"), "json")
    assert back == inst
    assert back.names == ("a", "b")


@pytest.mark.parametrize("inst", [
    Instance(1, (), (0,)),
    Instance(3, ((0, 1, 4), (1, 2, 0)), (2, 5, 7)),
    Instance(2, ((0, 1, "7/2"),), ("1/3", 0), names=("a", "b")),
    Instance(3, ((0, 2, "1/6"),), (1, "22/7", 3),
             names=("h\u00e9", 'q"uote', "")),
], ids=["single", "ints", "ratios-names", "escapes"])
def test_json_emission_is_the_indent_2_layout(inst):
    """gen's writer gives json.dumps(doc, indent=2)'s bytes, without
    its pure-Python encoder: int tokens, "p/q" tokens and names."""
    doc = {"n": inst.n,
           "prizes": [rational_token(p) for p in inst.prizes],
           "edges": [[u, v, rational_token(c)] for u, v, c in inst.edges]}
    if inst.names is not None:
        doc["names"] = list(inst.names)
    assert emit_instance(inst, "json") == json.dumps(doc, indent=2) + "\n"


# -- stp format ----------------------------------------------------------------


STP_SAMPLE = """\
# comment line
SECTION Graph
Nodes 3
Edges 2
E 1 2 5/2
E 2 3 1
END

SECTION Terminals
TP 1 7
TP 3 0.5
END
EOF
"""


def test_stp_parse():
    inst = parse_instance(STP_SAMPLE, "stp")
    assert inst.n == 3
    assert inst.edges == ((0, 1, Fraction(5, 2)), (1, 2, Fraction(1)))
    assert inst.prizes == (Fraction(7), Fraction(0), Fraction(1, 2))
    # a leading zero is still ASCII digits
    assert parse_instance(STP_SAMPLE.replace("E 1 2", "E 01 2"), "stp") == inst


@pytest.mark.parametrize("mutation, lineno", [
    ("E 1 2", 5),
    ("E 1 9 1", 5),
    ("TP 9 1", 10),
    ("bogus", 3),
])
def test_stp_errors_carry_line_numbers(mutation, lineno):
    lines = STP_SAMPLE.splitlines()
    lines[lineno - 1] = mutation
    with pytest.raises(ParseError) as info:
        parse_instance("\n".join(lines), "stp")
    assert info.value.line == lineno


@pytest.mark.parametrize("mutation", [
    ("Edges 2", "Edges 3", "Edges line declares 3 edges but 2 E lines"),
    ("EOF", "", "missing EOF line"),
    ("TP 3 0.5", "TP 1 1", "duplicate prize for vertex 1"),
    ("EOF", "EOF\nTP 2 1", "content after EOF"),
    ("SECTION Terminals", "SECTION Steiner", "unknown section"),
    ("SECTION Terminals", "SECTION Graph", "duplicate Graph section"),
    ("SECTION Graph", "SECTION Terminals",
     "Terminals section before Graph section"),
    ("# comment line", "END", "END outside a section"),
    ("Nodes 3\n", "", "edge line before Nodes line"),
    (STP_SAMPLE, "SECTION Graph\nEND\nEOF\n", "missing Nodes line"),
])
def test_stp_consistency_errors(mutation):
    old, new, message = mutation
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_instance(STP_SAMPLE.replace(old, new), "stp")


def test_stp_round_trip():
    for seed in range(10):
        inst = gen_random(6, "1/2", max_cost=9, max_prize=5, seed=seed)
        back = parse_instance(emit_instance(inst, "stp"), "stp")
        assert back == inst


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        parse_instance("{}", "xml")
    with pytest.raises(ValueError):
        emit_instance(Instance(1, (), (0,)), "xml")


# -- fuzzing: every input parses or is refused with the parser's error ------

# numeric tokens: plain and exotic spellings, long digit runs on both
# sides of Python's 4300-digit int() limit, exponents on both sides of
# MAX_EXPONENT
digit_runs = st.integers(1, 12_000).map(lambda k: "7" * k)
numeric_tokens = st.one_of(
    st.from_regex(r"[-+]?\d{0,6}(\.\d{0,6})?([eE][-+]?\d{1,7})?"
                  r"(/[-+]?\d{0,4})?", fullmatch=True),
    digit_runs,
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-10**6, 10**6)),
    st.sampled_from(["1_000", "0x10", "nan", "inf", "1/0", " 3/4 ", "½",
                     "٣", "1e", "e5", "--1", "1..2", "\x00"]),
)


@given(st.one_of(numeric_tokens, st.text(max_size=40)))
def test_parse_rational_parses_or_raises_value_error(token):
    try:
        value = parse_rational(token)
    except ValueError:
        return
    assert isinstance(value, Fraction)


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=6),
    numeric_tokens)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["n", "prizes", "edges", "names",
                                         "x"]), inner, max_size=4)),
    max_leaves=12)
# raw json number literals are written into the text as they are
json_literals = st.one_of(st.integers(-3, 12).map(str), digit_runs,
                          st.from_regex(r"-?\d{1,3}(\.\d{1,3})?"
                                        r"([eE][-+]?\d{1,7})?",
                                        fullmatch=True))


@st.composite
def instance_shaped_json(draw):
    n = draw(st.one_of(json_literals, json_values.map(json.dumps)))
    items = st.one_of(json_literals, json_values.map(json.dumps))
    prizes = draw(st.lists(items, max_size=4))
    edges = draw(st.lists(
        st.lists(items, min_size=2, max_size=4).map(
            lambda parts: "[" + ", ".join(parts) + "]"),
        max_size=4))
    return '{"n": %s, "prizes": [%s], "edges": [%s]}' % (
        n, ", ".join(prizes), ", ".join(edges))


@given(st.one_of(st.text(max_size=200), json_values.map(json.dumps),
                 instance_shaped_json()))
def test_parse_json_parses_or_raises_parse_error(text):
    try:
        inst = parse_instance(text, "json")
    except ParseError:
        return
    assert isinstance(inst, Instance)


# small vertex numbers and counts, counts past MAX_VERTICES, or digit
# runs past int()'s limit
stp_ints = st.one_of(st.integers(-2, 9).map(str),
                     st.integers(MAX_VERTICES + 1, 10**13).map(str),
                     st.integers(4_301, 5_000).map(lambda k: "9" * k),
                     st.sampled_from(["", "x", "1.5", "²", "٣"]))
stp_lines = st.one_of(
    st.sampled_from(["SECTION Graph", "SECTION Terminals", "SECTION Other",
                     "END", "EOF", "# note", ""]),
    st.builds("Nodes {}".format, stp_ints),
    st.builds("Edges {}".format, stp_ints),
    st.builds("E {} {} {}".format, stp_ints, stp_ints, numeric_tokens),
    st.builds("TP {} {}".format, stp_ints, numeric_tokens),
    st.text(max_size=20),
)


@given(st.one_of(
    st.text(max_size=200),
    st.lists(stp_lines, max_size=14).map("\n".join),
    # a valid skeleton with fuzzed lines spliced into it
    st.tuples(st.lists(stp_lines, max_size=3), st.lists(stp_lines, max_size=3))
    .map(lambda parts: "\n".join(["SECTION Graph", "Nodes 3", *parts[0],
                                   "E 1 2 1", "END", "SECTION Terminals",
                                   *parts[1], "TP 1 2", "END", "EOF"]))))
def test_parse_stp_parses_or_raises_parse_error(text):
    try:
        inst = parse_instance(text, "stp")
    except ParseError:
        return
    assert isinstance(inst, Instance)


@pytest.mark.parametrize("old, new", [
    ("Nodes 3", "Nodes " + "9" * 5000),
    ("Edges 2", "Edges " + "9" * 5000),
    ("Nodes 3", "Nodes ²"),  # a digit to isdigit(), not to int()
])
def test_stp_bad_counts_are_parse_errors(old, new):
    with pytest.raises(ParseError, match="bad"):
        parse_instance(STP_SAMPLE.replace(old, new), "stp")


@pytest.mark.parametrize("old, new, message", [
    ("E 2 3 1", "E 1_0 2 3", "invalid literal for int() with base 10: '1_0'"),
    ("E 2 3 1", "E +2 1 3", "invalid literal for int() with base 10: '+2'"),
    ("E 2 3 1", "E ٣ 1 3", "invalid literal for int() with base 10: '٣'"),
    ("TP 3 0.5", "TP ٣ 4", "invalid literal for int() with base 10: '٣'"),
    ("TP 3 0.5", "TP +1 4", "invalid literal for int() with base 10: '+1'"),
    ("Nodes 3", "Nodes ٣", "bad Nodes line 'Nodes ٣'"),
    ("Edges 2", "Edges ٢", "bad Edges line 'Edges ٢'"),
])
def test_stp_integers_are_ascii_digits(old, new, message):
    """Counts and vertex ids pass one rule, ASCII digits: int() alone
    reads 1_0 as 10, +2 as 2 and an Arabic-Indic ٣ as 3."""
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse_instance(STP_SAMPLE.replace(old, new), "stp")
    assert info.value.line == STP_SAMPLE.splitlines().index(old) + 1


def test_vertex_counts_past_the_limit_are_parse_errors():
    with pytest.raises(ParseError, match="more than 1000000 vertices") as exc:
        parse_instance(STP_SAMPLE.replace("Nodes 3", "Nodes 1000001"), "stp")
    assert exc.value.line is not None
    with pytest.raises(ParseError, match="more than 1000000 vertices"):
        parse_instance('{"n": 1000001, "prizes": [], "edges": []}')


def two_vertex_texts(prizes, cost) -> dict:
    """A two-vertex instance in both formats, written from its tokens."""
    stp = ("SECTION Graph\nNodes 2\nEdges 1\nE 1 2 %s\nEND\n"
           "SECTION Terminals\nTP 1 %s\nTP 2 %s\nEND\nEOF\n"
           % (cost, *prizes))
    return {"json": json.dumps({"n": 2, "prizes": list(prizes),
                                "edges": [[0, 1, cost]]}),
            "stp": stp}


@pytest.mark.parametrize("int_digits", [4300, 0])
@pytest.mark.parametrize("token", [
    "7", "007", "1" * 4000, "1" * 4301, "1" * 10_001, "\u0663", "+7", "1_0",
    "7.0", "14/2", "x"], ids=lambda token: f"{len(token)}-digits"
    if len(token) > 9 else None)
def test_stp_numbers_read_as_parse_rational_reads_them(token, int_digits):
    """An stp cost token of ASCII digits becomes an int, any other goes
    through parse_rational.  Either way the instance is the one with
    parse_rational's value, or the refusal is parse_rational's with its
    line number or the instance's, also with int()'s digit limit
    lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(int_digits)
    try:
        try:
            value = parse_rational(token)
        except ValueError as exc:
            expected = f"{exc} (line 4)"
        else:
            try:
                expected = Instance(2, ((0, 1, value),), (1, 1))
            except ValueError as exc:
                expected = str(exc)
        try:
            got = parse_instance(two_vertex_texts((1, 1), token)["stp"],
                                 "stp")
        except ParseError as exc:
            got = str(exc)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected


HALF_SCALE = 2 ** (MAX_SCALE_BITS // 2)
BUDGET_CASES = {
    # name: (prizes, cost, why the instance is refused or None)
    # twice the lcm 2**k has k + 1 bits
    "scale-at-limit": ((1, 1), f"1/{2 ** (MAX_SCALE_BITS - 2)}", None),
    # two coprime denominators of half the budget
    "scale-past-limit": ((f"1/{HALF_SCALE + 1}", 1), f"1/{HALF_SCALE - 1}",
                         f"needs more than {MAX_SCALE_BITS} bits"),
    # at scale 2, the scaled total is 2 * (cost + 2 * prizes)
    "total-at-limit": ((1, 2 ** (MAX_TOTAL_BITS - 4) - 1),
                       2 ** (MAX_TOTAL_BITS - 3), None),
    "total-past-limit": ((1, 2 ** (MAX_TOTAL_BITS - 2)),
                         2 ** (MAX_TOTAL_BITS - 3),
                         f"needs {MAX_TOTAL_BITS + 1} bits, more than "
                         f"{MAX_TOTAL_BITS}$"),
}


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_instances_past_the_budget_are_refused(name):
    """An instance is refused when its scale needs more than
    MAX_SCALE_BITS bits or its scaled total more than MAX_TOTAL_BITS,
    by the Instance type and by both parsers; one at the limits is
    not."""
    prizes, cost, refusal = BUDGET_CASES[name]
    texts = two_vertex_texts(prizes, cost)
    if refusal is None:
        inst = Instance(2, ((0, 1, cost),), prizes)
        assert inst.scale.bit_length() <= MAX_SCALE_BITS
        for fmt in FORMATS:
            assert parse_instance(texts[fmt], fmt) == inst
        return
    with pytest.raises(ValueError, match=refusal):
        Instance(2, ((0, 1, cost),), prizes)
    for fmt in FORMATS:
        with pytest.raises(ParseError, match=refusal):
            parse_instance(texts[fmt], fmt)


@given(rationals, st.lists(st.tuples(rationals, rationals), max_size=6))
def test_scaled_ints_are_the_numbers_at_the_scale(root_prize, hung):
    """Vertex k + 1 has prize hung[k][0] and hangs off vertex k by an
    edge of cost hung[k][1].  The instance's scaled ints are its costs
    and prizes times its scale, and both formats carry them unchanged."""
    inst = Instance(len(hung) + 1,
                    tuple((k, k + 1, c) for k, (_, c) in enumerate(hung)),
                    (root_prize,) + tuple(p for p, _ in hung))
    scaled = (inst.scaled_costs, inst.scaled_prizes)
    assert all(type(x) is int for xs in scaled for x in xs)
    assert scaled == (tuple(c * inst.scale for _, _, c in inst.edges),
                      tuple(p * inst.scale for p in inst.prizes))
    for fmt in FORMATS:
        back = parse_instance(emit_instance(inst, fmt), fmt)
        assert (back.scale, back.scaled_costs, back.scaled_prizes) == \
            (inst.scale, *scaled), fmt


# -- the column path and the per-edge walk agree --------------------------------


def seeded_int_input(seed: int) -> tuple:
    """n, edges as [u, v, cost] lists with u < v and prizes, all ints."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pairs = rng.sample(pairs, rng.randint(1, len(pairs)))
    edges = [[u, v, rng.randint(0, 9)] for u, v in pairs]
    return n, edges, [rng.randint(0, 9) for _ in range(n)]


def either_path(monkeypatch, make) -> list:
    """make() as it runs, then with the column path declining so that
    the per-edge walk reads every input: per run, the instance's fields
    and hash, or the error's type and message."""
    outcomes = []
    for walk_only in (False, True):
        with monkeypatch.context() as patch:
            if walk_only:
                patch.setattr(instance, "_int_columns", lambda *args: None)
            try:
                inst = make()
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
                continue
        outcomes.append((inst.n, inst.ends, inst.scale, inst.scaled_costs,
                         inst.scaled_prizes, hash(inst)))
    return outcomes


def _set_end(value):
    def corrupt(rng, n, edges, prizes):
        rng.choice(edges)[rng.randrange(2)] = value(rng, n)
    return corrupt


def _set_cost(value):
    def corrupt(rng, n, edges, prizes):
        rng.choice(edges)[2] = value
    return corrupt


def _set_prize(value):
    def corrupt(rng, n, edges, prizes):
        prizes[rng.randrange(n)] = value
    return corrupt


def _replace_edge(make):
    def corrupt(rng, n, edges, prizes):
        k = rng.randrange(len(edges))
        edges[k] = make(rng, edges[k])
    return corrupt


def _parallel(reverse: bool):
    def corrupt(rng, n, edges, prizes):
        u, v, _ = rng.choice(edges)
        if reverse:
            u, v = v, u
        edges.insert(rng.randint(0, len(edges)), [u, v, rng.randint(0, 9)])
    return corrupt


CORRUPTIONS = {  # name: corrupt(rng, n, edges, prizes) in place
    "none": lambda *args: None,
    "bool-endpoint": _set_end(lambda rng, n: rng.choice([True, False])),
    "bool-cost": _set_cost(True),
    "bool-prize": _set_prize(False),
    "u-above-v": _replace_edge(lambda rng, e: [e[1], e[0], e[2]]),
    "parallel": _parallel(reverse=False),
    "parallel-reversed": _parallel(reverse=True),
    "self-loop": _replace_edge(lambda rng, e: [e[0], e[0], e[2]]),
    "endpoint-n": _set_end(lambda rng, n: n),
    "endpoint-negative": _set_end(lambda rng, n: -1),
    "negative-cost": _set_cost(-3),
    "negative-prize": _set_prize(-2),
    "two-item-edge": _replace_edge(lambda rng, e: e[:2]),
    "four-item-edge": _replace_edge(lambda rng, e: e + [1]),
    "non-list-edge": _replace_edge(lambda rng, e: rng.choice(
        ["011", {"u": e[0], "v": e[1], "cost": e[2]}, 7, None])),
    "ratio-cost": _set_cost("1/3"),
    "missing-prize": lambda rng, n, edges, prizes: prizes.pop(),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_column_path_and_walk_agree(name, monkeypatch):
    """On seeded int-only inputs, corrupted or not, Instance gives the
    instance or the error the per-edge walk alone gives, from lists,
    tuples and one-shot iterators and through the json parser; the
    column path reads every clean input."""
    for seed in range(25):
        n, edges, prizes = seeded_int_input(seed)
        if name == "none":
            assert instance._int_columns(n, edges, prizes) is not None
        CORRUPTIONS[name](random.Random(seed), n, edges, prizes)
        text = json.dumps({"n": n, "prizes": prizes, "edges": edges})
        makes = [
            lambda: Instance(n, edges, prizes),
            lambda: Instance(n, tuple(tuple(e) if isinstance(e, list) else e
                                      for e in edges), tuple(prizes)),
            lambda: Instance(n, (e for e in edges), prizes),
            lambda: Instance(n, edges, iter(prizes)),
            lambda: parse_instance(text),
        ]
        for make in makes:
            outcomes = either_path(monkeypatch, make)
            assert outcomes[0] == outcomes[1], (seed, outcomes)


@pytest.mark.parametrize("name", sorted(BUDGET_CASES))
def test_column_path_and_walk_agree_at_the_budget(name, monkeypatch):
    prizes, cost, _ = BUDGET_CASES[name]
    texts = two_vertex_texts(prizes, cost)
    for make in [lambda: Instance(2, [[0, 1, cost]], list(prizes)),
                 *(lambda fmt=fmt: parse_instance(texts[fmt], fmt)
                   for fmt in FORMATS)]:
        outcomes = either_path(monkeypatch, make)
        assert outcomes[0] == outcomes[1]


def test_deeply_nested_json_is_a_parse_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_instance('{"n": 1, "prizes": %s, "edges": []}' % deep)


# -- generators ----------------------------------------------------------------


def test_tight_star_shape():
    inst = gen_tight_star("1/100")
    assert inst.n == 3
    assert inst.edges == ((0, 1, Fraction(2)), (0, 2, Fraction(2)))
    assert inst.prizes == (Fraction(10), Fraction(201, 200),
                           Fraction(201, 200))


@pytest.mark.parametrize("rho", [0, 2, "5/2", -1])
def test_tight_star_rejects_bad_rho(rho):
    with pytest.raises(ValueError):
        gen_tight_star(rho)


def test_tight_path_shape():
    inst = gen_tight_path(4, "1/2")
    assert inst.n == 5
    assert inst.prizes[0] == Fraction(40)
    assert set(inst.prizes[1:]) == {1 + Fraction(1, 8)}
    assert inst.edges == tuple((i, i + 1, Fraction(2)) for i in range(4))


def test_tight_path_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_tight_path(1, "1/2")
    with pytest.raises(ValueError):
        gen_tight_path(4, "7/2")


def test_gen_random_deterministic():
    a = gen_random(9, "1/2", max_cost=7, max_prize=5, seed=3)
    b = gen_random(9, "1/2", max_cost=7, max_prize=5, seed=3)
    c = gen_random(9, "1/2", max_cost=7, max_prize=5, seed=4)
    assert a == b
    assert a != c


def test_gen_random_probability_extremes():
    empty = gen_random(6, 0, max_cost=5, max_prize=5, seed=1)
    assert empty.m == 0
    full = gen_random(6, 1, max_cost=5, max_prize=5, seed=1)
    assert full.m == 15


def test_gen_random_bounds():
    inst = gen_random(30, "2/3", max_cost=4, max_prize=3, seed=11)
    assert all(0 <= c <= 4 for _, _, c in inst.edges)
    assert all(0 <= p <= 3 for p in inst.prizes)


def test_gen_random_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_random(0, "1/2", max_cost=1, max_prize=1, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, "3/2", max_cost=1, max_prize=1, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, "1/2", max_cost=-1, max_prize=1, seed=0)
