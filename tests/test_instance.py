"""Instance model, rational tokens, both file formats, generators."""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcst import (Instance, ParseError, approx_decimal, emit_instance,
                  format_rational, gen_random, gen_tight_path,
                  gen_tight_star, parse_instance, parse_rational,
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


def test_adjacency():
    inst = Instance(3, ((0, 1, 1), (1, 2, 2)), (0, 0, 0))
    assert inst.adjacency() == [[(1, 0)], [(0, 0), (2, 1)], [(1, 1)]]


def test_prize_total():
    inst = Instance(3, (), ("1/2", "1/3", 0))
    assert inst.prize_total() == Fraction(5, 6)


# -- json format ---------------------------------------------------------------


def test_json_decimals_parse_exactly():
    inst = parse_instance('{"n": 1, "prizes": [0.1], "edges": []}')
    assert inst.prizes[0] == Fraction(1, 10)


def test_json_rational_strings():
    inst = parse_instance(
        '{"n": 2, "prizes": ["5/2", 1], "edges": [[0, 1, "1/3"]]}')
    assert inst.prizes[0] == Fraction(5, 2)
    assert inst.edges[0][2] == Fraction(1, 3)


@pytest.mark.parametrize("text", [
    "[]",
    "{",
    '{"n": 2, "prizes": [0, 0]}',
    '{"n": 2, "prizes": [0, 0], "edges": [], "bogus": 1}',
    '{"n": "2", "prizes": [0, 0], "edges": []}',
    '{"n": 2, "prizes": [0, 0], "edges": [[0, 1]]}',
    '{"n": 2, "prizes": [0, 0], "edges": [[0, 1, 1], [0, 1, 2]]}',
    '{"n": 1, "prizes": [Infinity], "edges": []}',
    '{"n": 1, "prizes": [-1], "edges": []}',
    '{"n": 1, "prizes": [1e4000000], "edges": []}',
    pytest.param('{"n": 1, "prizes": [1%s], "edges": []}' % ("0" * 5000),
                 id="5001-digit-int"),
])
def test_json_rejects_malformed(text):
    with pytest.raises(ParseError):
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
    ("Edges 2", "Edges 3"),
    ("EOF", ""),
    ("TP 3 0.5", "TP 1 1"),
])
def test_stp_consistency_errors(mutation):
    old, new = mutation
    with pytest.raises(ParseError):
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
