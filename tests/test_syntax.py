"""Parser, shape validation, and pretty-printer round trips."""

import pytest

from gr1report.syntax import (
    parse_spec, parse_expr, pretty, SpecDocument, SpecError,
    Atom, Next, Op, Not, IntConst,
)
from gr1report.compiler import validate_gr1_shape


def test_minimal_document():
    doc = parse_spec("[INPUT]\nr\n[SYS_LIVENESS]\nr\n")
    assert [v.name for v in doc.inputs()] == ["r"]
    assert len(doc.parts["sys_liveness"]) == 1
    assert doc.parts["sys_liveness"][0].formula == Atom("r")


def test_content_on_header_line():
    doc = parse_spec("[INPUT] r\n[SYS_LIVENESS] r")
    assert [v.name for v in doc.inputs()] == ["r"]
    assert len(doc.parts["sys_liveness"]) == 1


def test_integer_declaration():
    doc = parse_spec("[INPUT]\nx: 0...7\n")
    v = doc.var("x")
    assert v.is_int and (v.lo, v.hi) == (0, 7)


def test_var_looks_up_each_declaration_by_name():
    doc = parse_spec("[INPUT]\nr\nx: 0...7\n[OUTPUT]\ng\ny: 2...5\n"
                     "[SYS_LIVENESS]\ng\n")
    assert all(doc.var(v.name) is v for v in doc.variables)
    y = doc.var("y")
    assert (y.name, y.kind, y.lo, y.hi) == ("y", "output", 2, 5)
    for name in ("z", "g'", "X", "TRUE", ""):
        assert doc.var(name) is None
    # a document built from a list of declarations looks them up too
    again = SpecDocument(variables=list(doc.variables))
    assert again.var("x") is doc.var("x") and again.var("z") is None


def test_unknown_section_header():
    with pytest.raises(SpecError, match="unknown section header"):
        parse_spec("[BOGUS]\nr\n")


def test_duplicate_variable():
    with pytest.raises(SpecError, match="duplicate"):
        parse_spec("[INPUT]\nr\nr\n")


def test_undeclared_reference():
    with pytest.raises(SpecError, match="undeclared"):
        parse_spec("[INPUT]\nr\n[SYS_TRANS]\nq\n")


def test_reversed_bounds():
    with pytest.raises(SpecError, match="reversed"):
        parse_spec("[INPUT]\nx: 5...2\n")


def test_syntax_error_has_location():
    with pytest.raises(SpecError) as err:
        parse_spec("[INPUT]\nr\n[SYS_TRANS]\nr & & r\n")
    assert "line 4" in str(err.value)


# characters that str.splitlines() also takes for a line end
_NOT_LINE_ENDS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                  "\u2029"]


@pytest.mark.parametrize("sep", _NOT_LINE_ENDS)
def test_comment_runs_past_characters_that_end_no_line(sep):
    doc = parse_spec(f"[INPUT]\nr\n[OUTPUT]\ny\n[SYS_LIVENESS]\n"
                     f"y # note{sep}!y\n")
    assert [p.text for p in doc.parts["sys_liveness"]] == ["y"]


@pytest.mark.parametrize("sep", _NOT_LINE_ENDS)
def test_line_numbers_count_only_line_ends(sep):
    with pytest.raises(SpecError,
                       match="^line 6, column 1: reference to undeclared"):
        parse_spec(f"[INPUT]\nx{sep}\n[OUTPUT]\ny\n[SYS_LIVENESS]\nz\n")


def test_an_undeclared_name_has_its_column():
    # columns count within the expression text, as for a syntax error
    for text in ("a & c", "[SYS_TRANS] a & c"):
        with pytest.raises(SpecError, match="^line 6, column 5: reference "
                           "to undeclared variable 'c'$"):
            parse_spec(f"[INPUT]\na\n[OUTPUT]\nb\n[SYS_TRANS]\n{text}\n")


def test_lines_end_at_crlf_cr_and_lf():
    doc = parse_spec("[INPUT]\r\nr\r[OUTPUT]\ny\r\n\r[SYS_LIVENESS]\r\ny\n")
    assert [(p.text, p.line) for p in doc.all_parts()] == [("y", 7)]


def test_a_name_starts_with_a_letter_or_underscore():
    assert parse_expr("_a1 & é2") == Op("&", (Atom("_a1"), Atom("é2")))
    # digits that are no decimal digits start neither a name nor an integer
    for text in ("²", "x = ③", "½ & y"):
        with pytest.raises(SpecError, match="unexpected character"):
            parse_expr(text)


def test_precedence():
    e = parse_expr("!a & b | c -> d <-> e")
    # <-> loosest, then ->, |, &, !
    assert isinstance(e, Op) and e.op == "<->" and len(e.args) == 2
    imp = e.args[0]
    assert isinstance(imp, Op) and imp.op == "->"
    disj = imp.args[0]
    assert isinstance(disj, Op) and disj.op == "|"
    conj = disj.args[0]
    assert isinstance(conj, Op) and conj.op == "&"
    assert isinstance(conj.args[0], Not)


def test_implies_right_associative():
    e = parse_expr("a -> b -> c")
    assert isinstance(e, Op) and e.op == "->"
    assert e.args[0] == Atom("a")
    assert isinstance(e.args[1], Op) and e.args[1].op == "->"


def test_arithmetic_parsing():
    e = parse_expr("x + 1 < y + 2")
    assert isinstance(e, Op) and e.op == "<"
    assert isinstance(e.args[0], Op) and e.args[0].op == "+"
    assert e.args[0].args[1] == IntConst(1)


def test_next_parsing():
    e = parse_expr("X(x) = x + 1")
    assert isinstance(e, Op) and e.op == "="
    assert e.args[0] == Next(Atom("x"))


def test_roundtrip_regression_corpus(specs_dir):
    for path in sorted(specs_dir.glob("*.spec")):
        doc = parse_spec(path.read_text())
        again = parse_spec(pretty(doc))
        assert again == doc, path.name


def test_roundtrip_random():
    from conftest import random_spec_text
    for seed in range(40):
        doc = parse_spec(random_spec_text(seed))
        assert parse_spec(pretty(doc)) == doc, seed


# ----------------------------------------------------------------------
# grammar restrictions are reported as violation data

def _violations(text):
    return validate_gr1_shape(parse_spec(text))


def test_output_under_next_in_assumption():
    v = _violations("[INPUT]\nr\n[OUTPUT]\ng\n[ENV_TRANS]\nX(g)\n")
    assert any(x.rule == "output under next in assumption" for x in v)


def test_nested_next():
    v = _violations("[OUTPUT]\na\n[SYS_TRANS]\nX(X(a))\n")
    assert any(x.rule == "nested next" for x in v)


def test_unnested_next_in_liveness_is_fine():
    assert _violations("[OUTPUT]\na\n[SYS_LIVENESS]\nX(a)\n") == []


def test_next_in_init():
    v = _violations("[OUTPUT]\na\n[SYS_INIT]\nX(a)\n")
    assert any(x.rule == "next in initial part" for x in v)


def test_output_in_env_init():
    v = _violations("[INPUT]\nr\n[OUTPUT]\ng\n[ENV_INIT]\ng | r\n")
    assert any(x.rule == "output in initial assumption" for x in v)


def test_integer_as_boolean_flagged():
    v = _violations("[OUTPUT]\nx: 0...3\n[SYS_TRANS]\nx\n")
    assert any(x.rule == "arithmetic outside comparison" for x in v)


def test_boolean_in_arithmetic_flagged():
    v = _violations("[OUTPUT]\na\nx: 0...3\n[SYS_TRANS]\nx + a < 3\n")
    assert any(x.rule == "boolean in arithmetic" for x in v)


def test_comparison_on_boolean_flagged():
    v = _violations("[OUTPUT]\na\nb\n[SYS_TRANS]\na = b\n")
    assert any(x.rule == "comparison on boolean" for x in v)


def test_shape_violations_are_listed_in_source_line_order():
    # kind order would put the initial assumption on line 10 first
    v = _violations("[INPUT]\na\n[OUTPUT]\nb\n[SYS_INIT]\n!b\n"
                    "[SYS_TRANS]\nX(X(b))\n[ENV_INIT]\nb\n")
    assert [(x.rule, x.line) for x in v] == [
        ("nested next", 8), ("output in initial assumption", 10)]


def test_type_violation_reported_once_with_line_and_subexpression():
    v = _violations("[INPUT]\nr\n[OUTPUT]\ng\n[SYS_TRANS]\ng\nr = g & X(g)\n")
    assert [(x.rule, x.kind, x.index, x.line) for x in v] == [
        ("comparison on boolean", "sys_trans", 1, 7)]
    assert v[0].message.endswith(": r = g")
    assert str(v[0]).startswith("line 7: sys_trans[1]: ")
