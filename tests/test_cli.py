"""Command-line surface: grammars, round trips, exit codes, JSON schema."""

import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from elemeq.boolalg import (
    And,
    Eq,
    Forall,
    Implies,
    Le,
    Or,
    TCompl,
    TJoin,
    TMeet,
    TOne,
    TVar,
    TZero,
    sentence_corpus,
)
from elemeq.clogic import (
    CAdd,
    CConst,
    CMul,
    COne,
    CScale,
    CStar,
    CSub,
    CVar,
    CZero,
    FAbsDiff,
    FConst,
    FInf,
    FMax,
    FMin,
    FNorm,
    FPlus,
    FScale,
    FSup,
    FTruncSub,
    SORT_BALL,
    SORT_POS,
    SORT_PROJ,
    SORT_SA,
    translate_fo,
)
from elemeq import cli
from elemeq.cli import (
    _VERBS,
    _build_parser,
    EXIT_BUDGET,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PARSE,
    format_cformula,
    format_fo,
    main,
    parse_cformula,
    parse_condition,
    parse_descriptor,
    parse_element,
    parse_fo_formula,
    parse_ordinal,
    parse_target,
)
from elemeq.batheory import (
    FinCof,
    Finite,
    IntervalAlgebra,
    PowersetOmega,
    Product,
    format_descriptor,
)
from elemeq.errors import ParseError, PreconditionError, ResourceBudgetError
from elemeq.ordinals import MAX_COEFF_DIGITS, OMEGA, Ordinal, cnf_string, finite, omega_power, ord_add, ord_mul
from util import reference_parse_ordinal


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """A JSON payload; the NaN and Infinity that JSON lacks fail the test."""

    def refuse(constant):
        raise ValueError(f"payload holds {constant}, which is not JSON")

    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# Ordinal grammar
# ---------------------------------------------------------------------------


def test_parse_ordinal_pinned_examples():
    three_terms = parse_ordinal("w^w*2 + w^2*3 + 5")
    expected = ord_add(
        ord_add(ord_mul(omega_power(OMEGA), finite(2)), ord_mul(omega_power(finite(2)), finite(3))),
        finite(5),
    )
    assert three_terms == expected
    assert cnf_string(three_terms) == "w^(w)*2+w^2*3+5"


def test_parse_ordinal_renormalizes_unsorted_input():
    assert parse_ordinal("w + w") == ord_mul(OMEGA, finite(2))
    assert cnf_string(parse_ordinal("w + w")) == "w*2"
    assert parse_ordinal("1 + w") == OMEGA
    assert parse_ordinal("0") == finite(0)


def test_parse_ordinal_exponent_chain_binds_tighter_than_coefficient():
    assert parse_ordinal("w^w*2") == ord_mul(omega_power(OMEGA), finite(2))
    assert parse_ordinal("w^w^2") == omega_power(omega_power(finite(2)))
    assert parse_ordinal("w^(w*2)") == omega_power(ord_mul(OMEGA, finite(2)))


def test_parse_ordinal_rejects_double_caret_with_position():
    with pytest.raises(ParseError) as excinfo:
        parse_ordinal("w^^2")
    assert excinfo.value.position == 2


@pytest.mark.parametrize("text", ["", "w^", "w*", "w*w", "2 3", "w +", "(w", "w^()"])
def test_parse_ordinal_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_ordinal(text)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("w^", "expected an exponent after '^'", 2),
        ("w*", "expected a natural coefficient after '*'", 2),
        ("w*w", "expected a natural coefficient after '*'", 2),
        ("3*2", "unexpected trailing '*'", 1),
        ("(w)", "expected 'w' or a natural, got '('", 0),
        ("w^^2", "expected an exponent after '^'", 2),
        ("", "expected an ordinal term", 0),
    ],
)
def test_parse_ordinal_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as excinfo:
        parse_ordinal(text)
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position


def _random_natural(rng):
    digits = rng.choice(("0", "1", "2", "3", "7", "10", "12", "999", "18446744073709551617"))
    if rng.random() < 0.15:
        digits = "0" * rng.randint(1, 3) + digits  # leading zeros
    if rng.random() < 0.01:
        digits = "9" * (MAX_COEFF_DIGITS + rng.choice((0, 1)))  # the last natural read, the first refused
    return digits


def _random_blank(rng):
    return rng.choice(("", "", "", " ", "\t", "  ", " \t"))


def _random_ordinal_exponent(rng, depth):
    pick = rng.randrange(4 if depth else 3)
    if pick == 0:
        return _random_natural(rng)
    if pick == 1:
        return "w"
    if pick == 2:  # a w^w^...^k chain
        return "w" + _random_blank(rng) + "^" + _random_blank(rng) + _random_ordinal_exponent(rng, depth)
    return "(" + _random_ordinal_text(rng, depth - 1) + ")"


def _random_ordinal_text(rng, depth=2):
    """A sum of one to five terms in any order, repeats and zero terms included."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.25:
            terms.append(_random_natural(rng))
            continue
        term = "w"
        if rng.random() < 0.7:
            term += _random_blank(rng) + "^" + _random_blank(rng) + _random_ordinal_exponent(rng, depth)
        if rng.random() < 0.5:
            term += _random_blank(rng) + "*" + _random_blank(rng) + _random_natural(rng)
        terms.append(term)
        if rng.random() < 0.2:
            terms.append(term)  # a repeated term
    return _random_blank(rng) + (_random_blank(rng) + "+" + _random_blank(rng)).join(terms) + _random_blank(rng)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ResourceBudgetError) as error:
        return type(error), str(error), getattr(error, "position", None)


def test_parse_ordinal_matches_the_reference_parser_on_seeded_texts():
    # The reference reads a token stream with a position per token and sums the
    # terms with its own ordinal addition, left to right; the parser must give
    # the same ordinal, or the same exception, message and position.
    rng = random.Random(2026)
    alphabet = "0123456789w^*+()  \t" + "x\u00e9\n\u00a0\u0663\u00b2W-"  # and a few foreign characters
    texts = []
    for _ in range(6000):
        text = _random_ordinal_text(rng)
        texts.append(text)
        if rng.random() < 0.5 and text:  # a slip: one character dropped, doubled or replaced
            i, c = rng.randrange(len(text)), rng.choice(alphabet)
            texts.append(rng.choice((text[:i] + text[i + 1:], text[:i + 1] + text[i:], text[:i] + c + text[i + 1:])))
    for _ in range(3000):
        texts.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12))))
    assert len(texts) >= 10_000
    ordinals, messages = 0, []
    for text in texts:
        expected = _parse_outcome(reference_parse_ordinal, text)
        assert _parse_outcome(parse_ordinal, text) == expected, text
        if isinstance(expected, Ordinal):
            ordinals += 1
        else:
            messages.append(expected[1])
    assert ordinals >= 5000 and len(messages) >= 2500
    for kind in ("unexpected character", "unexpected trailing", "expected an ordinal term", "expected ')'",
                 "expected 'w' or a natural", "expected an exponent after '^'",
                 "expected a natural coefficient after '*'", f"a natural of over {MAX_COEFF_DIGITS} digits"):
        assert sum(message.startswith(kind) for message in messages) >= 20, kind


def test_ordinal_print_parse_identity_on_seeded_terms():
    rng = random.Random(2026)
    for _ in range(500):
        terms = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.25:
                exponent = omega_power(finite(rng.randint(1, 3)))
            else:
                exponent = finite(rng.randint(0, 5))
            terms.append(ord_mul(omega_power(exponent), finite(rng.randint(1, 4))))
        total = finite(0)
        for term in terms:
            total = ord_add(total, term)
        if rng.random() < 0.3:
            total = ord_add(total, finite(rng.randint(1, 9)))
        assert parse_ordinal(cnf_string(total)) == total


# ---------------------------------------------------------------------------
# Classical formula grammar
# ---------------------------------------------------------------------------


def test_parse_fo_pinned_example_is_rank_one_idempotence():
    phi = parse_fo_formula("forall x. x /\\ x = x")
    assert phi == Forall("x", Eq(TMeet(TVar("x"), TVar("x")), TVar("x")))


def test_parse_fo_unbound_variable_is_a_scope_error():
    with pytest.raises(ParseError, match="unbound variable 'y'"):
        parse_fo_formula("forall x. x /\\ y = x")
    with pytest.raises(ParseError, match="unbound"):
        parse_fo_formula("exists x. x = z")


def test_parse_fo_connectives_and_precedence():
    phi = parse_fo_formula("forall x. x = x & x = x -> x = x")
    # -> binds loosest: (A & A) -> A
    assert type(phi.body).__name__ == "Implies"
    assert type(phi.body.left).__name__ == "And"
    a, b, c = (Eq(TVar(v), TVar(v)) for v in "abc")
    x, y, z = TVar("x"), TVar("y"), TVar("z")

    def body(text):
        return parse_fo_formula("forall a. forall b. forall c. " + text).body.body.body

    def term(text):
        return parse_fo_formula(f"forall x. forall y. forall z. {text} = 0").body.body.body.left

    # -> nests to the right; the other connectives and operators to the left.
    assert body("a = a -> b = b -> c = c") == Implies(a, Implies(b, c))
    assert body("a = a | b = b | c = c") == Or(Or(a, b), c)
    assert body("a = a & b = b & c = c") == And(And(a, b), c)
    assert term("x \\/ y \\/ z") == TJoin(TJoin(x, y), z)
    # & binds tighter than |, /\ tighter than \/, and ~ tighter than /\.
    assert body("a = a | b = b & c = c") == Or(a, And(b, c))
    assert term("x \\/ y /\\ z") == TJoin(x, TMeet(y, z))
    assert term("~x /\\ y") == TMeet(TCompl(x), y)


def test_parse_fo_shadowing_and_nested_quantifiers():
    phi = parse_fo_formula("forall x. exists y. (x /\\ y = y) & !(y = 1)")
    assert type(phi).__name__ == "Forall"
    assert type(phi.body).__name__ == "Exists"


#: text -> (message, position); the tokenizer reads this grammar's text too
_FO_ERRORS = {
    "forall . x = x": ("expected a variable after quantifier", 7),
    "x = x": ("unbound variable 'x'", 0),
    "forall x. x =": ("expected a Boolean term", 13),
    "forall x. (x = x": ("expected ')'", 16),
    "forall x. x & x": ("expected '=' or '<=' in an atom", 12),
    "forall x. x = $x": ("unexpected character '$'", 14),  # right after a blank
    "forall\tx.\tx\t= #": ("unexpected character '#'", 14),
    "forall \u00e9. \u00e9 = \u00e9": ("unexpected character '\u00e9'", 7),
    "forall x. x = x x": ("unexpected trailing 'x'", 16),
    "": ("expected a Boolean term", 0),
}


@pytest.mark.parametrize("text", list(_FO_ERRORS))
def test_parse_fo_rejects_malformed(text):
    message, position = _FO_ERRORS[text]
    with pytest.raises(ParseError) as excinfo:
        parse_fo_formula(text)
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position


def test_fo_format_parse_identity_on_corpus():
    for phi in sentence_corpus(500):
        assert parse_fo_formula(format_fo(phi)) == phi


def _subterms(node):
    """Every Boolean term in a formula node, subterms included."""
    if isinstance(node, (TVar, TZero, TOne, TMeet, TJoin, TCompl)):
        yield node
    for field in node[1:]:
        if isinstance(field, tuple):
            yield from _subterms(field)


def test_fo_format_parse_identity_on_corpus_terms_inside_an_atom():
    terms = {t for phi in sentence_corpus(200) for t in _subterms(phi)}
    assert {type(t) for t in terms} == {TVar, TZero, TOne, TMeet, TJoin, TCompl}
    for term in terms:
        names = sorted({t.name for t in _subterms(term) if isinstance(t, TVar)})
        phi, atom = Eq(term, TZero()), f"{format_fo(term)} = 0"
        if len(names) % 2 == 0:
            phi, atom = Le(TOne(), term), f"1 <= {format_fo(term)}"
        for name in reversed(names):
            phi = Forall(name, phi)
        text = "".join(f"forall {name}. " for name in names) + atom
        assert parse_fo_formula(text) == phi
        assert format_fo(phi) == text


# ---------------------------------------------------------------------------
# Continuous formula grammar
# ---------------------------------------------------------------------------


def test_parse_cformula_pinned_example():
    phi = parse_cformula("(sup p :proj (norm (- (* p p) p)))")
    p = CVar("p")
    assert phi == FSup("p", SORT_PROJ, FNorm(CSub(CMul(p, p), p)))


def test_parse_cformula_all_sorts_and_heads():
    text = (
        "(max (sup x :ball (norm (star x))) "
        "(min (inf y :sa (norm (+ y 1))) "
        "(plus (tsub (fconst 1) (fscale 2.5 (norm 0))) "
        "(absdiff (sup z :pos (norm (scale 2j z))) "
        "(inf q :proj (norm (* q (const 1 0))))))))"
    )
    phi = parse_cformula(text)
    assert parse_cformula(format_cformula(phi)) == phi
    assert format_cformula(phi) == (
        "(max (sup x :ball (norm (star x))) "
        "(min (inf y :sa (norm (+ y 1))) "
        "(plus (tsub (fconst 1.0) (fscale 2.5 (norm 0))) "
        "(absdiff (sup z :pos (norm (scale 2j z))) "
        "(inf q :proj (norm (* q (const 1+0j 0j))))))))"
    )


@pytest.mark.parametrize(
    "text",
    [
        "(sup p (norm p))",  # missing sort keyword
        "(sup p :unitary (norm p))",  # unknown sort
        "(norm (^ a b))",  # unknown term head
        "(frob 1 2)",  # unknown formula head
        "(norm x",  # unbalanced
        "(norm (const))",  # empty constant
        "",
    ],
)
def test_parse_cformula_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_cformula(text)


@pytest.mark.parametrize(
    "parse, text, message, position",
    [
        (parse_cformula, "", "expected a formula", 0),
        (parse_condition, "(+ x in [0,1]", "expected a term", 4),
        (parse_cformula, "(frob 1 2)", "unknown formula head 'frob'", 1),
        (parse_cformula, "(norm (^ a b))", "unknown term head '^'", 7),
        (parse_cformula, "(norm (const))", "const needs at least one value", 12),
        (parse_cformula, "(fconst abc)", "expected a real literal, got 'abc'", 8),
        (parse_cformula, "abc", "expected a real literal, got 'abc'", 0),
        (parse_cformula, "(norm (scale q x))", "expected a complex literal, got 'q'", 13),
        (parse_cformula, "(norm (+ x ?))", "expected a term symbol, got '?'", 11),
        (parse_condition, "(* x ?) in [0,1]", "expected a term symbol, got '?'", 5),
        (parse_cformula, "(sup 9 :sa (norm x))", "expected a variable after quantifier", 5),
        (parse_cformula, "(sup x :unit (norm x))", "expected a sort keyword", 7),
        (parse_cformula, "(norm x", "expected ')'", 7),
    ],
)
def test_sexpr_errors_point_at_their_token(parse, text, message, position):
    with pytest.raises(ParseError, match=re.escape(message)) as excinfo:
        parse(text)
    assert excinfo.value.position == position


def test_format_cformula_rejects_a_non_node():
    for bad in (None, 3, FNorm(None), FMax(FConst(0.0), "x")):
        with pytest.raises(PreconditionError, match="cannot format"):
            format_cformula(bad)


def _random_cterm(rng, depth):
    if depth == 0:
        return rng.choice(
            [CZero(), COne(), CVar("x"), CVar("y"), CConst((0.5 + 0.25j, -1j))]
        )
    kind = rng.randrange(5)
    if kind == 0:
        return CAdd(_random_cterm(rng, depth - 1), _random_cterm(rng, depth - 1))
    if kind == 1:
        return CSub(_random_cterm(rng, depth - 1), _random_cterm(rng, depth - 1))
    if kind == 2:
        return CMul(_random_cterm(rng, depth - 1), _random_cterm(rng, depth - 1))
    if kind == 3:
        return CStar(_random_cterm(rng, depth - 1))
    return CScale(complex(rng.randint(-2, 2), rng.randint(-2, 2)), _random_cterm(rng, depth - 1))


def _random_cformula(rng, depth, sorts=(SORT_BALL, SORT_SA, SORT_POS, SORT_PROJ)):
    if depth == 0:
        if rng.random() < 0.5:
            return FNorm(_random_cterm(rng, 2))
        return FConst(rng.randint(0, 4) / 4)
    kind = rng.randrange(7)
    if kind == 0:
        return FPlus(_random_cformula(rng, depth - 1), _random_cformula(rng, depth - 1))
    if kind == 1:
        return FTruncSub(_random_cformula(rng, depth - 1), _random_cformula(rng, depth - 1))
    if kind == 2:
        return FMax(_random_cformula(rng, depth - 1), _random_cformula(rng, depth - 1))
    if kind == 3:
        return FMin(_random_cformula(rng, depth - 1), _random_cformula(rng, depth - 1))
    if kind == 4:
        return FAbsDiff(_random_cformula(rng, depth - 1), _random_cformula(rng, depth - 1))
    if kind == 5:
        return FScale(rng.randint(1, 3) / 2, _random_cformula(rng, depth - 1))
    var = rng.choice(["x", "y"])
    node = FSup if rng.random() < 0.5 else FInf
    return node(var, rng.choice(sorts), _random_cformula(rng, depth - 1))


def test_cformula_print_parse_identity_on_seeded_formulas():
    rng = random.Random(2026)
    for _ in range(500):
        phi = _random_cformula(rng, rng.randint(1, 3))
        assert parse_cformula(format_cformula(phi)) == phi


def test_cformula_print_parse_identity_on_translated_corpus():
    for phi in sentence_corpus(200):
        translated = translate_fo(phi)
        assert parse_cformula(format_cformula(translated)) == translated


def test_valid_sexpressions_never_ask_for_a_position(monkeypatch):
    # a position takes a second scan of the text, which only a refusal reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rng = random.Random(3702)
    formulas = [format_cformula(translate_fo(phi)) for phi in sentence_corpus(200)]
    formulas += [format_cformula(_random_cformula(rng, rng.randint(1, 3))) for _ in range(200)]
    formulas += re.findall(r"elemeq ceval '([^']*)'", readme)
    conditions = re.findall(r"--cond '([^']*)'", readme)
    assert len(formulas) == 402 and len(conditions) == 3
    parsed = [parse_cformula(text) for text in formulas], [parse_condition(text) for text in conditions]

    def refuse(self, index=None):
        raise AssertionError("a valid s-expression asked for a position")

    monkeypatch.setattr(cli._TokenStream, "position", refuse)
    assert ([parse_cformula(text) for text in formulas], [parse_condition(text) for text in conditions]) == parsed


def test_format_term_pinned_string(capsys):
    term = CSub(CScale(complex(-0.5, 1e-9), CVar("x")), CConst((1 + 0j, 2.5j)))
    text = "(- (scale -0.5+1e-09j x) (const 1+0j 2.5j))"
    assert format_cformula(FNorm(term)) == f"(norm {text})"
    assert parse_condition(f"{text} in [0,4]").polynomial == term
    code, out, _ = run_cli(
        capsys, ["realize", "--cond", f"{text} in [0,4]", "--points", "2", "--tol", "0.5", "--json"]
    )
    assert code == EXIT_OK
    assert strict_json(out)["inputs"]["conditions"] == [f"{text} in [0.0,4.0]"]


# ---------------------------------------------------------------------------
# Descriptor, element, target, condition grammars
# ---------------------------------------------------------------------------


def test_parse_descriptor_round_trips_all_shapes():
    descriptors = [
        Finite(3),
        FinCof(),
        PowersetOmega(),
        IntervalAlgebra(ord_add(ord_mul(omega_power(finite(2)), finite(2)), finite(1))),
        Product((Finite(2), FinCof(), Product((Finite(1), PowersetOmega())))),
    ]
    for descriptor in descriptors:
        assert parse_descriptor(format_descriptor(descriptor)) == descriptor


@pytest.mark.parametrize("text", ["bogus", "finite(x)", "prod()", "prod(finite(2),)", "intalg(q)"])
def test_parse_descriptor_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_descriptor(text)


def test_parse_element_and_target():
    assert parse_element("1+2j, 0.5, -1j") == (1 + 2j, 0.5 + 0j, -1j)
    for text in ("nan", "1, inf", "-infj", "1e400"):
        with pytest.raises(ParseError, match="bad complex value"):
            parse_element(text)
    assert parse_target("[0,1]|{2}") == ((0.0, 1.0), (2.0, 2.0))
    assert parse_target("{1/2}") == ((0.5, 0.5),)
    with pytest.raises(ParseError):
        parse_element("1, q")
    with pytest.raises(ParseError):
        parse_target("(0,1)")


def test_parse_condition():
    condition = parse_condition("(* x y) in [0,0.5]|{1}")
    assert condition.polynomial == CMul(CVar("x"), CVar("y"))
    assert condition.target == ((0.0, 0.5), (1.0, 1.0))
    with pytest.raises(ParseError):
        parse_condition("(* x y) [0,1]")


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (parse_cformula, "1e400", 0),
        (parse_cformula, "(fconst 1e400)", 8),
        (parse_target, "{1e400}", 1),
        (parse_target, "{ 1e400 }", 2),
        (parse_target, "[0,1]| [-1e400,0]", 8),
        (parse_condition, "(* x y) in [0,1]|{1e400}", 18),
    ],
)
def test_real_literals_beyond_the_floats_are_parse_errors(parse, text, position):
    with pytest.raises(ParseError, match="is beyond the floats") as excinfo:
        parse(text)
    assert excinfo.value.position == position
    assert text[position:].lstrip("-").startswith("1e400")


def test_target_errors_point_at_their_literal():
    for text, position in (("{abc}", 1), ("[0,1]|[2,x]", 9), ("[0, x]", 4), ("{ abc }", 2),
                           ("[ y ,1]", 2)):
        with pytest.raises(ParseError, match="expected a real literal") as excinfo:
            parse_target(text)
        assert excinfo.value.position == position


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_cli_realize_rejects_a_tolerance_that_is_not_positive_and_finite(capsys, tol):
    code, out, err = run_cli(capsys, ["realize", "--cond", "x in {1}", "--points", "1", "--tol", tol, "--json"])
    assert code == EXIT_PARSE
    assert out == "" and "tolerance must be positive and finite" in err and "Traceback" not in err


def test_cli_realize_of_an_overflowing_condition_prints_no_warning(capsys):
    # under this suite's filters a numpy RuntimeWarning would raise out of main
    argv = ["realize", "--cond", "(scale 1e200 (scale 1e200 x)) in {1}", "--points", "1", "--tol", "0.1",
            "--max-boxes", "2000", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_BUDGET and err == ""
    assert strict_json(out)["result"] == "inconclusive"


def test_cli_realize_target_beyond_the_floats_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, ["realize", "--cond", "x in {1e400}", "--points", "1", "--tol", "0.1"])
    assert code == EXIT_PARSE
    assert "parse error: real literal '1e400' is beyond the floats (at position 6)" in err


# ---------------------------------------------------------------------------
# Verbs end to end (exit codes, JSON schema)
# ---------------------------------------------------------------------------


def test_cli_ord_arith_json(capsys):
    code, out, _ = run_cli(capsys, ["ord-arith", "add", "w + 1", "w", "--json"])
    assert code == EXIT_OK
    payload = strict_json(out)
    assert payload["verb"] == "ord-arith"
    assert payload["inputs"] == {"op": "add", "left": "w+1", "right": "w"}
    assert payload["value"] == "w*2"


def test_cli_ord_eq_cross_checks_agree(capsys):
    code, out, _ = run_cli(capsys, ["ord-eq", "w + w", "w*2", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK and payload["verdict"] is True
    assert payload["cross_checks"] == {"ef_rank_3": True}

    code, out, _ = run_cli(capsys, ["ord-eq", "w", "w*2", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK and payload["verdict"] is False
    (key, value), = payload["cross_checks"].items()
    assert key.startswith("ef_rank_") and value is False


@pytest.mark.parametrize(
    "argv, inputs, verdict",
    [
        (["ef", "--kind", "ordinals", "--rank", "2", "w", "w*2"],
         {"kind": "ordinals", "left": "w", "right": "w*2", "rank": 2}, True),
        (["ef", "--kind", "ba", "--rank", "2", "3", "4"],
         {"kind": "ba", "left": 3, "right": 4, "rank": 2}, False),
    ],
)
def test_cli_ef_ordinals_and_bas(capsys, argv, inputs, verdict):
    code, out, _ = run_cli(capsys, argv + ["--json"])
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["inputs"] == inputs and payload["verdict"] is verdict


def test_cli_budget_and_value_errors_exit_four_and_two(capsys):
    code, _, err = run_cli(capsys, ["ef", "--kind", "orders", "--rank", "7", "1", "2"])
    assert code == EXIT_BUDGET and "budget exceeded" in err
    code, _, err = run_cli(capsys, ["ef", "--kind", "orders", "x", "2"])
    assert code == EXIT_PARSE and "invalid input" in err


@pytest.mark.parametrize(
    "op, left, right, value",
    [
        ("mul", "0", "w", "0"),
        # k^(w^g) = w^(w^g) for infinite g, as 1 + g = g
        ("pow", "2", "w^w", "w^(w^(w))"),
    ],
)
def test_cli_ord_arith_zero_product_and_power_of_a_limit(capsys, op, left, right, value):
    code, out, _ = run_cli(capsys, ["ord-arith", op, left, right, "--json"])
    assert code == EXIT_OK and strict_json(out)["value"] == value


def test_cli_calkin_eq(capsys):
    code, out, _ = run_cli(
        capsys, ["calkin-eq", "w^(w)*3 + w*2 + 1", "w^(w)*5 + w*2 + 1", "--json"]
    )
    payload = strict_json(out)
    assert code == EXIT_OK and payload["verdict"] is True


def test_cli_parse_failure_is_exit_two(capsys):
    code, _, err = run_cli(capsys, ["ord-arith", "add", "w^^2", "w"])
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_cli_ba_eq_golden_interval_pair(capsys):
    code, out, _ = run_cli(capsys, ["ba-eq", "intalg(w)", "intalg(w*2)", "--json"])
    assert code == EXIT_OK
    payload = strict_json(out)
    assert payload["verdict"] is False
    note = payload["conflict_note"]
    assert note["kind"] == "classification-conflict"
    assert note["status"] == "unresolved"
    assert note["left"]["descriptor"] == "intalg(w)"
    assert note["right"]["descriptor"] == "intalg(w*2)"
    assert note["left"]["invariants"] != note["right"]["invariants"]


def test_cli_ba_eq_golden_fincof_powerset_pair(capsys):
    code, out, _ = run_cli(capsys, ["ba-eq", "fincof", "P(omega)", "--json"])
    assert code == EXIT_OK
    payload = strict_json(out)
    assert payload["verdict"] is False
    note = payload["conflict_note"]
    assert note["kind"] == "classification-conflict"
    assert note["left"]["descriptor"] == "fincof"
    assert note["right"]["descriptor"] == "P(omega)"


def test_cli_ba_eq_equivalent_pair_has_no_conflict(capsys):
    code, out, _ = run_cli(capsys, ["ba-eq", "finite(3)", "finite(3)", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK and payload["verdict"] is True
    assert "conflict_note" not in payload
    assert payload["cross_checks"] == {"ef_rank_3": True}


def test_cli_ba_invariants(capsys):
    code, out, _ = run_cli(capsys, ["ba-invariants", "intalg(w^2)", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["value"] == {"level": 2, "atom_count": 1, "atomless": False}
    assert payload["derivative_chain"][0] == "intalg(w^2)"


def test_cli_ba_enumerate(capsys):
    code, out, _ = run_cli(capsys, ["ba-enumerate", "10", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK and len(payload["value"]) == 10
    as_tuples = [tuple(sorted(item.items())) for item in payload["value"]]
    assert len(set(as_tuples)) == 10


def test_cli_stone(capsys):
    code, out, _ = run_cli(capsys, ["stone", "4", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["value"] == {"space_points": 4, "roundtrip": True}
    assert payload["cross_checks"]["functoriality_agrees"] is True


def test_cli_translate(capsys):
    code, out, _ = run_cli(capsys, ["translate", "forall x. x /\\ x = x", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["inputs"]["quantifier_rank"] == 1
    parse_cformula(payload["value"])  # the output is itself valid input


def test_cli_ceval_ok_and_budget(capsys):
    code, out, _ = run_cli(
        capsys,
        ["ceval", "(sup p :proj (norm (- (* p p) p)))", "--points", "2", "--json"],
    )
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["certificate"]["lower"] == 0.0
    assert payload["certificate"]["upper"] <= 1e-6

    code, out, _ = run_cli(
        capsys,
        [
            "ceval",
            "(sup x :pos (norm (* x (- (scale 1.2 1) x))))",
            "--points",
            "2",
            "--tol",
            "1e-12",
            "--max-boxes",
            "50",
            "--json",
        ],
    )
    payload = strict_json(out)
    assert code == EXIT_BUDGET
    certificate = payload["certificate"]
    assert certificate["lower"] <= 0.36 <= certificate["upper"]


def test_cli_ceval_over_the_exhaustive_budget_is_exit_four(capsys):
    # 5 points times rank 5 exceeds the exponent 24 that fo_eval allows
    phi = "(sup a :proj (sup b :proj (sup c :proj (sup d :proj (sup e :proj (norm (- a e)))))))"
    code, out, _ = run_cli(capsys, ["ceval", phi, "--points", "5", "--json"])
    assert code == EXIT_BUDGET
    assert strict_json(out) == {"verb": "ceval", "inputs": {"formula": phi, "points": 5, "tol": 1e-6, "params": {}},
                               "error": "resource budget exceeded"}
    code, out, _ = run_cli(capsys, ["ceval", phi, "--points", "4", "--json"])
    assert code == EXIT_OK and strict_json(out)["certificate"]["lower"] == 1.0


def test_cli_ceval_with_parameter(capsys):
    code, out, _ = run_cli(
        capsys,
        ["ceval", "(norm (- a (star a)))", "--points", "2", "--param", "a=1j,0", "--json"],
    )
    payload = strict_json(out)
    assert code == EXIT_OK
    assert abs(payload["certificate"]["lower"] - 2.0) <= 1e-6


def test_cli_ceval_encloses_the_value_under_a_large_parameter(capsys):
    # min over x of max(|10x - 1|, |10x - 3|) is 1, at x = 0.2 only
    phi = "(inf x :sa (max (norm (- (* c x) (const 1))) (norm (- (* c x) (const 3)))))"
    code, out, _ = run_cli(
        capsys, ["ceval", phi, "--points", "1", "--tol", "0.001", "--param", "c=10", "--json"]
    )
    certificate = strict_json(out)["certificate"]
    assert code == EXIT_OK
    assert certificate["lower"] <= 1 <= certificate["upper"]


@pytest.mark.parametrize(
    "argv",
    [
        ["(sup x :sa (norm x))", "--tol", "nan"],
        ["(norm c)", "--param", "c=nan"],
        ["(sup x :sa (norm (- x c)))", "--param", "c=inf"],
        ["(sup x :sa (norm (- x c)))", "--param", "c=1e400"],
        ["(norm (scale nan 1))"],
        ["(norm (const infj))"],
        ["(fscale nan (norm 1))"],
        ["(sup x :sa (norm x))", "--tol", "inf"],
    ],
)
def test_cli_ceval_rejects_non_finite_input(capsys, argv):
    code, out, err = run_cli(capsys, ["ceval", *argv[:1], "--points", "1", *argv[1:]])
    assert code == EXIT_PARSE
    assert out == "" and err and "Traceback" not in err


@pytest.mark.parametrize(
    "formula", ["(norm (* c c))", "(norm (- (* c c) (* c c)))", "(sup x :sa (norm (- (* c c) x)))"]
)
def test_cli_ceval_rejects_an_overflowed_value(capsys, formula):
    argv = ["ceval", formula, "--points", "1", "--param", "c=1e300", "--tol", "0.01"]
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_PARSE
    assert out == "" and "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ceval", "(norm c)", "--points", "1", "--param", "c"],
         "bad --param 'c' (use name=v1,v2,...)"),
        (["realize", "--cond", "x in [0,1]", "--points", "1", "--tol", "0.1", "--sort", "=sa"],
         "bad --sort '=sa' (use variable=ball|sa|pos)"),
        (["realize", "--cond", "x in {0.9}", "--points", "1", "--tol", "0.01", "--sort", "y=pos"],
         "--sort names 'y', which no --cond uses"),
        (["ceval", "(norm x)", "--points", "1", "--param", "x=1", "--param", "x=2"],
         "--param names 'x' twice"),
        (["realize", "--cond", "x in [0,1]", "--points", "1", "--tol", "0.1", "--sort", "x=sa",
          "--sort", "x=pos"],
         "--sort names 'x' twice"),
    ],
)
def test_cli_malformed_name_value_option_is_exit_two(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_PARSE
    assert out == "" and err == f"parse error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ceval", "(sup x :sa (norm x))", "--points", "1"],
        ["ceval", "(norm 1)", "--points", "1"],
        ["realize", "--cond", "x in {1}", "--points", "1", "--tol", "0.1"],
    ],
)
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_non_positive_box_budget_is_exit_two(capsys, argv, budget):
    code, out, err = run_cli(capsys, [*argv, "--max-boxes", budget])
    assert code == EXIT_PARSE
    assert out == "" and "box budget must be at least 1" in err and "Traceback" not in err


def test_cli_jspec(capsys):
    code, out, _ = run_cli(capsys, ["jspec", "1,2", "0,1j", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["value"] == [["1+0j", "0j"], ["2+0j", "1j"]]


def test_cli_fmember(capsys):
    code, out, _ = run_cli(capsys, ["fmember", "1,2", "--at", "1", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK and payload["verdict"] is True
    assert payload["cross_checks"]["absolute_sum_not_invertible"] is True

    code, out, _ = run_cli(capsys, ["fmember", "1,2", "--at", "3", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK and payload["verdict"] is False
    assert payload["cross_checks"]["solvable"] is True


def test_cli_code_reconstruct(capsys):
    code, out, _ = run_cli(
        capsys, ["code", "0.3+0.4j, -0.2", "--scale", "8", "--reconstruct", "--json"]
    )
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["reconstruction"]["error"] <= payload["reconstruction"]["bound"] == 0.25


def test_cli_code_scale_cap_is_exit_four(capsys):
    code, out, _ = run_cli(capsys, ["code", "0.5", "--scale", "128", "--json"])
    assert code == EXIT_OK and strict_json(out)["inputs"]["scale"] == 128
    code, out, err = run_cli(capsys, ["code", "0.5", "--scale", "129"])
    assert code == EXIT_BUDGET
    assert out == "" and err == "budget exceeded: scale 129 exceeds the cap 128\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ord-arith", "pow", "3", "100000000"], "the power has a coefficient of over 4300 digits"),
        (["ord-arith", "pow", "2", "20000"], "the power has a coefficient of over 4300 digits"),
        (["ord-arith", "pow", "w+1", "100000"], "the power has over 10000 terms"),
        (["ord-arith", "mul", "9" * 3000, "9" * 3000], "an integer of the normal form is too long to print"),
        (["ord-arith", "pow", "w^2", "9" * 4300], "an integer of the normal form is too long to print"),
        (["ord-arith", "add", "9" * 4400, "1"], "a natural of over 4300 digits"),
        (["ord-arith", "add", "w^" + "9" * 4301, "1"], "a natural of over 4300 digits"),
        (["ord-arith", "add", "w*" + "9" * 4301, "1"], "a natural of over 4300 digits"),
        (["ef", "--kind", "orders", "9" * 4400, "1"], "a natural of over 4300 digits"),
        (["ef", "--kind", "ba", "9" * 4400, "1"], "a natural of over 4300 digits"),
        (["interpolate", "--algebra", "finite:" + "9" * 4400], "a natural of over 4300 digits"),
        (["ba-invariants", "finite(" + "9" * 4400 + ")"], "a natural of over 4300 digits"),
        (["interpolate", "--algebra", "finite:" + "9" * 11, "--lower", "1"], "atom count exceeds the cap 10000"),
        (["ba-enumerate", "10001"], "k exceeds the cap 10000"),
        # the parsers and evaluators recurse once per level of nesting
        (["translate", "forall x. " + "(" * 400 + "x = x" + ")" * 400], "the input nests too deeply"),
        (["ord-arith", "add", "w^(" * 3000 + "1" + ")" * 3000, "1"], "the input nests too deeply"),
        (["ceval", "(norm " + "(+ 1 " * 3000 + "1" + ")" * 3001, "--points", "1"], "the input nests too deeply"),
        (["ba-eq", "prod(" * 3000 + "free" + ")" * 3000, "free"], "the input nests too deeply"),
    ],
    ids=["pow-3", "pow-2", "pow-terms", "mul-print", "pow-exponent-print", "natural", "exponent", "coefficient",
         "ef-orders", "ef-ba", "interpolate-atoms", "descriptor-atoms", "interpolate-atom-cap", "ba-enumerate-cap",
         "deep-translate", "deep-ordinal", "deep-ceval", "deep-descriptor"],
)
def test_cli_refuses_a_result_too_large_to_build_or_print_with_exit_four(capsys, argv, message):
    start = time.process_time()
    code, out, err = run_cli(capsys, argv)
    assert code == EXIT_BUDGET and out == "" and err == f"budget exceeded: {message}\n"
    assert time.process_time() - start < 1


@pytest.mark.parametrize(
    "op, left, right, digits",
    [
        ("pow", "2", "14284", 4300),
        ("pow", "10", "4299", 4300),
        ("mul", "9" * 2150, "9" * 2150, 4300),
        ("add", "1" + "0" * 4299, "1", 4300),  # a literal at the limit still parses
    ],
)
def test_cli_prints_a_coefficient_at_the_digit_limit(capsys, op, left, right, digits):
    code, out, _ = run_cli(capsys, ["ord-arith", op, left, right, "--json"])
    assert code == EXIT_OK and len(strict_json(out)["value"]) == digits


def test_cli_reads_natural_literals_outside_the_ordinals_at_the_digit_limit(capsys):
    # the literals of ef and of finite descriptors share the ordinal grammar's digit cap
    limit = "9" * 4300
    code, out, _ = run_cli(capsys, ["ef", "--kind", "orders", limit, "1", "--json"])
    assert code == EXIT_OK and strict_json(out)["inputs"]["left"] == int(limit)
    code, out, _ = run_cli(capsys, ["ba-invariants", f"finite({limit})", "--json"])
    assert code == EXIT_OK and strict_json(out)["value"]["atom_count"] == int(limit)
    code, _, err = run_cli(capsys, ["ef", "--kind", "ba", limit, "1"])
    assert code == EXIT_BUDGET and err == "budget exceeded: atom count exceeds the cap 5\n"


@pytest.mark.parametrize(
    "argv, code, payload",
    [
        (["--lower", "00", "--upper", "00,01,10"], EXIT_OK,
         {"inputs": {"algebra": "cyl", "lower": ["00"], "upper": ["0,10"]}, "value": "00,010"}),
        (["--lower", "bottom", "--upper", "top"], EXIT_OK,
         {"inputs": {"algebra": "cyl", "lower": ["bottom"], "upper": ["top"]}, "value": "0"}),
        ([], EXIT_OK, {"inputs": {"algebra": "cyl", "lower": [], "upper": []}, "value": "0"}),
        (["--algebra", "finite:3", "--lower", "1", "--upper", "7"], EXIT_OK,
         {"inputs": {"algebra": "finite:3", "lower": [1], "upper": [7]}, "value": 3}),
        (["--algebra", "finite:3", "--lower", "1", "--upper", "7", "--upper", "5"], EXIT_NEGATIVE,
         {"inputs": {"algebra": "finite:3", "lower": [1], "upper": [7, 5]}, "verdict": "not-found"}),
        (["--algebra", "finite:2", "--lower", "0x1", "--upper", "3"], EXIT_NEGATIVE,
         {"inputs": {"algebra": "finite:2", "lower": [1], "upper": [3]}, "verdict": "not-found"}),
        (["--upper", "0" * 15], EXIT_OK, {"inputs": {"algebra": "cyl", "lower": [], "upper": ["0" * 15]}, "value": "0" * 16}),
        # no depth cap: each Boolean operation is one pass over the cut points
        (["--lower", "1", "--upper", "1," + "0" * 40], EXIT_OK,
         {"inputs": {"algebra": "cyl", "lower": ["1"], "upper": ["0" * 40 + ",1"]}, "value": "0" * 41 + ",1"}),
    ],
)
def test_cli_interpolate_payloads_on_both_algebras(capsys, argv, code, payload):
    importlib.import_module("elemeq.saturation")  # its numpy import is no part of the verb's time
    start = time.process_time()
    got, out, _ = run_cli(capsys, ["interpolate", *argv, "--json"])
    assert got == code and strict_json(out) == {"verb": "interpolate", **payload}
    assert time.process_time() - start < 0.1


def test_cli_interpolate_cylinder(capsys):
    code, out, _ = run_cli(
        capsys, ["interpolate", "--lower", "00", "--upper", "00,01,10", "--json"]
    )
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["value"] == "00,010"


def test_cli_interpolate_finite_not_found_is_exit_three(capsys):
    code, out, _ = run_cli(
        capsys,
        ["interpolate", "--algebra", "finite:2", "--lower", "1", "--upper", "3", "--json"],
    )
    payload = strict_json(out)
    assert code == EXIT_NEGATIVE
    assert payload["verdict"] == "not-found"


def test_cli_interpolate_finite_found(capsys):
    code, out, _ = run_cli(
        capsys,
        ["interpolate", "--algebra", "finite:3", "--lower", "1", "--upper", "7", "--json"],
    )
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["value"] == 3


@pytest.mark.parametrize("mask, size", [("5", "of 3 bits"), ("-1", "below 0"), ("0x" + "f" * 4000, "of 16000 bits")],
                         ids=["short", "negative", "long"])
def test_cli_interpolate_names_an_out_of_range_mask_by_its_size(capsys, mask, size):
    # a mask of over 4300 decimal digits cannot be printed in decimal: CPython
    # refused the conversion, and the message never named the mask
    code, out, err = run_cli(capsys, ["interpolate", "--algebra", "finite:2", "--lower", mask])
    assert code == EXIT_PARSE and out == ""
    assert err == f"invalid input: mask {size} is out of range for 2 atoms\n"


@pytest.mark.parametrize(
    "lower, upper, value", [("bottom", "top", "0"), ("0", "top", "0,10")]
)
def test_cli_interpolate_cylinder_bottom_and_top(capsys, lower, upper, value):
    code, out, _ = run_cli(capsys, ["interpolate", "--lower", lower, "--upper", upper, "--json"])
    assert code == EXIT_OK and strict_json(out)["value"] == value


@pytest.mark.parametrize(
    "argv",
    [
        ["--lower", "02"],
        ["--algebra", "finite:2", "--lower", "x"],
        ["--algebra", "finite:2", "--lower", "4"],
        ["--algebra", "fin:2"],
    ],
)
def test_cli_interpolate_malformed_input_is_exit_two(capsys, argv):
    assert run_cli(capsys, ["interpolate", *argv])[0] == EXIT_PARSE


def test_cli_realize_positive(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "realize",
            "--cond",
            "x in {1}",
            "--points",
            "2",
            "--tol",
            "0.05",
            "--sort",
            "x=pos",
            "--json",
        ],
    )
    payload = strict_json(out)
    assert code == EXIT_OK
    assert payload["result"] == "realized"
    assert payload["max_deviation"] <= 0.05
    assert payload["certificates"]


def test_cli_realize_unsatisfiable_is_exit_three(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "realize",
            "--cond", "x in {1}",
            "--cond", "y in {1}",
            "--cond", "z in {1}",
            "--cond", "(* x y) in {0}",
            "--cond", "(* x z) in {0}",
            "--cond", "(* y z) in {0}",
            "--points", "2",
            "--tol", "0.25",
            "--sort", "x=pos", "--sort", "y=pos", "--sort", "z=pos",
            "--json",
        ],
    )
    payload = strict_json(out)
    assert code == EXIT_NEGATIVE
    assert payload["result"] == "unsatisfiable"
    assert payload["epsilon"] > 0.25
    assert len(payload["delta"]) == 6


def test_cli_realize_budget_is_exit_four(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "realize",
            "--cond", "x in {1}",
            "--cond", "y in {1}",
            "--cond", "(* x y) in {0}",
            "--points", "2",
            "--tol", "1e-9",
            "--max-boxes", "8",
            "--json",
        ],
    )
    payload = strict_json(out)
    assert code == EXIT_BUDGET
    assert payload["result"] == "inconclusive"
    assert payload["boxes_used"] >= 8


def test_cli_realize_after_a_failed_certification_prints_strict_json(capsys, monkeypatch):
    # a covering choice whose certificate misses the tolerance empties the
    # witness pools; the budget then runs out before they refill
    from elemeq import saturation

    certify = saturation._certify_assignment
    monkeypatch.setattr(saturation, "_certify_assignment", lambda *args: (certify(*args)[0], 1.0))
    code, out, _ = run_cli(capsys, ["realize", "--cond", "x in {0.5}", "--points", "2", "--tol", "0.01",
                                    "--max-boxes", "100", "--json"])
    assert code == EXIT_BUDGET
    payload = strict_json(out)
    assert payload["result"] == "inconclusive" and payload["best_deviation"] <= 1.0


def test_cli_orth(capsys):
    code, out, _ = run_cli(capsys, ["orth", "--points", "3", "--json"])
    payload = strict_json(out)
    assert code == EXIT_OK and payload["value"] == 3
    assert len(payload["witness_family"]) == 3


#: One call of each verb that exits 0 or 3 (interpolate finds no interpolant).
VERB_CALLS = [
    ["ord-arith", "add", "w", "1"],
    ["ord-eq", "w", "w"],
    ["calkin-eq", "w", "w"],
    ["ef", "--kind", "orders", "--rank", "2", "2", "3"],
    ["ba-invariants", "finite(2)"],
    ["ba-eq", "finite(2)", "finite(2)"],
    ["ba-enumerate", "3"],
    ["stone", "2"],
    ["translate", "forall x. x = x"],
    ["ceval", "(norm 1)", "--points", "1"],
    ["jspec", "1,2"],
    ["fmember", "1,2", "--at", "1"],
    ["code", "0.5", "--scale", "4"],
    ["interpolate", "--algebra", "finite:2", "--lower", "1", "--upper", "3"],
    ["realize", "--cond", "x in {1}", "--points", "1", "--tol", "0.5"],
    ["orth", "--points", "2"],
]


@pytest.mark.parametrize("argv", VERB_CALLS)
def test_cli_payload_starts_with_the_verb(capsys, argv):
    _, out, _ = run_cli(capsys, [*argv, "--json"])
    payload = strict_json(out)
    assert next(iter(payload)) == "verb" and payload["verb"] == argv[0]
    _, out, _ = run_cli(capsys, argv)
    assert out.splitlines()[0] == f"verb: {argv[0]}"


def test_cli_every_verb_rejects_seed(capsys):
    # stone samples its functoriality checks from a fixed seed whatever its
    # input, so no verb takes one
    code, out, _ = run_cli(capsys, ["stone", "3", "--json"])
    assert code == EXIT_OK and strict_json(out)["inputs"] == {"atoms": 3}
    assert sorted(argv[0] for argv in VERB_CALLS) == sorted(name for name, *_ in _VERBS)
    for argv in VERB_CALLS:
        code, out, err = run_cli(capsys, [*argv, "--seed", "5"])
        assert code == EXIT_PARSE, argv
        assert out == "" and "unrecognized arguments: --seed 5" in err, argv


def test_cli_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, ["ord-eq", "w", "w", "--json", "--out", str(target)])
    assert code == EXIT_OK and out == ""
    payload = strict_json(target.read_text())
    assert payload["verdict"] is True


def test_cli_calls_in_one_process_leave_no_state_for_the_next(tmp_path, capsys):
    # main builds its parser once per process: a rerun of each call, after all
    # of them have run once, prints, exits and writes byte for byte as before
    target = tmp_path / "result.json"
    calls = [
        ["realize", "--cond", "x in {1}", "--cond", "(* x y) in {0}", "--points", "2", "--tol", "0.1",
         "--sort", "x=pos", "--sort", "y=pos", "--json"],
        ["realize", "--cond", "x in [0,1]", "--points", "1", "--tol", "0.5"],
        ["interpolate", "--algebra", "finite:3", "--lower", "1", "--upper", "7", "--upper", "3"],
        ["interpolate", "--algebra", "finite:3", "--json"],
        ["ord-eq", "w", "--json"],
        ["ord-eq", "w", "w", "--json", "--out", str(target)],
        ["ef", "--kind", "orders", "--rank", "2", "2", "3"],
        ["ef", "w", "w+1"],
    ]

    def run(argv):
        code, out, err = run_cli(capsys, argv)
        written = target.read_bytes() if target.exists() else None
        target.unlink(missing_ok=True)
        return code, out, err, written

    first = [run(argv) for argv in calls]
    assert [code for code, *_ in first] == [0, 0, EXIT_NEGATIVE, 0, EXIT_PARSE, 0, 0, 0]
    assert first[5][1] == "" and strict_json(first[5][3])["verdict"] is True
    assert [run(argv) for argv in calls] == first


def test_cli_human_output_has_key_value_lines(capsys):
    code, out, _ = run_cli(capsys, ["ord-arith", "mul", "w", "w"])
    assert code == EXIT_OK
    assert "verb: ord-arith" in out
    assert "value: w^2" in out


def test_cli_unknown_verb_is_exit_two(capsys):
    assert main(["frobnicate"]) == EXIT_PARSE
    capsys.readouterr()


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("argv", VERB_CALLS)
def test_cli_dispatches_the_namespace_of_the_full_parser(capsys, monkeypatch, argv, json_flag):
    # main hands a call that starts with a verb to that verb's parser alone
    dispatched = []
    monkeypatch.setattr(cli, "_emit", lambda payload, args: dispatched.append(vars(args)))
    run_cli(capsys, [*argv, *json_flag])
    assert dispatched == [vars(_build_parser().parse_args([*argv, *json_flag]))]


def _words(text):
    """The text with each run of white space as one space, as argparse wraps to the terminal's width."""
    return " ".join(text.split())


@pytest.mark.parametrize(
    "argv, code, last_line",
    [
        ([], EXIT_PARSE, "elemeq: error: the following arguments are required: verb"),
        (["nope"], EXIT_PARSE, "elemeq: error: argument verb: invalid choice: 'nope'"),
        (["--json", "ord-eq", "w", "w"], EXIT_PARSE, "elemeq: error: unrecognized arguments: --json"),
        # extra arguments after a verb are reported in the top-level parser's words
        (["ord-eq", "w", "w", "x"], EXIT_PARSE, "elemeq: error: unrecognized arguments: x"),
    ],
    ids=["no-verb", "unknown-verb", "option-before-verb", "extra-argument"],
)
def test_cli_front_end_errors(capsys, argv, code, last_line):
    got, out, err = run_cli(capsys, argv)
    assert got == code and out == "" and err.splitlines()[-1].startswith(last_line)
    assert _words(err).startswith("usage: elemeq [-h] {ord-arith,ord-eq,")


def test_cli_help_lists_every_verb_and_each_verb_has_its_own(capsys):
    code, out, err = run_cli(capsys, ["-h"])
    assert code == EXIT_OK and err == "" and _words(out).startswith("usage: elemeq [-h] {ord-arith,")
    listed = re.findall(r"^    ([a-z-]+)\b", out, re.M)
    assert listed == [name for name, *_ in _VERBS] and len(listed) == 16
    code, out, err = run_cli(capsys, ["ord-eq", "-h"])
    assert code == EXIT_OK and err == ""
    assert _words(out).startswith("usage: elemeq ord-eq [-h] [--json] [--out FILE] left right ")


def test_cli_reads_sys_argv_when_given_none(capsys, monkeypatch):
    argv = ["ord-arith", "add", "w^w*2 + w^2*3 + 5", "w^3 + 1", "--json"]
    explicit = run_cli(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["elemeq", *argv])
    assert run_cli(capsys, None) == explicit and explicit[0] == EXIT_OK


def test_cli_precondition_violation_is_exit_two(capsys):
    code, _, err = run_cli(capsys, ["orth", "--points", "99"])
    assert code == EXIT_PARSE
    assert "invalid input" in err


def test_cli_unbound_variable_reports_scope_error(capsys):
    code, _, err = run_cli(capsys, ["translate", "forall x. x /\\ y = x"])
    assert code == EXIT_PARSE
    assert "unbound variable" in err


def test_cli_loads_numpy_only_for_the_verbs_that_need_it():
    script = (
        "import sys\n"
        "from elemeq.cli import main\n"
        "assert main(['ord-eq', 'w', 'w']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "main(['orth', '--points', '2'])\n"
        "assert 'numpy' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "argv, code",
    [(["ord-eq", "w", "w*2", "--json"], EXIT_OK), (["ord-eq", "w^", "w", "--json"], EXIT_PARSE)],
)
def test_module_entry_point_exits_with_the_verb_code(argv, code):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "elemeq.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == code, done.stderr
    if code == EXIT_OK:
        assert strict_json(done.stdout)["verdict"] is False
    else:
        assert done.stdout == "" and done.stderr.startswith("parse error: expected an exponent")
