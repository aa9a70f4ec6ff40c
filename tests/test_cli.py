"""Command-line surface: grammars, round trips, exit codes, JSON schema."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from elemeq.boolalg import (
    And,
    Eq,
    Forall,
    Implies,
    Or,
    TCompl,
    TJoin,
    TMeet,
    TVar,
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
from elemeq.cli import (
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
from elemeq.errors import ParseError, PreconditionError
from elemeq.ordinals import OMEGA, cnf_string, finite, omega_power, ord_add, ord_mul


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize(
    "text",
    ["forall . x = x", "x = x", "forall x. x =", "forall x. (x = x", "forall x. x & x"],
)
def test_parse_fo_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_fo_formula(text)


def test_fo_format_parse_identity_on_corpus():
    for phi in sentence_corpus(500):
        assert parse_fo_formula(format_fo(phi)) == phi


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


def test_format_term_pinned_string(capsys):
    term = CSub(CScale(complex(-0.5, 1e-9), CVar("x")), CConst((1 + 0j, 2.5j)))
    text = "(- (scale -0.5+1e-09j x) (const 1+0j 2.5j))"
    assert format_cformula(FNorm(term)) == f"(norm {text})"
    assert parse_condition(f"{text} in [0,4]").polynomial == term
    code, out, _ = run_cli(
        capsys, ["realize", "--cond", f"{text} in [0,4]", "--points", "2", "--tol", "0.5", "--json"]
    )
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["conditions"] == [f"{text} in [0.0,4.0]"]


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
    payload = json.loads(out)
    assert payload["verb"] == "ord-arith"
    assert payload["inputs"] == {"op": "add", "left": "w+1", "right": "w"}
    assert payload["value"] == "w*2"


def test_cli_ord_eq_cross_checks_agree(capsys):
    code, out, _ = run_cli(capsys, ["ord-eq", "w + w", "w*2", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["verdict"] is True
    assert payload["cross_checks"] == {"ef_rank_3": True}

    code, out, _ = run_cli(capsys, ["ord-eq", "w", "w*2", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["verdict"] is False
    (key, value), = payload["cross_checks"].items()
    assert key.startswith("ef_rank_") and value is False


def test_cli_calkin_eq(capsys):
    code, out, _ = run_cli(
        capsys, ["calkin-eq", "w^(w)*3 + w*2 + 1", "w^(w)*5 + w*2 + 1", "--json"]
    )
    payload = json.loads(out)
    assert code == EXIT_OK and payload["verdict"] is True


def test_cli_parse_failure_is_exit_two(capsys):
    code, _, err = run_cli(capsys, ["ord-arith", "add", "w^^2", "w"])
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_cli_ba_eq_golden_interval_pair(capsys):
    code, out, _ = run_cli(capsys, ["ba-eq", "intalg(w)", "intalg(w*2)", "--json"])
    assert code == EXIT_OK
    payload = json.loads(out)
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
    payload = json.loads(out)
    assert payload["verdict"] is False
    note = payload["conflict_note"]
    assert note["kind"] == "classification-conflict"
    assert note["left"]["descriptor"] == "fincof"
    assert note["right"]["descriptor"] == "P(omega)"


def test_cli_ba_eq_equivalent_pair_has_no_conflict(capsys):
    code, out, _ = run_cli(capsys, ["ba-eq", "finite(3)", "finite(3)", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["verdict"] is True
    assert "conflict_note" not in payload
    assert payload["cross_checks"] == {"ef_rank_3": True}


def test_cli_ba_invariants(capsys):
    code, out, _ = run_cli(capsys, ["ba-invariants", "intalg(w^2)", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["value"] == {"level": 2, "atom_count": 1, "atomless": False}
    assert payload["derivative_chain"][0] == "intalg(w^2)"


def test_cli_ba_enumerate(capsys):
    code, out, _ = run_cli(capsys, ["ba-enumerate", "10", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK and len(payload["value"]) == 10
    as_tuples = [tuple(sorted(item.items())) for item in payload["value"]]
    assert len(set(as_tuples)) == 10


def test_cli_stone(capsys):
    code, out, _ = run_cli(capsys, ["stone", "4", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["value"] == {"space_points": 4, "roundtrip": True}
    assert payload["cross_checks"]["functoriality_agrees"] is True


def test_cli_translate(capsys):
    code, out, _ = run_cli(capsys, ["translate", "forall x. x /\\ x = x", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["inputs"]["quantifier_rank"] == 1
    parse_cformula(payload["value"])  # the output is itself valid input


def test_cli_ceval_ok_and_budget(capsys):
    code, out, _ = run_cli(
        capsys,
        ["ceval", "(sup p :proj (norm (- (* p p) p)))", "--points", "2", "--json"],
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["certificate"]["lower"] == 0.0
    assert payload["certificate"]["upper"] <= 1e-6

    code, out, _ = run_cli(
        capsys,
        [
            "ceval",
            "(sup x :pos (norm (* x (- 1 x))))",
            "--points",
            "2",
            "--tol",
            "1e-12",
            "--max-boxes",
            "50",
            "--json",
        ],
    )
    payload = json.loads(out)
    assert code == EXIT_BUDGET
    certificate = payload["certificate"]
    assert certificate["lower"] <= 0.25 <= certificate["upper"]


def test_cli_ceval_with_parameter(capsys):
    code, out, _ = run_cli(
        capsys,
        ["ceval", "(norm (- a (star a)))", "--points", "2", "--param", "a=1j,0", "--json"],
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert abs(payload["certificate"]["lower"] - 2.0) <= 1e-6


def test_cli_ceval_encloses_the_value_under_a_large_parameter(capsys):
    # min over x of max(|10x - 1|, |10x - 3|) is 1, at x = 0.2 only
    phi = "(inf x :sa (max (norm (- (* c x) (const 1))) (norm (- (* c x) (const 3)))))"
    code, out, _ = run_cli(
        capsys, ["ceval", phi, "--points", "1", "--tol", "0.001", "--param", "c=10", "--json"]
    )
    certificate = json.loads(out)["certificate"]
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
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["value"] == [["1+0j", "0j"], ["2+0j", "1j"]]


def test_cli_fmember(capsys):
    code, out, _ = run_cli(capsys, ["fmember", "1,2", "--at", "1", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["verdict"] is True
    assert payload["cross_checks"]["absolute_sum_not_invertible"] is True

    code, out, _ = run_cli(capsys, ["fmember", "1,2", "--at", "3", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["verdict"] is False
    assert payload["cross_checks"]["solvable"] is True


def test_cli_code_reconstruct(capsys):
    code, out, _ = run_cli(
        capsys, ["code", "0.3+0.4j, -0.2", "--scale", "8", "--reconstruct", "--json"]
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["reconstruction"]["error"] <= payload["reconstruction"]["bound"] == 0.25


def test_cli_interpolate_cylinder(capsys):
    code, out, _ = run_cli(
        capsys, ["interpolate", "--lower", "00", "--upper", "00,01,10", "--json"]
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["value"] == "000,001,010"


def test_cli_interpolate_finite_not_found_is_exit_three(capsys):
    code, out, _ = run_cli(
        capsys,
        ["interpolate", "--algebra", "finite:2", "--lower", "1", "--upper", "3", "--json"],
    )
    payload = json.loads(out)
    assert code == EXIT_NEGATIVE
    assert payload["verdict"] == "not-found"


def test_cli_interpolate_finite_found(capsys):
    code, out, _ = run_cli(
        capsys,
        ["interpolate", "--algebra", "finite:3", "--lower", "1", "--upper", "7", "--json"],
    )
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["value"] == 3


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
    payload = json.loads(out)
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
    payload = json.loads(out)
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
    payload = json.loads(out)
    assert code == EXIT_BUDGET
    assert payload["result"] == "inconclusive"
    assert payload["boxes_used"] >= 8


def test_cli_orth(capsys):
    code, out, _ = run_cli(capsys, ["orth", "--points", "3", "--json"])
    payload = json.loads(out)
    assert code == EXIT_OK and payload["value"] == 3
    assert len(payload["witness_family"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
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
    ],
)
def test_cli_payload_starts_with_the_verb(capsys, argv):
    _, out, _ = run_cli(capsys, [*argv, "--json"])
    payload = json.loads(out)
    assert next(iter(payload)) == "verb" and payload["verb"] == argv[0]
    _, out, _ = run_cli(capsys, argv)
    assert out.splitlines()[0] == f"verb: {argv[0]}"


def test_cli_seed_belongs_to_stone(capsys):
    code, out, _ = run_cli(capsys, ["stone", "3", "--seed", "5", "--json"])
    assert code == EXIT_OK and json.loads(out)["inputs"]["seed"] == 5
    code, out, err = run_cli(capsys, ["ord-eq", "w", "w", "--seed", "5"])
    assert code == EXIT_PARSE
    assert out == "" and "unrecognized arguments: --seed 5" in err


def test_cli_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, ["ord-eq", "w", "w", "--json", "--out", str(target)])
    assert code == EXIT_OK and out == ""
    payload = json.loads(target.read_text())
    assert payload["verdict"] is True


def test_cli_human_output_has_key_value_lines(capsys):
    code, out, _ = run_cli(capsys, ["ord-arith", "mul", "w", "w"])
    assert code == EXIT_OK
    assert "verb: ord-arith" in out
    assert "value: w^2" in out


def test_cli_unknown_verb_is_exit_two(capsys):
    assert main(["frobnicate"]) == EXIT_PARSE
    capsys.readouterr()


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
