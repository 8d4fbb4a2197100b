import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefchange.exceptions import FormulaNestingError, FormulaSyntaxError, UnknownAtomError
from beliefchange.lang import (
    _MAX_NESTING,
    MixedSet,
    _atom_masks,
    _operands,
    _split_models,
    all_worlds,
    cn_extended_member,
    dnf_of_worlds,
    models,
    parse_world,
    world_str,
)

ATOMS = ("p", "q")
FULL = all_worlds(2)


def mod(text, atoms=ATOMS):
    return models(text, atoms)


def worlds(*names):
    """World mask of the named worlds."""
    return sum(1 << parse_world(name, 2) for name in set(names))


# ---------------------------------------------------------------------------
# Formula trees, local to the tests: a name ('p', 'q', 'true', 'false'),
# ('~', f), or (op, f, g) for op in '&', '|', '->', '<->'.  They are
# rendered to text for ``models`` and evaluated world by world as its
# reference.

_PREC = {"<->": 1, "->": 2, "|": 3, "&": 4, "~": 5}


def render(f, min_prec=0):
    """Text of a tree with only the parentheses that precedence needs."""
    if isinstance(f, str):
        return f
    if f[0] == "~":
        return "~" + render(f[1], _PREC["~"])
    op, left, right = f
    prec = _PREC[op]
    if op in ("&", "|"):
        text = f"{render(left, prec)} {op} {render(right, prec + 1)}"
    else:  # -> and <-> associate to the right
        text = f"{render(left, prec + 1)} {op} {render(right, prec)}"
    return f"({text})" if prec < min_prec else text


def render_full(f):
    """Text of a tree with every compound subformula parenthesised."""
    if isinstance(f, str):
        return f
    if f[0] == "~":
        return f"(~{render_full(f[1])})"
    return f"({render_full(f[1])} {f[0]} {render_full(f[2])})"


def truth(f, valuation):
    """Truth value of a tree under a dict from atom name to bool."""
    if isinstance(f, str):
        return {"true": True, "false": False}[f] if f in ("true", "false") else valuation[f]
    if f[0] == "~":
        return not truth(f[1], valuation)
    a, b = truth(f[1], valuation), truth(f[2], valuation)
    return {"&": a and b, "|": a or b, "->": not a or b, "<->": a == b}[f[0]]


def truth_table(f, atoms=ATOMS):
    """Model mask of a tree: world w sets the i-th atom when bit n-1-i of
    w is 1, the first declared atom being the most significant."""
    n = len(atoms)
    return sum(
        1 << w
        for w in range(1 << n)
        if truth(f, {a: bool(w >> (n - 1 - i) & 1) for i, a in enumerate(atoms)})
    )


# ---------------------------------------------------------------------------
# Parsing


def test_parse_conjunction_of_literal_and_negation():
    assert mod("p & ~q") == worlds("10")
    assert mod("p & ~q") == truth_table(("&", "p", ("~", "q")))


def test_implication_equals_material_conditional():
    assert mod("p -> q") == mod("~p | q")


def test_unbalanced_parenthesis_reports_offset():
    with pytest.raises(FormulaSyntaxError) as err:
        mod("(p &")
    assert err.value.position == 4


def test_unknown_atom_reports_name_and_offset():
    with pytest.raises(UnknownAtomError) as err:
        mod("p & r")
    assert err.value.name == "r"
    assert err.value.position == 4
    assert str(err.value) == "unknown atom 'r' at offset 4"


def test_precedence_and_associativity():
    # ~ > & > | > -> > <->, with -> and <-> right-associative
    assert mod("~p & q | p -> q <-> q") == mod("((((~p) & q) | p) -> q) <-> q")
    assert mod("p -> q -> false") == mod("p -> (q -> false)")
    assert mod("p <-> q <-> false") == mod("p <-> (q <-> false)")
    # the groupings above are not equivalent to the other ones
    assert mod("p -> q -> false") != mod("(p -> q) -> false")
    assert mod("~p & q | p -> q <-> q") != mod("~p & (q | p -> q <-> q)")
    # each binary connective against the next weaker one, both ways round
    assert mod("p | q & ~p") == mod("p | (q & ~p)") != mod("(p | q) & ~p")
    assert mod("~p & q | p") == mod("(~p & q) | p") != mod("~p & (q | p)")
    assert mod("q -> p & q") == mod("q -> (p & q)") != mod("(q -> p) & q")
    assert mod("~p | q -> p") == mod("(~p | q) -> p") != mod("~p | (q -> p)")
    assert mod("p <-> ~q -> q") == mod("p <-> (~q -> q)") != mod("(p <-> ~q) -> q")
    assert mod("p -> q <-> ~q") == mod("(p -> q) <-> ~q") != mod("p -> (q <-> ~q)")
    # negation binds tightest and stacks
    assert mod("~p -> q") == mod("(~p) -> q") != mod("~(p -> q)")
    assert mod("~~p") == mod("p")
    assert mod("~ ~(~p)") == FULL & ~mod("p")
    # whitespace is optional between tokens
    assert mod("~p&q|p->q<->q") == mod("~p & q | p -> q <-> q")
    tree = ("<->", ("->", ("|", ("&", ("~", "p"), "q"), "p"), "q"), "q")
    assert mod("~p & q | p -> q <-> q") == truth_table(tree)


def test_constants_and_parens():
    assert mod("true") == FULL
    assert mod("false") == 0
    assert mod("(p | q) & ~(p & q)") == worlds("01", "10")


@pytest.mark.parametrize("text", ["", "p q", "p &", "& p", "p -> -> q", "(p))", "p @ q"])
def test_bad_inputs_raise_syntax_errors(text):
    with pytest.raises(FormulaSyntaxError):
        mod(text)


@pytest.mark.parametrize("text", [None, b"p & q", 3])
def test_text_that_is_not_a_str_raises_type_error(text):
    with pytest.raises(TypeError):
        mod(text)


# ---------------------------------------------------------------------------
# The recursive-descent parser that ``models`` replaced, kept as its
# oracle: a separate tokenizer, then one method per precedence level.

_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<op><->|->|[~&|()]))")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            # Skip leading whitespace manually to report the right offset.
            stripped = pos
            while stripped < len(text) and text[stripped].isspace():
                stripped += 1
            if stripped == len(text):
                break
            raise FormulaSyntaxError(f"unexpected character {text[stripped]!r}", stripped)
        token = match.group("ident") or match.group("op")
        tokens.append((token, match.end() - len(token)))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent that evaluates as it goes: every rule returns
    the world mask of the text it consumed."""

    def __init__(self, text: str, atoms: tuple[str, ...]):
        self.text = text
        self.atom_masks = _atom_masks(atoms)
        self.full = all_worlds(len(atoms))
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def offset(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def take(self) -> tuple[str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def parse(self) -> int:
        mask = self.parse_iff()
        if self.index != len(self.tokens):
            raise FormulaSyntaxError(f"unexpected token {self.peek()!r}", self.offset())
        return mask

    def parse_iff(self) -> int:
        left = self.parse_implies()
        if self.peek() == "<->":
            self.take()
            return self.full & ~(left ^ self.parse_iff())
        return left

    def parse_implies(self) -> int:
        left = self.parse_or()
        if self.peek() == "->":
            self.take()
            return (self.full & ~left) | self.parse_implies()
        return left

    def parse_or(self) -> int:
        left = self.parse_and()
        while self.peek() == "|":
            self.take()
            left |= self.parse_and()
        return left

    def parse_and(self) -> int:
        left = self.parse_unary()
        while self.peek() == "&":
            self.take()
            left &= self.parse_unary()
        return left

    def parse_unary(self) -> int:
        token = self.peek()
        if token is None:
            raise FormulaSyntaxError("unexpected end of input", self.offset())
        if token == "~":
            self.take()
            return self.full & ~self.parse_unary()
        if token == "(":
            self.take()
            inner = self.parse_iff()
            if self.peek() != ")":
                raise FormulaSyntaxError("expected ')'", self.offset())
            self.take()
            return inner
        if token in ("&", "|", "->", "<->", ")"):
            raise FormulaSyntaxError(f"unexpected token {token!r}", self.offset())
        text, offset = self.take()
        if text == "true":
            return self.full
        if text == "false":
            return 0
        if text not in self.atom_masks:
            raise UnknownAtomError(text, offset)
        return self.atom_masks[text]


def _oracle_models(text, atoms):
    return _Parser(text, tuple(atoms)).parse()


def _outcome(parse, text, atoms):
    """The mask a parse gives, or its exception's type, text and offset."""
    try:
        return parse(text, atoms)
    except (FormulaSyntaxError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# Tokens only, so that more strings parse; then also atoms never
# declared, a tab, and the characters that start no token or only part
# of one.
_TOKENS = ("p", "q", "true", "false", "~", "&", "|", "->", "<->", "(", ")", " ")
_PIECES = _TOKENS + ("r", "s", "t", "pq", "p1", "\t", "<", "-", ">", "1", "_", "@")


def test_models_equals_the_recursive_descent_oracle_on_random_text():
    rng = random.Random(19)
    atom_lists = (("p",), ("p", "q"), ("p", "q", "r"))
    for _ in range(100_000):
        pieces = rng.choice((_TOKENS, _PIECES))
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
        atoms = rng.choice(atom_lists)
        assert _outcome(models, text, atoms) == _outcome(_oracle_models, text, atoms), text


def _mostly_formula(rng, length, atoms):
    """A text of at most ``length`` pieces that is a formula over
    ``atoms`` but for about one piece in a hundred, drawn from
    ``_PIECES``; so a fair share of the texts parse, through nested
    parentheses and chains of connectives."""
    pieces, depth, starting = [], 0, True
    while len(pieces) + depth + starting < length:
        if rng.random() < 0.01:
            piece = rng.choice(_PIECES)
        elif starting:
            piece = rng.choice(atoms + ("true", "false", "~", "("))
        else:
            piece = rng.choice(("&", "|", "->", "<->") + (")",) * (depth > 0))
        depth += (piece == "(") - (piece == ")")
        if piece != " ":
            starting = piece in ("~", "(", "&", "|", "->", "<->")
        pieces.append(piece)
    pieces += [atoms[0]] * starting + [")"] * max(depth, 0)
    return " ".join(pieces) if rng.random() < 0.5 else "".join(pieces)


# Blanks that ``str.strip`` and the tokenizer both skip, the common ones
# weighted up; and pieces that make a DNF-shaped text no disjunction of
# conjunctions of literals, among them a zero-width space, which is no
# blank.
_BLANKS = ("", " ") * 10 + ("  ", "\t", "\n", "\x1c", "\xa0")
_NEAR_MISSES = (
    "~~p", "~ p", "~~", "p||q", "&&", "p &", "& p", "p |", "r", "pq", "~x", "@",
    "\u200bp", "(p)", "(p", "p)", "p -> q", "p <-> q", "~(p)",
)


def _dnf_shaped(rng, atoms):
    """A disjunction of conjunctions of literals over ``atoms`` and the
    constants, the shape ``dnf_of_worlds`` writes, with a blank drawn
    from ``_BLANKS`` on each side of each literal; in about one text in
    twenty, one literal is replaced by a piece from ``_NEAR_MISSES``."""
    literals = [sign + name for sign in ("", "~") for name in atoms + ("true", "false")]
    terms = [
        [rng.choice(literals) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 6))
    ]
    if rng.random() < 0.05:
        term = rng.choice(terms)
        term[rng.randrange(len(term))] = rng.choice(_NEAR_MISSES)
    return "|".join(
        "&".join(rng.choice(_BLANKS) + literal + rng.choice(_BLANKS) for literal in term)
        for term in terms
    )


def test_models_equals_the_oracle_on_longer_text_over_up_to_four_atoms():
    rng = random.Random(24)
    atom_lists = (("p",), ("p", "q"), ("p", "q", "r"), ("p", "q", "r", "s"))
    parsed = {"pieces": 0, "formula": 0, "dnf": 0}
    for _ in range(30_000):
        length = rng.randrange(41)
        atoms = rng.choice(atom_lists)
        shape = rng.choice(tuple(parsed))
        if shape == "pieces":
            text = "".join(rng.choice(rng.choice((_TOKENS, _PIECES))) for _ in range(length))
        elif shape == "formula":
            text = _mostly_formula(rng, length, atoms)
        else:
            text = _dnf_shaped(rng, atoms)
        outcome = _outcome(models, text, atoms)
        assert outcome == _outcome(_oracle_models, text, atoms), text
        parsed[shape] += isinstance(outcome, int)
    assert parsed["formula"] > 2000
    assert 9000 < parsed["dnf"] < 9900  # some near misses fail, the rest parse in full


@pytest.mark.parametrize(
    "nest, formula",
    [
        (lambda k: "(" * k + "p" + ")" * k, "p"),
        (lambda k: "~" * k + "p", "p"),  # an even number of them
        (lambda k: "p -> " * k + "p", "true"),  # each '->' waits for its right side
    ],
    ids=["parentheses", "negations", "implications"],
)
def test_nesting_limit_is_fixed(nest, formula):
    assert mod(nest(_MAX_NESTING)) == mod(formula)
    with pytest.raises(FormulaNestingError) as err:
        mod(nest(_MAX_NESTING + 1))
    assert err.value.position == 0
    assert str(err.value) == "formula nested too deeply at offset 0"


def test_left_associated_chains_never_reach_the_nesting_limit():
    # the leading '(p)' sends each chain past the split pass to the loop
    assert mod(" & ".join(["(p)"] + ["p"] * (3 * _MAX_NESTING))) == mod("p")
    assert mod(" | ".join(["(p)", "~q"] * _MAX_NESTING)) == mod("p | ~q")


def test_nested_formula_parses_deep_in_the_callers_stack():
    formula = "(" * 400 + "p" + ")" * 400
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1

    def deeper(frames):
        return deeper(frames - 1) if frames else mod(formula)

    assert deeper(900 - depth) == mod("p")  # parsed about 900 frames deep


def test_atom_list_validation():
    # a bad atom list raises before the text is read, as in the oracle
    for atoms, message in [
        ([], "atom list must be nonempty"),
        (["p", "q", "r", "s", "t"], "at most 4 atoms supported, got 5"),
        (["p", "p"], "duplicate atom 'p'"),
        (["true"], "invalid atom name 'true'"),
    ]:
        for text in ("p", "p @", "(p", "x"):
            with pytest.raises(ValueError) as err:
                models(text, atoms)
            assert str(err.value) == message
            assert _outcome(models, text, atoms) == _outcome(_oracle_models, text, atoms)


# ---------------------------------------------------------------------------
# Models and entailment


def test_models_of_single_atom():
    assert mod("p") == worlds("11", "10")


def test_models_of_contradiction_empty():
    assert mod("p & ~p") == 0


def test_models_of_disjunction():
    assert mod("p | q") == worlds("11", "10", "01")


def entails(gamma, f):
    """Classical consequence from plain sentences, as the package decides it."""
    plain = FULL
    for g in gamma:
        plain &= mod(g)
    return cn_extended_member(MixedSet(plain_models=plain, cond_pairs=frozenset()), mod(f))


def test_entails_modus_ponens():
    assert entails(["p", "p -> q"], "q")


def test_entails_tautology_from_nothing():
    assert entails([], "p | ~p")


def test_entails_finds_countermodel():
    assert not entails(["p"], "q")


# ---------------------------------------------------------------------------
# Formula algebra on text, exhaustively at depth <= 2 and sampled at
# depth <= 3 over three atoms

_DEPTH0 = ("p", "q", "true", "false")


def _grow(pool):
    grown = list(pool)
    grown.extend(("~", f) for f in pool)
    for f in pool:
        for g in pool:
            grown.extend((op, f, g) for op in ("&", "|", "->", "<->"))
    return grown


_DEPTH1 = _grow(_DEPTH0)


def test_negation_is_complement_for_all_depth2_formulas():
    for f in _grow(_DEPTH1):
        assert mod(render(("~", f))) == FULL & ~mod(render(f))


def test_binary_connectives_are_set_algebra_on_depth1_pairs():
    table = {render(f, 5): mod(render(f)) for f in _DEPTH1}
    for f, mf in table.items():
        for g, mg in table.items():
            assert mod(f"{f} & {g}") == mf & mg
            assert mod(f"{f} | {g}") == mf | mg
            assert mod(f"{f} -> {g}") == (FULL & ~mf) | mg
            assert mod(f"{f} <-> {g}") == (mf & mg) | (FULL & ~mf & ~mg)


ATOMS3 = ("p", "q", "r")


def _formula_strategy(atoms=ATOMS):
    base = st.sampled_from(atoms + ("true", "false"))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(lambda f: ("~", f)),
            st.tuples(st.sampled_from(("&", "|", "->", "<->")), kids, kids),
        ),
        max_leaves=8,
    )


@settings(max_examples=300, deadline=None)
@given(_formula_strategy(ATOMS3))
def test_rendered_formula_reparses_to_same_models(f):
    expected = truth_table(f, ATOMS3)
    assert models(render(f), ATOMS3) == expected
    assert models(render_full(f), ATOMS3) == expected


@settings(max_examples=300, deadline=None)
@given(_formula_strategy(), _formula_strategy())
def test_de_morgan(f, g):
    assert mod(render(("~", ("&", f, g)))) == mod(render(("|", ("~", f), ("~", g))))


@settings(max_examples=200, deadline=None)
@given(st.lists(_formula_strategy(), max_size=3), _formula_strategy(), _formula_strategy())
def test_entails_is_reflexive_monotone_and_cuts(gamma, f, g):
    gamma, f, g = [render(h) for h in gamma], render(f), render(g)
    assert entails(gamma + [f], f)
    if entails(gamma, f):
        assert entails(gamma + [g], f)
        if entails(gamma + [f], g):
            assert entails(gamma, g)


# ---------------------------------------------------------------------------
# Canonical DNF and worlds


def test_dnf_round_trips_every_proposition():
    for prop in range(16):
        assert mod(dnf_of_worlds(prop, ATOMS)) == prop


def test_every_dnf_text_is_decided_by_the_split_pass():
    # None from the split pass would send the text on to the full parse
    for atoms in (("p",), ("p", "q"), ("p", "q", "r")):
        operands = _operands(atoms)
        for prop in range(1 << (1 << len(atoms))):
            assert _split_models(dnf_of_worlds(prop, atoms), operands) == prop


def test_dnf_terms_sorted_by_bit_string():
    assert dnf_of_worlds(worlds("10", "00"), ATOMS) == "~p & ~q | p & ~q"
    assert dnf_of_worlds(0, ATOMS) == "false"


@pytest.mark.parametrize("mask", [1 << 4, 1 << 10, -3, -1, 2.0, True, None, "3"])
def test_dnf_of_worlds_rejects_a_mask_outside_the_world_set(mask):
    # before, 1 << 10 rendered as "p & ~q" and -3 as "~p & ~q"
    with pytest.raises(ValueError):
        dnf_of_worlds(mask, ATOMS)


def test_world_str_round_trip():
    for w in range(4):
        assert parse_world(world_str(w, 2), 2) == w
    with pytest.raises(ValueError):
        parse_world("2", 2)
    with pytest.raises(ValueError):
        parse_world("101", 2)


# ---------------------------------------------------------------------------
# Mixed sets and extended consequence


def listed(plain=(), conds=()):
    """A listed set: the conjunction of the plain texts, and the
    conditionals as (antecedent, consequent) text pairs."""
    plain_models = FULL
    for f in plain:
        plain_models &= mod(f)
    return MixedSet(
        plain_models=plain_models, cond_pairs=frozenset((mod(a), mod(b)) for a, b in conds)
    )


def test_plain_member_by_classical_consequence():
    assert cn_extended_member(listed(["p"]), mod("p | q"))


def test_conditionals_contribute_nothing_to_plain_part():
    assert not cn_extended_member(listed(conds=[("p", "q")]), mod("q"))


def test_listed_sets_do_not_contain_weakened_conditionals():
    delta = listed(conds=[("p", "q")])
    assert cn_extended_member(delta, (mod("p"), mod("q")))
    assert cn_extended_member(delta, (mod("p"), mod("q & (p | ~p)")))  # same sentences
    assert not cn_extended_member(delta, (mod("p"), mod("q | ~p")))


def test_prop2_engine_example():
    # After contracting so that the input is no longer believed, the
    # union with the input never regains the top-conditional for it,
    # even though revision's conditional set contains that conditional.
    from beliefchange.operators import Contraction, Revision, contract, revise
    from beliefchange.tpo import conditional_set, parse_tpo

    m0 = parse_tpo("00 | 11 | 01 10", 2)
    p = mod("p")
    contracted = contract(m0, mod("~p"), Contraction.NATURAL)
    assert contracted.masks[0] & ~p  # input not believed after contraction
    naive = conditional_set(contracted).adding_plain(p)
    top_p = (FULL, p)
    assert not cn_extended_member(naive, top_p)
    revised = conditional_set(revise(m0, p, Revision.LEXICOGRAPHIC))
    assert cn_extended_member(revised, top_p)
    assert cn_extended_member(revised, (0, 0))  # an inconsistent antecedent, vacuously


def test_strongest_map_intersects_consequents():
    delta = listed(conds=[("p", "q"), ("p", "~q | ~p")])
    assert delta.strongest_map() == {mod("p"): mod("q") & mod("~q | ~p")}
