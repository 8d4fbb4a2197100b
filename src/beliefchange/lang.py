"""Propositional core: worlds, formulas as model sets, classical consequence.

A session fixes an ordered list of atoms (at most four).  A *world* is a
valuation of those atoms, encoded as an integer whose binary digits, most
significant first, give the truth values in declared order; ``world_str``
renders exactly that bit-string, so over atoms ``[p, q]`` the world ``10``
makes ``p`` true and ``q`` false.

A formula is known only by its set of worlds: ``models`` parses formula
text straight to that set, evaluating each connective on world masks as
it goes, and no other form of a formula is built.  Two formulas are the
same sentence exactly when their model sets coincide, which is all the
operators and postulates ever ask (the extensionality postulate (K*6)
of AGM).  ``dnf_of_worlds`` gives a model set back a text form.  A
conditional ``A => B`` is an (antecedent, consequent) pair of masks.

A set of worlds, here and in every other module, is an int mask with
bit ``w`` set for world ``w``: ``all_worlds(n)`` has every bit of the
2^n worlds set, intersection is ``&``, complement within the world set
is ``all_worlds(n) & ~s``, and ``s`` is a subset of ``t`` exactly when
``s & ~t`` is 0.

Grammar, bit-exact::

    atom     := [a-zA-Z][a-zA-Z0-9_]*        ('true'/'false' reserved)
    unary    := '~'
    binary   := '&' | '|' | '->' | '<->'      (precedence high to low)
    parens   := '(' ... ')'

``->`` and ``<->`` associate to the right.

``models`` first tries one split pass, for text that is a disjunction of
conjunctions of literals (an atom or a constant, with or without one
leading ``~``), the shape ``dnf_of_worlds`` writes: it splits the text
on ``|``, each part on ``&``, and looks each stripped piece up in one
table of literals.  It declines at the first piece that is no literal
(an empty piece, parentheses, an arrow, ``~~p``, ``~ p``, an unknown
word or a stray character); as ``&`` binds tighter than ``|``, a text
it accepts has exactly the mask the full parse gives.  A declined text,
and a text that is not a ``str``, goes to the full parse, the only
source of every error.  That parse splits the text into tokens with one
``findall`` and parses them in one loop over an explicit operator stack,
in the manner of Dijkstra's shunting-yard algorithm: the pending ``~``,
``(`` and binary connectives wait on the stack, and each compound's mask
is computed once its right operand is known to be complete.  One table,
``_BINARY``, gives each binary connective its precedence, its
associativity and the mask of the compound.  Token offsets are computed
only for an error: the text is then scanned again, and a character that
starts no token is reported first, at its own offset.  At most
``_MAX_NESTING`` (1000) ``~``, ``(`` and binary connectives may be
pending at once; a formula nested deeper is a syntax error at offset 0,
whatever the caller's stack depth.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from typing import Sequence

from .exceptions import FormulaNestingError, FormulaSyntaxError, UnknownAtomError

MAX_ATOMS = 4


# ---------------------------------------------------------------------------
# Atoms and worlds

_ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def check_atoms(atoms: Sequence[str]) -> tuple[str, ...]:
    """Validate a declared atom list and return it as a tuple."""
    atoms = tuple(atoms)
    if not atoms:
        raise ValueError("atom list must be nonempty")
    if len(atoms) > MAX_ATOMS:
        raise ValueError(f"at most {MAX_ATOMS} atoms supported, got {len(atoms)}")
    seen = set()
    for name in atoms:
        if not _ATOM_RE.match(name) or name in ("true", "false"):
            raise ValueError(f"invalid atom name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate atom {name!r}")
        seen.add(name)
    return atoms


@lru_cache(maxsize=None)
def all_worlds(n_atoms: int) -> int:
    """The mask of every world over ``n_atoms`` atoms."""
    return (1 << (1 << n_atoms)) - 1


class _AscendingWorlds(dict):
    """mask -> its worlds in ascending order, computed on first lookup;
    for ranks, text forms and error messages."""

    def __missing__(self, mask: int) -> tuple:
        worlds = self[mask] = tuple(w for w in range(mask.bit_length()) if mask >> w & 1)
        return worlds


_WORLDS = _AscendingWorlds()


def world_str(world: int, n_atoms: int) -> str:
    """Bit-string of a world in declared atom order, e.g. ``10``."""
    return format(world, f"0{n_atoms}b")


def parse_world(text: str, n_atoms: int) -> int:
    if len(text) != n_atoms or any(c not in "01" for c in text):
        raise ValueError(f"world {text!r} is not a {n_atoms}-bit string")
    return int(text, 2)


def atom_holds(world: int, index: int, n_atoms: int) -> bool:
    return bool((world >> (n_atoms - 1 - index)) & 1)


@lru_cache(maxsize=None)
def _atom_masks(atoms: tuple) -> dict:
    """Each declared atom mapped to the mask of the worlds where it is true."""
    n = len(check_atoms(atoms))
    return {
        name: sum(1 << w for w in range(1 << n) if atom_holds(w, i, n))
        for i, name in enumerate(atoms)
    }


# ---------------------------------------------------------------------------
# Parsing

# The tokens of a text, and each character that starts none as a token
# of its own: one ``findall``, no offsets.
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|<->|->|[~&|()]|\S")

# The same scan with offsets, run only to build an error: group 1 is a
# token; group 2 is the first character that starts none.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*|<->|->|[~&|()])|(\S))")

# Binary connective -> (precedence, associates to the right, the mask of
# the compound from its operands' masks a, b and the full mask).
_BINARY = {
    "<->": (1, True, lambda a, b, full: full & ~(a ^ b)),
    "->": (2, True, lambda a, b, full: full & ~a | b),
    "|": (3, False, lambda a, b, full: a | b),
    "&": (4, False, lambda a, b, full: a & b),
}

# The most '~', '(' and binary connectives a parse keeps pending.
_MAX_NESTING = 1000

# Operator-stack entries: a pending binary connective is (precedence,
# mask, left operand's mask); these three rank below every connective.
_BOTTOM = (0, None, None)
_OPEN = (0, "(", None)
_NOT = (0, "~", None)


@lru_cache(maxsize=None)
def _operands(atoms: tuple) -> dict:
    """Each literal, a constant or declared atom with or without one
    leading '~', mapped to its mask.  The shunting-yard loop looks up only
    the unnegated ones, the tokens that are a whole formula."""
    full = all_worlds(len(atoms))
    plain = {**_atom_masks(atoms), "true": full, "false": 0}
    return {**plain, **{"~" + name: full & ~mask for name, mask in plain.items()}}


def _split_models(text: str, operands: dict) -> int | None:
    """The mask of ``text`` if it is a disjunction of conjunctions of
    literals, else None: split on '|', each part on '&', and look up each
    stripped piece."""
    value = 0
    try:
        for part in text.split("|"):
            term = -1
            for piece in part.split("&"):
                term &= operands[piece.strip()]
            value |= term
    except KeyError:
        return None
    return value


def models(text: str, atoms: Sequence[str]) -> int:
    """The model set, as a world mask, of a formula over the declared
    atoms; raises ``FormulaSyntaxError`` on text outside the grammar."""
    operands = _operands(tuple(atoms))
    if isinstance(text, str):
        value = _split_models(text, operands)
        if value is not None:
            return value
    full = operands["true"]
    stack = [_BOTTOM]
    value = None  # the mask of the operand just read; None where one starts
    tokens = _WORD_RE.findall(text)
    tokens.append(None)  # the end of the text, where the loop returns or raises
    for index, token in enumerate(tokens):
        if value is None:
            value = operands.get(token)
            if value is None:
                if token != "~" and token != "(":
                    if token is None:
                        raise _error(text, index, "unexpected end of input")
                    if token in _BINARY or token == ")":
                        raise _error(text, index, f"unexpected token {token!r}")
                    raise _error(text, index)
                if len(stack) > _MAX_NESTING:
                    raise _error(text, None)
                stack.append(_NOT if token == "~" else _OPEN)
                continue
        else:
            entry = _BINARY.get(token)
            if entry is not None:
                precedence, right, mask = entry
                floor = precedence if right else precedence - 1
                while stack[-1][0] > floor:
                    _, compound, left = stack.pop()
                    value = compound(left, value, full)
                if len(stack) > _MAX_NESTING:
                    raise _error(text, None)
                stack.append((precedence, mask, value))
                value = None
                continue
            while stack[-1][0]:
                _, compound, left = stack.pop()
                value = compound(left, value, full)
            if token is None and stack[-1] is _BOTTOM:
                return value
            if stack[-1] is not _OPEN:
                raise _error(text, index, f"unexpected token {token!r}")
            if token != ")":
                raise _error(text, index, "expected ')'")
            stack.pop()
        while stack[-1] is _NOT:
            stack.pop()
            value = full & ~value


def _error(text: str, index: int | None, reason: str | None = None) -> FormulaSyntaxError:
    """The error a parse of ``text`` raises at its token ``index`` (one
    past the last token for the end of the text, None past the nesting
    limit): the first character that starts no token if the text holds
    one; else ``reason`` at the token's offset, or, with no reason, the
    token as an unknown atom."""
    found = []
    for match in _TOKEN_RE.finditer(text):
        token, stray = match.groups()
        if stray is not None:
            return FormulaSyntaxError(f"unexpected character {stray!r}", match.start(2))
        found.append((token, match.start(1)))
    if index is None:
        return FormulaNestingError()
    found.append((None, len(text)))
    token, offset = found[index]
    if reason is None:
        return UnknownAtomError(token, offset)
    return FormulaSyntaxError(reason, offset)


def dnf_of_worlds(worlds: int, atoms: Sequence[str]) -> str:
    """Canonical DNF naming a world mask; terms sorted by bit-string.

    The empty set renders as ``false``.  This is the display form for
    belief sets and for input propositions in reports; it parses back to
    the same model set.  A mask that is no nonnegative int, or that has a
    bit beyond the world set, raises ``ValueError``.
    """
    atoms = check_atoms(atoms)
    n = len(atoms)
    if type(worlds) is not int or worlds < 0 or worlds & ~all_worlds(n):
        raise ValueError(f"world mask {worlds!r} is outside the world set of {n} atoms")
    if not worlds:
        return "false"
    terms = []
    for w in _WORLDS[worlds]:
        literals = [name if atom_holds(w, i, n) else "~" + name for i, name in enumerate(atoms)]
        terms.append(" & ".join(literals))
    return " | ".join(terms)


# ---------------------------------------------------------------------------
# Mixed sets of sentences and conditionals

class MixedSet(namedtuple("MixedSet", "plain_models cond_pairs weakening_closed", defaults=(False,))):
    """A set of plain sentences plus conditionals, in model-set form.

    ``plain_models`` is the world mask of the conjunction of the plain
    part (the whole world set when the plain part is empty).  Each entry
    of ``cond_pairs`` is an (antecedent, consequent) pair of world masks.

    ``weakening_closed`` marks sets produced from a total preorder, which
    denote *every* conditional the preorder validates: each stored pair
    maps an antecedent to its minimal worlds, and a conditional is a
    member whenever its consequent contains that minimal set.  Sets built
    from listed sentences are not closed that way: they contain exactly
    what was listed, which is what makes the plain extended-consequence
    operator too weak to reconstruct revision.
    """

    __slots__ = ()

    def adding_plain(self, sentence_models: int) -> "MixedSet":
        """The set extended with one more plain sentence."""
        return self._replace(plain_models=self.plain_models & sentence_models)

    def strongest_map(self) -> dict:
        """Per antecedent, the intersection of all listed consequents."""
        out: dict = {}
        for antecedent, consequent in self.cond_pairs:
            if antecedent in out:
                out[antecedent] = out[antecedent] & consequent
            else:
                out[antecedent] = consequent
        return out


def cn_extended_member(delta: MixedSet, item) -> bool:
    """Membership in Cn(delta) where conditionals contribute nothing.

    ``item`` is a sentence's world mask or a conditional's (antecedent,
    consequent) pair of masks.  A sentence is a member iff it follows
    classically from the plain part.  A conditional is a member iff it
    is in the set itself: listed literally for listed sets, validated by
    the generating preorder for weakening-closed sets.  No inference
    ever produces a new conditional.
    """
    if isinstance(item, tuple):
        antecedent, consequent = item
        if delta.weakening_closed:
            if not antecedent:
                return True
            return any(
                p == antecedent and not q & ~consequent for p, q in delta.cond_pairs
            )
        return item in delta.cond_pairs
    return not delta.plain_models & ~item
