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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exceptions import FormulaSyntaxError, UnknownAtomError

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


def models(text: str, atoms: Sequence[str]) -> int:
    """The model set, as a world mask, of a formula over the declared
    atoms; raises ``FormulaSyntaxError`` on text outside the grammar."""
    return _Parser(text, tuple(atoms)).parse()


def dnf_of_worlds(worlds: int, atoms: Sequence[str]) -> str:
    """Canonical DNF naming a world mask; terms sorted by bit-string.

    The empty set renders as ``false``.  This is the display form for
    belief sets and for input propositions in reports; it parses back to
    the same model set.
    """
    atoms = check_atoms(atoms)
    n = len(atoms)
    if not worlds:
        return "false"
    terms = []
    for w in _WORLDS[worlds]:
        literals = [name if atom_holds(w, i, n) else "~" + name for i, name in enumerate(atoms)]
        terms.append(" & ".join(literals))
    return " | ".join(terms)


# ---------------------------------------------------------------------------
# Mixed sets of sentences and conditionals

@dataclass(frozen=True)
class MixedSet:
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

    plain_models: int
    cond_pairs: frozenset
    weakening_closed: bool = False

    def adding_plain(self, sentence_models: int) -> "MixedSet":
        """The set extended with one more plain sentence."""
        return MixedSet(
            plain_models=self.plain_models & sentence_models,
            cond_pairs=self.cond_pairs,
            weakening_closed=self.weakening_closed,
        )

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
