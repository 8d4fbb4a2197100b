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

``models`` scans the text once with one pattern, which yields each
token with its offset, and raises at the first character that starts
no token.  It then parses by precedence climbing over one table,
``_BINARY``, which gives each binary connective its precedence, its
associativity and the mask of the compound; negation, parentheses,
constants and atoms are read by one function below it.  A formula
nested deeper than Python's recursion limit allows is a syntax error at
offset 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

# One scan: group 1 is a token; group 2 is the first character that
# starts none, which is an error.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*|<->|->|[~&|()])|(\S))")

# Binary connective -> (precedence, associates to the right, the mask of
# the compound from its operands' masks a, b and the full mask).
_BINARY = {
    "<->": (1, True, lambda a, b, full: full & ~(a ^ b)),
    "->": (2, True, lambda a, b, full: full & ~a | b),
    "|": (3, False, lambda a, b, full: a | b),
    "&": (4, False, lambda a, b, full: a & b),
}


def models(text: str, atoms: Sequence[str]) -> int:
    """The model set, as a world mask, of a formula over the declared
    atoms; raises ``FormulaSyntaxError`` on text outside the grammar."""
    atom_masks = _atom_masks(tuple(atoms))
    full = all_worlds(len(atom_masks))
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        token, stray = match.groups()
        if stray is not None:
            raise FormulaSyntaxError(f"unexpected character {stray!r}", match.start(2))
        tokens.append((token, match.start(1)))
    tokens.append((None, len(text)))
    tokens.reverse()  # a stack: the next token is last, the sentinel first

    def binary(floor: int) -> int:
        """The mask of the longest formula ahead whose connectives all
        bind tighter than ``floor``."""
        left = unary()
        while True:
            entry = _BINARY.get(tokens[-1][0])
            if entry is None or entry[0] <= floor:
                return left
            tokens.pop()
            precedence, right, mask = entry
            left = mask(left, binary(precedence - 1 if right else precedence), full)

    def unary() -> int:
        token, offset = tokens.pop()
        if token is None:
            raise FormulaSyntaxError("unexpected end of input", offset)
        if token == "~":
            return full & ~unary()
        if token == "(":
            inner = binary(0)
            token, offset = tokens.pop()
            if token != ")":
                raise FormulaSyntaxError("expected ')'", offset)
            return inner
        if token in _BINARY or token == ")":
            raise FormulaSyntaxError(f"unexpected token {token!r}", offset)
        if token == "true":
            return full
        if token == "false":
            return 0
        if token not in atom_masks:
            raise UnknownAtomError(token, offset)
        return atom_masks[token]

    try:
        mask = binary(0)
    except RecursionError:
        raise FormulaNestingError() from None
    token, offset = tokens[-1]
    if token is not None:
        raise FormulaSyntaxError(f"unexpected token {token!r}", offset)
    return mask


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
