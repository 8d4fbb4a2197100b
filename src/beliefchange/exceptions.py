"""Exception hierarchy shared by the whole package.

Parse-time problems (bad formula text, bad partition text, bad scenario
files) are kept distinct from semantic problems (revising by a
contradiction, expanding the absurd state), because the command line
maps the two groups to different exit codes.
"""

from __future__ import annotations


class BeliefChangeError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(BeliefChangeError):
    """Formula text that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.reason = message
        self.position = position


class FormulaNestingError(FormulaSyntaxError):
    """Formula with more than ``lang._MAX_NESTING`` (1000) ``~``, ``(``
    and binary connectives pending at once.  It names no token, so it is
    reported at offset 0 of whatever text holds it."""

    def __init__(self):
        super().__init__("formula nested too deeply", 0)


class UnknownAtomError(FormulaSyntaxError):
    """Identifier used in a formula but absent from the declared atom list."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown atom {name!r}", position)
        self.name = name


class PartitionError(BeliefChangeError):
    """Cell list that is not an ordered partition of the world set."""


class EmptyModelSetError(BeliefChangeError):
    """Minimisation over an empty world set."""


class InconsistentInputError(BeliefChangeError):
    """Revision, contraction or expansion by an inconsistent sentence."""


class AbsurdStateError(BeliefChangeError):
    """Revision or expansion applied to the absurd state."""


class UnsatisfiableError(BeliefChangeError):
    """No total preorder satisfies the given set."""


class NoMaximumError(BeliefChangeError):
    """Satisfiers exist but no flattest one; outside the theory's guarantee."""


class ScopeError(BeliefChangeError):
    """Check requested at an atom count, sample size or worker count the
    checker does not support."""


class MissingContractionError(BeliefChangeError):
    """Postulate needs a contraction operator but none was supplied."""


class MalformedDiagramError(BeliefChangeError):
    """Transition table that is not one of the admissible diagrams."""


class ScenarioError(BeliefChangeError):
    """Scenario or conditional-set file that does not parse."""
