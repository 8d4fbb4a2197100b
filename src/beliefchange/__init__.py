"""Iterated belief change over finite total preorders.

The package models belief states as total preorders over the valuations
of a small fixed atom set, implements the three classic iterated
revision operators together with TeamQueue-style contraction, iterable
expansion with an absurd state, and rational closure, and ships an
exhaustive checker that verifies or refutes the governing postulates,
and the equivalences relating them, on every instance the finite space
admits.
"""

from .conditionals import (
    flattest_satisfier,
    rational_base,
    rational_closure,
    rational_closure_fast,
    satisfies,
)
from .exceptions import (
    AbsurdStateError,
    BeliefChangeError,
    EmptyModelSetError,
    FormulaSyntaxError,
    InconsistentInputError,
    MalformedDiagramError,
    MissingContractionError,
    NoMaximumError,
    PartitionError,
    ScopeError,
    UnknownAtomError,
    UnsatisfiableError,
)
from .lang import (
    MixedSet,
    cn_extended_member,
    dnf_of_worlds,
    models,
    world_str,
)
from .operators import (
    Contraction,
    Revision,
    TabularRevision,
    contract,
    contract_by_negation,
    expand,
    nli_revise,
    revise,
)
from .postulates import (
    CheckReport,
    Witness,
    check_diagram,
    check_postulate,
    make_random_dp_operator,
    pair_profile,
    render_machine,
    render_text,
    replay_witness,
    verify_claim,
)
from .tpo import (
    Absurd,
    State,
    Tpo,
    beliefs,
    conditional_holds,
    conditional_set,
    count_tpos,
    enumerate_tpos,
    flatter_eq,
    format_tpo,
    min_worlds,
    parse_tpo,
    tpo_at_index,
)

__all__ = [name for name in dir() if not name.startswith("_")]
