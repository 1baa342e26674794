"""Iterated uniform finite-state transducers.

A library for machines that repeatedly apply one length-preserving
transduction to a fixed-length tape, accepting by finishing a sweep in
an accepting state.  Ships the sweep execution engine, conversions to
classical automata, exact decision procedures, generators for the
standard witness language families, constructible-function combinators,
a compiler from linear bounded automata, and a brute-force oracle for
checking all of it at small scale.
"""

from .convert import (
    Dfa,
    Nfa,
    ResourceBudgetError,
    dfa_minimize,
    min_dfa,
    nfa_to_1niufst,
    nfa_to_dfa,
    reduced_state_universe,
    sweep_reduce,
    to_nfa,
)
from .core import (
    AcceptModeReport,
    AcceptModeViolation,
    Completed,
    MachineError,
    MalformedInputError,
    NotDeterministicError,
    RunReport,
    Stuck,
    Transducer,
    check_accept_mode,
    find_accepting_trace,
    materialize,
    run,
    run_deterministic,
    sweep,
)
from .decide import equivalent, includes, is_empty, is_finite, is_universal
from .hierarchy import (
    Constructor,
    build_lf,
    combine_add,
    combine_mul,
    expo_constructor,
    identity_constructor,
    in_lf,
    measure_sweep_growth,
)
from .lba import Lba, LbaRunReport, compile_lba, lba_anbn, lba_copy, run_lba
from .oracle import (
    OracleBudgetError,
    compare_languages,
    compare_on_words,
    enumerate_words,
    predicate_to_min_dfa,
)
from .textio import (
    MachineFile,
    MachineParseError,
    parse_machine,
    parse_word,
    serialize_machine,
)
from .witness import (
    bin_lsb,
    d_word,
    gen_block,
    gen_block_nfa,
    gen_copy,
    gen_d,
    gen_e,
    gen_uexpo,
    gen_unary,
    in_block,
    in_copy,
    in_d,
    in_e,
    in_uexpo,
    in_unary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
