"""Exact escape rates for full shifts and two-symbol Markov shifts with
cylinder holes, with certified root enclosures and independent survival
oracles."""

from .errors import (
    AlphabetMismatchError,
    EnumerationCapError,
    ForbiddenWordError,
    NoPositiveRootError,
)
from .extremal import (
    HoleFamilies,
    MarkovScanReport,
    OrderingRow,
    Regime,
    RegimeReport,
    brute_force_gamma_max,
    families,
    find_order_switch,
    gamma_max,
    gamma_max_two_symbols,
    markov_scan,
    max_rate_bounds,
    ordering_table,
    unbordered_lower_estimate,
    unbordered_rate_bounds,
)
from .measures import (
    BernoulliMeasure,
    MarkovChain,
    is_allowed,
    stationary_distribution,
)
from .polynomials import (
    RationalPolynomial,
    survival_denominator,
)
from .roots import (
    RootResult,
    compare,
    compare_with_rational,
    escape_rate,
    refine,
    smallest_positive_root,
)
from .survival import (
    AvoidanceAutomaton,
    EmpiricalRate,
    RationalGenFun,
    SurvivalSeries,
    build_automaton,
    direct_enumeration,
    empirical_rate,
    genfun,
    genfun_from_word_equations,
    survival_series,
)
from .words import (
    Alphabet,
    Word,
    enumerate_words,
)

__version__ = "0.1.0"
