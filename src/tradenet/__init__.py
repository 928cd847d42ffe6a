"""tradenet: stability analysis and competitive equilibrium for trading
networks of bilateral contracts."""

from .axioms import AxiomReport, check_agent, check_instance
from .choices import (
    ChoiceFunction,
    NeedleChoiceF,
    PartitionChoiceF,
    PartitionChoiceG,
    PreferenceListChoice,
    QuotaChoice,
    ReservationChoice,
    SeparableIntensityChoice,
    SimpleIntensityChoice,
    build_family,
    is_individually_rational,
    is_rational,
    is_rational_pair,
)
from .errors import (
    ChoiceFunctionError,
    GuardExceededError,
    InstanceFormatError,
    IterationDiagnosisError,
    NetworkValidationError,
    PreconditionError,
    StabilityContradictionError,
    TradenetError,
)
from .fixedpoint import (
    FixedPointResult,
    OfferPair,
    buyer_optimal,
    canonical_pair,
    compare_terminal_superiority,
    enumerate_fixed_points,
    fixed_point_outcomes,
    iterate_from,
    respond,
    seller_optimal,
    terminal_lattice,
)
from .instances import Instance, bundled_instance, instance_from_json, load_instance
from .network import Contract, ContractNetwork, TerminalPartition, validate_network
from .stability import (
    StabilityVerdict,
    Witness,
    classify,
    find_blocking_chain,
    find_blocking_set,
    find_blocking_strong_trail,
    find_blocking_trail,
    find_locally_blocking_trail,
    is_acceptable,
)

__version__ = "0.1.0"
