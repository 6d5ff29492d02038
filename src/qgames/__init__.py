"""qgames: exact simulation and equilibrium analysis of quantized 2x2 games."""

from .errors import (
    ConfigError,
    ConvergenceError,
    QGamesError,
    RangeError,
    ValidationError,
)
from .qcore import (
    EntanglerMode,
    Gate1Q,
    Gate2Q,
    OutcomeDistribution,
    PureState2Q,
    apply,
    dagger,
    entangler,
    measure,
    tensor,
)
from .games import (
    Bimatrix,
    JointDistribution,
    MixedProfile,
    PureProfile,
    best_correlated,
    canonical_pd,
    expected_payoff,
    hft_game,
    is_correlated_equilibrium,
    mixed_nash,
    pareto_optimal,
    pure_nash,
)
from .ewl import (
    CanonicalGates,
    MixedQuantumStrategy,
    ProtocolResult,
    StrategyParamsA,
    StrategyParamsB,
    canonical_gates,
    gate_from_A,
    gate_from_B,
    outcome_amplitudes,
    run_protocol,
    run_protocol_mixed,
)
from .search import (
    BestResponse,
    MixedEquilibriumResult,
    Player,
    SearchConfig,
    best_response,
    default_menu,
    mixed_quantum_equilibrium,
    payoff_landscape,
    verify_eps_nash,
)
from .noise import (
    ChannelLocation,
    DensityMatrix2Q,
    NoiseKind,
    NoiseSpec,
    ThresholdResult,
    advantage_threshold,
    apply_noise,
    gamma_sweep,
    noisy_outcome_probs,
    run_protocol_noisy,
)
from .hft import (
    AgentKind,
    AgentSpec,
    MenuAdvantageReport,
    NamedGate,
    RoundRecord,
    RoundRow,
    TournamentConfig,
    TournamentResult,
    menu_advantage_experiment,
    play_tournament,
)

__version__ = "0.1.0"
