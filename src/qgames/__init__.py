"""qgames: exact simulation and equilibrium analysis of quantized 2x2 games.

Every public name resolves on first use (PEP 562): `qgames.run_protocol`
imports `qgames.ewl` then, and later uses find it in the package
namespace.  So `import qgames` loads no submodule, and a caller pays
only for the modules it touches.
"""

_HOMES = {
    "errors": ("ConfigError", "ConvergenceError", "QGamesError", "RangeError",
               "ValidationError"),
    "qcore": ("EntanglerMode", "Gate1Q", "OutcomeDistribution", "PureState2Q"),
    "games": ("Bimatrix", "JointDistribution", "MixedProfile", "PureProfile",
              "best_correlated", "canonical_pd", "expected_payoff", "hft_game",
              "is_correlated_equilibrium", "mixed_nash", "pareto_optimal", "pure_nash"),
    "ewl": ("CanonicalGates", "MixedQuantumStrategy", "ProtocolResult", "StrategyParamsA",
            "StrategyParamsB", "canonical_gates", "gate_from_A", "gate_from_B",
            "noisy_outcome_probs", "outcome_amplitudes", "run_protocol", "run_protocol_mixed"),
    "specs": ("AgentKind", "AgentSpec", "ChannelLocation", "NamedGate", "NoiseKind",
              "NoiseSpec", "Player", "SearchConfig", "TournamentConfig"),
    "search": ("BestResponse", "MixedEquilibriumResult", "best_response", "default_menu",
               "mixed_quantum_equilibrium", "payoff_landscape", "verify_eps_nash"),
    "noise": ("ThresholdResult", "advantage_threshold", "gamma_sweep", "run_protocol_noisy"),
    "hft": ("MenuAdvantageReport", "RoundRecord", "RoundRow", "TournamentResult",
            "menu_advantage_experiment", "play_tournament"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def _submodule(name: str):
    # the import statement's machinery, unlike importlib.import_module,
    # shows the import in -X importtime
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _HOMES:  # a submodule, as `import qgames` bound them all before
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
