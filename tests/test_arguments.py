"""Every public callable refuses a bad argument with a QGamesError.

ROWS holds one call of valid arguments for every function and every
validated value type in `qgames.__all__`, plus
`search.symmetric_equilibrium_gate`, which the README names.  Each
argument of a row is replaced in turn by each of the BAD values, and the
call must return a value or raise a QGamesError; a bare TypeError,
ValueError or AttributeError fails the test.  Where the refusal's text is
part of the API, the exact message is pinned too.

On the oldest numpy too (numpy_floor): the rows marked so read an
argument through numpy (check_numeric, or a Bimatrix's tables), and
numpy's version decides how it parses a ragged list, a dict or a bool.
"""
import inspect
from enum import Enum

import numpy as np
import pytest

import qgames
from qgames import (
    AgentKind,
    AgentSpec,
    Bimatrix,
    ChannelLocation,
    EntanglerMode,
    Gate1Q,
    MixedProfile,
    MixedQuantumStrategy,
    NamedGate,
    NoiseKind,
    NoiseSpec,
    OutcomeDistribution,
    Player,
    PureState2Q,
    QGamesError,
    SearchConfig,
    StrategyParamsA,
    StrategyParamsB,
    TournamentConfig,
    advantage_threshold,
    best_correlated,
    best_response,
    canonical_gates,
    canonical_pd,
    default_menu,
    expected_payoff,
    gamma_sweep,
    hft_game,
    is_correlated_equilibrium,
    menu_advantage_experiment,
    mixed_nash,
    mixed_quantum_equilibrium,
    pareto_optimal,
    payoff_landscape,
    play_tournament,
    pure_nash,
    run_protocol,
    verify_eps_nash,
)
from qgames.search import symmetric_equilibrium_gate

PD = canonical_pd()
MODE = EntanglerMode.DEFECT
C, D, Q = canonical_gates(MODE)
FAST = SearchConfig(grid_resolution=4)

# the twelve bad values every argument gets
BAD = ("x", None, True, 1.5, -1, float("nan"), [], [[1, 2], [3]], {"a": 1}, object(), 1j,
       np.zeros((3, 3)))

# name: (callable, its valid arguments by name, reads an argument through numpy)
ROWS = {
    # functions
    "best_correlated": (best_correlated, dict(game=PD, objective="welfare"), False),
    "canonical_pd": (canonical_pd, {}, False),
    "hft_game": (hft_game, {}, False),
    "pure_nash": (pure_nash, dict(game=PD), False),
    "pareto_optimal": (pareto_optimal, dict(game=PD), False),
    "mixed_nash": (mixed_nash, dict(game=PD), False),
    "expected_payoff": (expected_payoff, dict(game=PD, profile=MixedProfile(0.5, 0.5)), False),
    "is_correlated_equilibrium": (
        is_correlated_equilibrium, dict(game=PD, mu=[0.25] * 4, eps=1e-9), True),
    "canonical_gates": (canonical_gates, dict(mode=MODE), False),
    "run_protocol": (
        run_protocol, dict(game=PD, gamma=1.0, mode=MODE, s1=C, s2=Q, noise=NoiseSpec()), True),
    "gamma_sweep": (gamma_sweep, dict(game=PD, mode=MODE, u1=C, u2=Q, steps=3), True),
    "best_response": (best_response, dict(game=PD, gamma=1.0, mode=MODE, opponent_gate=Q,
                                          responder=Player.I, space="A"), True),
    "verify_eps_nash": (verify_eps_nash, dict(game=PD, gamma=1.0, mode=MODE, u1=Q, u2=Q,
                                              space="A", cfg=FAST), True),
    "payoff_landscape": (payoff_landscape, dict(game=PD, gamma=1.0, mode=MODE, space="A",
                                                fixed_opponent=Q, cfg=FAST,
                                                responder=Player.I), True),
    "symmetric_equilibrium_gate": (
        symmetric_equilibrium_gate, dict(game=PD, gamma=np.pi / 2, mode=MODE,
                                         cfg=SearchConfig()), False),
    "advantage_threshold": (advantage_threshold, dict(
        game=PD, mode=MODE, noise_kind=NoiseKind.PER_QUBIT_DEPOLARIZING, cfg=SearchConfig(),
        gamma=np.pi / 2), False),
    "default_menu": (default_menu, dict(mode=MODE), False),
    "mixed_quantum_equilibrium": (mixed_quantum_equilibrium, dict(
        game=PD, gamma=1.0, mode=MODE, menu=(C, D, Q), cfg=FAST), True),
    "play_tournament": (play_tournament, dict(
        game=PD, a1=AgentSpec(AgentKind.FIXED, (NamedGate("C", C),)),
        a2=AgentSpec(AgentKind.TIT_FOR_TAT, (NamedGate("C", C), NamedGate("D", D))),
        cfg=TournamentConfig(rounds=10)), False),
    "menu_advantage_experiment": (
        menu_advantage_experiment, dict(game=PD, cfg=TournamentConfig(rounds=10)), False),
    # validated value types
    "Gate1Q": (Gate1Q, dict(matrix=np.eye(2)), True),
    "PureState2Q": (PureState2Q, dict(amps=[1, 0, 0, 0]), True),
    "OutcomeDistribution": (OutcomeDistribution, dict(probs=[0.25] * 4), True),
    "MixedQuantumStrategy": (MixedQuantumStrategy, dict(support=[(0.5, C), (0.5, Q)]), True),
    "StrategyParamsA": (StrategyParamsA, dict(theta=0.1, phi=0.2), False),
    "StrategyParamsB": (StrategyParamsB, dict(theta=0.1, alpha=0.2, beta=0.3), False),
    "Bimatrix": (Bimatrix, dict(row_payoffs=[[3, 0], [5, 1]], col_payoffs=[[3, 5], [0, 1]],
                                row_labels=("C", "D"), col_labels=("C", "D")), True),
    "MixedProfile": (MixedProfile, dict(p=0.5, q=0.5, degenerate=False), False),
    "SearchConfig": (SearchConfig, dict(grid_resolution=4, eps_nash=1e-6), False),
    "NoiseSpec": (NoiseSpec, dict(kind=NoiseKind.PER_QUBIT_DEPOLARIZING, p=0.1,
                                  location=ChannelLocation.RETURN), False),
    "AgentSpec": (AgentSpec, dict(kind=AgentKind.EPSILON_GREEDY_BANDIT,
                                  menu=(NamedGate("C", C), NamedGate("Q", Q)), epsilon=0.1,
                                  learning_rate=0.1, trigger_threshold=0.5), False),
    "TournamentConfig": (TournamentConfig, dict(rounds=10, gamma=1.0, mode=MODE,
                                                noise=NoiseSpec(), seed=0,
                                                sampled_outcomes=False), False),
}

# public callables without a row, each with the reason
EXEMPT = {
    **dict.fromkeys(("outcome_amplitudes", "noisy_outcome_probs"),
                    "kernel: only the mode is validated (see its docstring)"),
    **dict.fromkeys(("run_protocol_mixed", "run_protocol_noisy"), "alias of run_protocol"),
    **dict.fromkeys(("AgentKind", "ChannelLocation", "EntanglerMode", "NoiseKind", "Player"),
                    "enum"),
    **dict.fromkeys(("ConfigError", "ConvergenceError", "QGamesError", "RangeError",
                     "ValidationError"), "exception"),
    **dict.fromkeys(("CanonicalGates", "NamedGate", "PureProfile", "RoundRow"), "NamedTuple"),
    **dict.fromkeys(("BestResponse", "MenuAdvantageReport", "MixedEquilibriumResult",
                     "ProtocolResult", "ThresholdResult", "TournamentResult"),
                    "unvalidated result record"),
}

# An argument whose valid value is one of these types is refused by
# qcore.check_instance under its own name.
CHECKED = (Enum, Bimatrix, SearchConfig, TournamentConfig, NoiseSpec, MixedProfile, AgentSpec)
# more bad values for the arguments whose message is pinned
EXTRA = {"game": ([[3, 0], [5, 1]],), "cfg": ({"eps_nash": 1e-6},), "profile": ([0.5, 0.5],),
         "mode": ("defect",)}
# other pinned messages: (row, argument) -> (message, the bad values it holds for)
NOT_ITERABLE = tuple(BAD[k] for k in (1, 2, 3, 4, 5, 6, 9, 10))  # [] included
PINNED = {
    **dict.fromkeys([(name, "space") for name in ("best_response", "verify_eps_nash",
                                                  "payoff_landscape")],
                    ("space must be 'A' or 'B', got {!r}", BAD)),
    ("best_correlated", "objective"): (
        "objective must be 'welfare' or 'player_I' or 'player_II', got {!r}", BAD),
    ("mixed_quantum_equilibrium", "menu"): (
        "menu must be a nonempty sequence of gates, got {!r}", NOT_ITERABLE),
    ("AgentSpec", "menu"): (
        "menu must be a nonempty sequence of NamedGate, got {!r}", NOT_ITERABLE),
    ("MixedQuantumStrategy", "support"): (
        "support must be a nonempty sequence of (weight, gate) pairs, got {!r}", NOT_ITERABLE),
}


def pinned_message(row: str, arg: str, bad):
    """The exact message of the refusal of bad as row's argument arg, or
    None where only its type is checked."""
    valid = ROWS[row][1][arg]
    if isinstance(valid, CHECKED):
        cls = type(valid).__name__
        article = "an" if cls[0] in "AEIOU" else "a"
        return f"{arg} must be {article} {cls}, got {bad!r}"
    message, values = PINNED.get((row, arg), (None, ()))
    return message.format(bad) if any(bad is v for v in values) else None


CASES = [pytest.param(row, arg, marks=[pytest.mark.numpy_floor] if numpy else [],
                      id=f"{row}.{arg}")
         for row, (_, args, numpy) in ROWS.items() for arg in args]


def test_every_public_callable_has_a_row_or_an_exemption():
    names = {name for name in qgames.__all__ if callable(getattr(qgames, name))}
    assert sorted(names - set(ROWS) - set(EXEMPT)) == []
    assert sorted(set(ROWS) & set(EXEMPT)) == []
    assert sorted(set(EXEMPT) - names) == []
    assert sorted(set(ROWS) - names) == ["symmetric_equilibrium_gate"]


@pytest.mark.parametrize("row", sorted(ROWS))
def test_a_row_is_valid_and_names_every_parameter(row):
    call, args, _ = ROWS[row]
    assert list(args) == list(inspect.signature(call).parameters)
    call(**args)


@pytest.mark.parametrize("row, arg", CASES)
def test_a_bad_argument_is_a_qgames_error(row, arg):
    call, args, _ = ROWS[row]
    wrong = []
    for bad in BAD + (EXTRA.get(arg, ()) if isinstance(args[arg], CHECKED) else ()):
        message = pinned_message(row, arg, bad)
        try:
            call(**{**args, arg: bad})
        except QGamesError as exc:
            if message is not None and str(exc) != message:
                wrong.append(f"{bad!r}: {str(exc)!r}, expected {message!r}")
        except Exception as exc:  # a bare error: the case this test is for
            wrong.append(f"{bad!r}: bare {type(exc).__name__}: {exc}")
        else:  # a pinned message is a refusal the call must make
            if message is not None:
                wrong.append(f"{bad!r}: returned, expected {message!r}")
    assert wrong == []
