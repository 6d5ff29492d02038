"""How the value types read their scalar fields: every real through
qcore.check_real, every count through qcore.check_integer, and every
flag through qcore.check_bool."""
import math
import numbers
from fractions import Fraction

import numpy as np
import pytest

from qgames import (
    AgentKind,
    AgentSpec,
    EntanglerMode,
    Gate1Q,
    MixedProfile,
    MixedQuantumStrategy,
    NamedGate,
    NoiseKind,
    NoiseSpec,
    OutcomeDistribution,
    SearchConfig,
    StrategyParamsA,
    StrategyParamsB,
    TournamentConfig,
    canonical_pd,
    gamma_sweep,
    is_correlated_equilibrium,
)
from qgames.errors import RangeError, ValidationError
from qgames.qcore import check_real, clamp_gamma

GATE = Gate1Q(np.eye(2))


def _agent(name):
    return lambda v: getattr(
        AgentSpec(AgentKind.FIXED, (NamedGate("C", GATE),), **{name: v}), name)


def _weight(v):
    rest = 1 - float(v) if isinstance(v, numbers.Real) else 0.5
    return MixedQuantumStrategy([(v, GATE), (rest, GATE)]).support[0][0]


# Every scalar real field of the library: a function that stores a value
# in the field and returns what the field holds.
FIELDS = {
    "clamp_gamma": clamp_gamma,
    "TournamentConfig.gamma": lambda v: TournamentConfig(rounds=1, gamma=v).gamma,
    "StrategyParamsA.theta": lambda v: StrategyParamsA(theta=v, phi=0.0).theta,
    "StrategyParamsA.phi": lambda v: StrategyParamsA(theta=0.0, phi=v).phi,
    "StrategyParamsB.theta": lambda v: StrategyParamsB(theta=v, alpha=0.0, beta=0.0).theta,
    "StrategyParamsB.alpha": lambda v: StrategyParamsB(theta=0.0, alpha=v, beta=0.0).alpha,
    "StrategyParamsB.beta": lambda v: StrategyParamsB(theta=0.0, alpha=0.0, beta=v).beta,
    "SearchConfig.eps_nash": lambda v: SearchConfig(eps_nash=v).eps_nash,
    "NoiseSpec.p": lambda v: NoiseSpec(NoiseKind.PER_QUBIT_DEPOLARIZING, p=v).p,
    "AgentSpec.epsilon": _agent("epsilon"),
    "AgentSpec.learning_rate": _agent("learning_rate"),
    "AgentSpec.trigger_threshold": _agent("trigger_threshold"),
    "MixedProfile.p": lambda v: MixedProfile(p=v, q=0.0).p,
    "MixedProfile.q": lambda v: MixedProfile(p=0.0, q=v).q,
    "mixture weight": _weight,
}


@pytest.mark.parametrize("case", [
    "wrong_type",
    "non_finite",
    pytest.param("numpy_and_fraction", marks=pytest.mark.numpy_floor),
])
def test_every_scalar_real_field(case):
    """A value that is not a real is a ValidationError, a non-finite one
    a RangeError, and numpy scalars and Fractions are stored as floats.
    On the oldest numpy too (numpy_floor): numpy's scalar types must
    still register as numbers.Real."""
    for field, store in FIELDS.items():
        if case == "wrong_type":
            for value in ("0.5", None, True, 0.5 + 0j):
                with pytest.raises(ValidationError) as info:
                    store(value)
                assert info.type is ValidationError, (field, value)
                assert "must be a real number" in str(info.value), (field, value)
        elif case == "non_finite":
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(RangeError, match="outside"):
                    store(value)
        else:
            for value in (np.float32(0.5), np.float64(0.5), np.int64(1), Fraction(1, 2)):
                stored = store(value)
                assert type(stored) is float and stored == float(value), (field, value)


def test_one_range_message_and_the_angle_spill():
    with pytest.raises(RangeError, match=r"^gamma=2\.0 outside \[0, 1\.5708\]$"):
        clamp_gamma(2.0)
    with pytest.raises(RangeError, match=r"^theta=-0\.5 outside \[0, 1\.5708\]$"):
        StrategyParamsA(theta=-0.5, phi=0.0)
    with pytest.raises(RangeError, match=r"^eps_nash=-1\.0 outside \[0, inf\]$"):
        SearchConfig(eps_nash=-1.0)
    # the strategy angles absorb 1e-8 of spill (gamma's 1e-12: tests/test_qcore.py)
    assert StrategyParamsB(theta=1.57079633, alpha=0.0, beta=-np.pi - 5e-9).beta == -np.pi
    with pytest.raises(RangeError):
        StrategyParamsA(theta=0.0, phi=np.pi / 2 + 2e-8)
    # an int beyond the float range is out of every range
    with pytest.raises(RangeError, match=r"^x=inf outside \[-inf, inf\]$"):
        check_real("x", 10**400)


def test_open_lower_bounds():
    with pytest.raises(RangeError, match="eps_nash must be positive"):
        SearchConfig(eps_nash=0)
    with pytest.raises(RangeError, match=r"learning_rate=0\.0 outside \(0,1\]"):
        AgentSpec(AgentKind.FIXED, (NamedGate("C", GATE),), learning_rate=0.0)


def test_counts_refuse_bools():
    with pytest.raises(ValidationError, match="rounds must be an integer, got True"):
        TournamentConfig(rounds=True)
    with pytest.raises(ValidationError, match="grid_resolution must be an integer"):
        SearchConfig(grid_resolution=True)
    with pytest.raises(ValidationError, match="steps must be an integer"):
        gamma_sweep(canonical_pd(), EntanglerMode.DEFECT, GATE, GATE, True)


def test_sampled_outcomes_is_a_bool():
    for value in ("no", "false", 0, 1, None, 0.0):
        with pytest.raises(ValidationError, match="sampled_outcomes must be a bool"):
            TournamentConfig(rounds=1, sampled_outcomes=value)
    for value, want in ((True, True), (False, False), (np.True_, True), (np.False_, False)):
        stored = TournamentConfig(rounds=1, sampled_outcomes=value).sampled_outcomes
        assert type(stored) is bool and stored is want


def test_mixed_profile_degenerate_is_a_bool():
    for value in ("no", "false", 0, 1, None, 0.0):
        with pytest.raises(ValidationError, match="MixedProfile.degenerate must be a bool"):
            MixedProfile(0.5, 0.5, degenerate=value)
    for value, want in ((True, True), (False, False), (np.True_, True), (np.False_, False)):
        stored = MixedProfile(0.5, 0.5, degenerate=value).degenerate
        assert type(stored) is bool and stored is want


def test_correlated_equilibrium_eps_is_a_real():
    game = canonical_pd()
    mu = OutcomeDistribution([0, 0, 0, 1])
    assert is_correlated_equilibrium(game, mu, eps=np.float32(0.0))
    with pytest.raises(RangeError, match=r"^eps=nan outside \[0, inf\]$"):
        is_correlated_equilibrium(game, mu, eps=math.nan)
    with pytest.raises(ValidationError, match="eps must be a real number"):
        is_correlated_equilibrium(game, mu, eps="1e-9")
