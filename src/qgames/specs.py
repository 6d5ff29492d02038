"""The validated value types a run configuration is built from.

Every command builds all of them, whichever layer it runs: the search
settings (`Player`, `SearchConfig`), the noise channel (`NoiseKind`,
`ChannelLocation`, `NoiseSpec`) and the tournament set-up (`NamedGate`,
`AgentKind`, `AgentSpec`, `TournamentConfig`).  They live here, apart
from the code that uses them, so that reading a config loads no
solver; `qgames.search`, `qgames.noise` and `qgames.hft` import the
ones they use.
Their counts, reals and flags are read by `qcore.check_integer`,
`qcore.check_real` and `qcore.check_bool`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import RangeError, ValidationError
from .qcore import EntanglerMode, Gate1Q, check_bool, check_integer, check_real, clamp_gamma


class Player(Enum):
    I = 1
    II = 2


@dataclass(frozen=True)
class SearchConfig:
    """Grid points per axis (landscapes, candidate grids) and the
    epsilon-Nash tolerance; best responses are exact and use no grid."""

    grid_resolution: int = 64
    eps_nash: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "grid_resolution",
                           check_integer("grid_resolution", self.grid_resolution, 2))
        object.__setattr__(self, "eps_nash", check_real("eps_nash", self.eps_nash, 0.0))
        if self.eps_nash == 0.0:
            raise RangeError(f"eps_nash must be positive and finite, got {self.eps_nash}")


class NoiseKind(Enum):
    NONE = "none"
    PER_QUBIT_DEPOLARIZING = "per_qubit_depolarizing"
    TWO_QUBIT_DEPOLARIZING = "two_qubit_depolarizing"


class ChannelLocation(Enum):
    RETURN = "return"    # after player gates, before the disentangler
    FORWARD = "forward"  # after the entangler, before player gates


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind = NoiseKind.NONE
    p: float = 0.0
    location: ChannelLocation = ChannelLocation.RETURN

    def __post_init__(self):
        if not isinstance(self.kind, NoiseKind):
            raise ValidationError(f"kind must be a NoiseKind, got {self.kind!r}")
        if not isinstance(self.location, ChannelLocation):
            raise ValidationError(f"location must be a ChannelLocation, got {self.location!r}")
        object.__setattr__(self, "p", check_real("noise probability p", self.p, 0.0, 1.0))


class NamedGate(NamedTuple):
    name: str
    gate: Gate1Q


class AgentKind(Enum):
    FIXED = "fixed"
    GRIM_TRIGGER = "grim_trigger"
    TIT_FOR_TAT = "tit_for_tat"
    EPSILON_GREEDY_BANDIT = "epsilon_greedy_bandit"


@dataclass(frozen=True)
class AgentSpec:
    """A tournament agent: its kind, gate menu and parameters, and the
    rule each kind plays by.

    fixed plays menu[0] forever.  grim_trigger and tit_for_tat treat
    menu[0] as the cooperative gate and menu[-1] as the punishment, and
    watch the opponent's defect mass of each round: the outcome mass on
    the opponent's defect-labeled states, or the sampled outcome's 0 or
    1 when outcomes are sampled.  grim_trigger punishes in every round
    after the first round where that mass exceeds trigger_threshold;
    tit_for_tat punishes in each round right after one where it does.
    epsilon_greedy_bandit keeps one value per menu entry, starting at 0.
    It explores a uniformly drawn entry when a random() draw falls below
    epsilon, and otherwise plays the first entry of greatest value; the
    played entry's value then moves learning_rate of the way to the
    round's payoff.
    """

    kind: AgentKind
    menu: tuple
    epsilon: float = 0.1
    learning_rate: float = 0.1
    trigger_threshold: float = 0.5

    def __post_init__(self):
        if not isinstance(self.kind, AgentKind):
            raise ValidationError(f"kind must be an AgentKind, got {self.kind!r}")
        menu = tuple(self.menu)
        if not menu:
            raise ValidationError("agent menu must be nonempty")
        for entry in menu:
            if not isinstance(entry, NamedGate) or not isinstance(entry.gate, Gate1Q):
                raise ValidationError(f"menu entries must be NamedGate, got {entry!r}")
        object.__setattr__(self, "menu", menu)
        for name in ("epsilon", "learning_rate", "trigger_threshold"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0, 1.0))
        if self.learning_rate == 0.0:
            raise RangeError(f"learning_rate={self.learning_rate!r} outside (0,1]")


@dataclass(frozen=True)
class TournamentConfig:
    rounds: int
    gamma: float = np.pi / 2
    mode: EntanglerMode = EntanglerMode.DEFECT
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    sampled_outcomes: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rounds", check_integer("rounds", self.rounds, 1))
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))
        object.__setattr__(self, "gamma", clamp_gamma(self.gamma))
        object.__setattr__(self, "sampled_outcomes",
                           check_bool("sampled_outcomes", self.sampled_outcomes))
