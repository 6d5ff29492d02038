"""Iterated-play tournament harness for the trading game.

Two agents repeatedly play the protocol over a finite gate menu.  A
single seeded random stream drives each tournament: its draws are
exactly those of numpy.random.default_rng(seed) (PCG64), one random()
per epsilon test and per sampled outcome and one integers(len(menu))
per exploration, consumed in a fixed order per round: agent 1's
decision draws, agent 2's, then outcome sampling (when enabled), so
runs are bit-for-bit reproducible.  The stream is read in blocks of raw
PCG64 words (_Stream) that give the same values as numpy's scalar calls,
so a seed's round log is the one those calls give.

"Observed defection" for trigger-style agents is the outcome mass on
the opponent's defect-labeled basis states (the sampled outcome counts
as mass 1 when sampling is on).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .ewl import canonical_gates
from .games import Bimatrix
from .noise import noisy_outcome_probs
from .specs import AgentKind, AgentSpec, NamedGate, TournamentConfig


class RoundRow(NamedTuple):
    """What a round of a tournament shows: the gates played, the pair's
    outcome distribution, the sampled outcome (None without sampling)
    and the payoffs (the sampled cell's, or the expected ones)."""

    gate_I: str
    gate_II: str
    distribution: tuple
    sampled_outcome: Optional[int]
    payoff_I: float
    payoff_II: float


class RoundRecord(NamedTuple):
    """Round `index` of a tournament: its RoundRow with the index in front.

    Built on demand by TournamentResult.records; while it plays, a
    tournament stores per round only the index of the round's RoundRow.
    """

    index: int
    gate_I: str
    gate_II: str
    distribution: tuple
    sampled_outcome: Optional[int]
    payoff_I: float
    payoff_II: float


@dataclass(frozen=True)
class TournamentResult:
    """A tournament's round log, kept as one entry per round into a
    table of the rows that can occur.

    `rows` holds every distinct RoundRow once: one per menu pair, or,
    with outcome sampling, one per menu pair and outcome.  `log[k]` is
    the index in `rows` of round k.  `records` expands the two into one
    RoundRecord per round.
    """

    rows: tuple
    log: tuple
    mean_payoff_I: float
    mean_payoff_II: float

    @cached_property
    def records(self) -> tuple:
        rows = self.rows
        return tuple(RoundRecord(k, *rows[code]) for k, code in enumerate(self.log))


_BLOCK_WORDS = 4096  # raw PCG64 words per refill: 32 kB


class _Stream:
    """The random() and integers(n) draws numpy.random.default_rng(seed)
    makes, value for value, read from blocks of raw PCG64 words instead
    of one numpy call per draw.

    random() is numpy's next_double: the top 53 bits of a word, times
    2**-53.  integers(n), for 1 <= n <= 2**32, is numpy's 32-bit Lemire
    rejection on next_uint32, which hands out the low half of a word and
    keeps the high half for the next 32-bit draw, across any random()
    calls in between; n == 1 draws nothing.
    """

    def __init__(self, seed: int):
        self._bits = np.random.default_rng(seed).bit_generator
        self._words = np.empty(0, dtype=np.uint64)
        self._doubles = []
        self._next = 0  # index of the block's next unread word
        self._high = None  # the kept high half of a word, if any

    def _take(self) -> int:
        """Index of the next unread word, refilling the block when spent."""
        k = self._next
        if k == len(self._doubles):
            self._words = self._bits.random_raw(_BLOCK_WORDS)
            self._doubles = ((self._words >> np.uint64(11)) * 2.0 ** -53).tolist()
            k = 0
        self._next = k + 1
        return k

    def random(self) -> float:
        k = self._next
        if k < len(self._doubles):  # _take() inlined: this is the per-round draw
            self._next = k + 1
            return self._doubles[k]
        k = self._take()
        return self._doubles[k]

    def _uint32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        k = self._take()  # before reading _words: it may replace the block
        word = int(self._words[k])
        self._high = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        threshold = (1 << 32) % n  # numpy's (2**32 - n) % n
        while True:
            m = self._uint32() * n
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


class _Agent:
    def __init__(self, spec: AgentSpec):
        self.spec = spec

    def choose(self, rng: _Stream) -> int:
        raise NotImplementedError

    def observe(self, own_index: int, opponent_defect_mass: float, reward: float) -> None:
        pass


class _FixedAgent(_Agent):
    def choose(self, rng):
        return 0


class _GrimTriggerAgent(_Agent):
    """Cooperates until opponent-defect mass first exceeds the
    threshold, then punishes forever."""

    def __init__(self, spec):
        super().__init__(spec)
        self.triggered = False

    def choose(self, rng):
        return len(self.spec.menu) - 1 if self.triggered else 0

    def observe(self, own_index, opponent_defect_mass, reward):
        if opponent_defect_mass > self.spec.trigger_threshold:
            self.triggered = True


class _TitForTatAgent(_Agent):
    def __init__(self, spec):
        super().__init__(spec)
        self.retaliate = False

    def choose(self, rng):
        return len(self.spec.menu) - 1 if self.retaliate else 0

    def observe(self, own_index, opponent_defect_mass, reward):
        self.retaliate = opponent_defect_mass > self.spec.trigger_threshold


class _BanditAgent(_Agent):
    """Constant-step epsilon-greedy value learner over the menu."""

    def __init__(self, spec):
        super().__init__(spec)
        self.values = [0.0] * len(spec.menu)
        self.epsilon = spec.epsilon
        self.learning_rate = spec.learning_rate

    def choose(self, rng):
        if rng.random() < self.epsilon:
            return int(rng.integers(len(self.values)))
        values = self.values
        return values.index(max(values))  # first index wins ties

    def observe(self, own_index, opponent_defect_mass, reward):
        values = self.values
        values[own_index] += self.learning_rate * (reward - values[own_index])


_AGENT_CLASSES = {
    AgentKind.FIXED: _FixedAgent,
    AgentKind.GRIM_TRIGGER: _GrimTriggerAgent,
    AgentKind.TIT_FOR_TAT: _TitForTatAgent,
    AgentKind.EPSILON_GREEDY_BANDIT: _BanditAgent,
}


def play_tournament(game: Bimatrix, a1: AgentSpec, a2: AgentSpec,
                    cfg: TournamentConfig) -> TournamentResult:
    """Run a sequential tournament between two agents.

    Everything fixed per menu pair (the outcome distribution, its
    cumulative sums, expected payoffs and defect masses) is computed up
    front in one table, and so is every RoundRow a round can show.  A
    round stores only the index of its row (see TournamentResult).
    Without outcome sampling the recorded payoffs are the exact
    expected payoffs of each round's profile.
    """
    rng = _Stream(cfg.seed)
    agent1 = _AGENT_CLASSES[a1.kind](a1)
    agent2 = _AGENT_CLASSES[a2.kind](a2)
    sampled = cfg.sampled_outcomes

    m1 = np.array([entry.gate.matrix for entry in a1.menu])
    m2 = np.array([entry.gate.matrix for entry in a2.menu])
    pair_probs = noisy_outcome_probs(cfg.gamma, cfg.mode, m1[:, None], m2[None, :], cfg.noise)
    a, b = game.payoff_vectors()
    exp_i, exp_ii = (pair_probs @ a).tolist(), (pair_probs @ b).tolist()
    mass_1 = (pair_probs[..., 1] + pair_probs[..., 3]).tolist()
    mass_2 = (pair_probs[..., 2] + pair_probs[..., 3]).tolist()
    cdf = np.cumsum(pair_probs, axis=-1).tolist()
    # per outcome: the cell's payoffs and the defect masses it shows
    cells = [game.cell(outcome >> 1, outcome & 1) + (float(outcome & 1), float(outcome >> 1))
             for outcome in range(4)]
    rows, table = [], []
    for i1, probs_row in enumerate(pair_probs.tolist()):
        table.append([])
        for i2, probs in enumerate(probs_row):
            pair = (a1.menu[i1].name, a2.menu[i2].name, tuple(probs))
            table[i1].append((len(rows), cdf[i1][i2], exp_i[i1][i2], exp_ii[i1][i2],
                              mass_1[i1][i2], mass_2[i1][i2]))
            if sampled:
                rows += [RoundRow(*pair, outcome, *cells[outcome][:2]) for outcome in range(4)]
            else:
                rows.append(RoundRow(*pair, None, exp_i[i1][i2], exp_ii[i1][i2]))

    choose_1, choose_2, draw = agent1.choose, agent2.choose, rng.random
    observe_1, observe_2 = agent1.observe, agent2.observe
    log = []
    total_i = total_ii = 0.0
    for _ in range(cfg.rounds):
        i1 = choose_1(rng)
        i2 = choose_2(rng)
        code, pair_cdf, pay_i, pay_ii, defect_mass_1, defect_mass_2 = table[i1][i2]
        if sampled:
            outcome = min(bisect_right(pair_cdf, draw()), 3)
            code += outcome
            pay_i, pay_ii, defect_mass_1, defect_mass_2 = cells[outcome]
        observe_1(i1, defect_mass_1, pay_i)
        observe_2(i2, defect_mass_2, pay_ii)
        log.append(code)
        total_i += pay_i
        total_ii += pay_ii
    mean_i, mean_ii = _mean_payoffs(rows, log, total_i, total_ii)
    return TournamentResult(rows=tuple(rows), log=tuple(log),
                            mean_payoff_I=mean_i, mean_payoff_II=mean_ii)


def _mean_payoffs(rows, log, total_i: float, total_ii: float) -> tuple:
    """Mean payoffs of the rounds in log, whose payoffs sum to the two
    totals.  Where a total overflows the float range, each mean is the
    exact mean of the rounds' payoffs, rounded once."""
    n = len(log)
    means = (total_i / n, total_ii / n)
    if all(map(math.isfinite, means)):
        return means
    counts = Counter(log).items()
    return (float(sum(c * Fraction(rows[code].payoff_I) for code, c in counts) / n),
            float(sum(c * Fraction(rows[code].payoff_II) for code, c in counts) / n))


@dataclass(frozen=True)
class MenuAdvantageReport:
    quantum: TournamentResult
    classical: TournamentResult
    tail_window: int
    quantum_tail_mean: tuple
    classical_tail_mean: tuple


def _tail_mean(result: TournamentResult, window: int) -> tuple:
    rows, tail = result.rows, result.log[-window:]
    return _mean_payoffs(rows, tail, sum(rows[code].payoff_I for code in tail),
                         sum(rows[code].payoff_II for code in tail))


def menu_advantage_experiment(game: Bimatrix, cfg: TournamentConfig) -> MenuAdvantageReport:
    """Self-play value learners with and without the quantum gate.

    Both conditions run epsilon-greedy bandits against each other with
    the same seed schedule; the quantum condition's menu adds Q to the
    classical {C, D} menu.  The tail means over the final rounds are
    the headline comparison.
    """
    named = canonical_gates(cfg.mode)
    quantum_menu = (NamedGate("C", named.C), NamedGate("D", named.D), NamedGate("Q", named.Q))
    classical_menu = (NamedGate("C", named.C), NamedGate("D", named.D))

    def bandit(menu):
        return AgentSpec(kind=AgentKind.EPSILON_GREEDY_BANDIT, menu=menu)

    quantum = play_tournament(game, bandit(quantum_menu), bandit(quantum_menu), cfg)
    classical = play_tournament(game, bandit(classical_menu), bandit(classical_menu), cfg)
    window = min(1000, cfg.rounds)
    return MenuAdvantageReport(
        quantum=quantum, classical=classical, tail_window=window,
        quantum_tail_mean=_tail_mean(quantum, window),
        classical_tail_mean=_tail_mean(classical, window))
