"""Iterated-play tournament harness for the trading game.

Two agents repeatedly play the protocol over a finite gate menu, both
in one round loop (play_tournament) over the menu pairs' distributions
from one ewl.noisy_outcome_probs call; AgentSpec states each kind's rule.
A single seeded random stream drives each tournament: its draws are
exactly those of numpy.random.default_rng(seed) (PCG64), one random()
per epsilon test and per sampled outcome and one integers(len(menu))
per exploration, consumed in a fixed order per round: agent 1's
decision draws, agent 2's, then outcome sampling (when enabled), so
runs are bit-for-bit reproducible.  The stream is read in blocks of raw
PCG64 words (_Stream) that give the same values as numpy's scalar calls,
so a seed's round log is the one those calls give.
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

from .ewl import canonical_gates, noisy_outcome_probs
from .games import Bimatrix
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

    The generator is made at the first refill, so a tournament that
    draws nothing never imports numpy.random.
    """

    def __init__(self, seed: int):
        self._seed = seed
        self._bits = None
        self._words = np.empty(0, dtype=np.uint64)
        self._doubles = []
        self._next = 0  # index of the block's next unread word
        self._high = None  # the kept high half of a word, if any

    def _take(self) -> int:
        """Index of the next unread word, refilling the block when spent."""
        k = self._next
        if k == len(self._doubles):
            if self._bits is None:
                self._bits = np.random.default_rng(self._seed).bit_generator
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
    sampled = cfg.sampled_outcomes

    m1 = np.array([entry.gate.matrix for entry in a1.menu])
    m2 = np.array([entry.gate.matrix for entry in a2.menu])
    pair_probs = noisy_outcome_probs(cfg.gamma, cfg.mode, m1[:, None], m2[None, :], cfg.noise)
    a, b = game.payoff_vectors()
    exp_i, exp_ii = (pair_probs @ a).tolist(), (pair_probs @ b).tolist()
    mass_1 = (pair_probs[..., 1] + pair_probs[..., 3]).tolist()
    mass_2 = (pair_probs[..., 2] + pair_probs[..., 3]).tolist()
    # a sampled outcome is the count of these cuts at or below the draw;
    # leaving out the last cumulative sum, which rounding can put below 1,
    # sends every draw above the third cut to outcome 3
    cuts = np.cumsum(pair_probs, axis=-1)[..., :3].tolist()
    # per outcome: the cell's payoffs and the defect masses it shows
    cells = [game.cell(outcome >> 1, outcome & 1) + (float(outcome & 1), float(outcome >> 1))
             for outcome in range(4)]
    rows, table = [], []
    for i1, probs_row in enumerate(pair_probs.tolist()):
        table.append([])
        for i2, probs in enumerate(probs_row):
            pair = (a1.menu[i1].name, a2.menu[i2].name, tuple(probs))
            table[i1].append((len(rows), cuts[i1][i2], exp_i[i1][i2], exp_ii[i1][i2],
                              mass_1[i1][i2], mass_2[i1][i2]))
            if sampled:
                rows += [RoundRow(*pair, outcome, *cells[outcome][:2]) for outcome in range(4)]
            else:
                rows.append(RoundRow(*pair, None, exp_i[i1][i2], exp_ii[i1][i2]))

    # Each seat's rule (AgentSpec) and state are locals of one loop, so a
    # round calls no Python function but its draws.  A trigger agent plays
    # menu[-1] while `punish` is set; a fixed agent never sets it.
    learns_1, learns_2 = (spec.kind is AgentKind.EPSILON_GREEDY_BANDIT for spec in (a1, a2))
    grim_1, grim_2 = (spec.kind is AgentKind.GRIM_TRIGGER for spec in (a1, a2))
    tft_1, tft_2 = (spec.kind is AgentKind.TIT_FOR_TAT for spec in (a1, a2))
    n_1, n_2 = len(a1.menu), len(a2.menu)
    last_1, last_2 = n_1 - 1, n_2 - 1
    epsilon_1, rate_1, threshold_1 = a1.epsilon, a1.learning_rate, a1.trigger_threshold
    epsilon_2, rate_2, threshold_2 = a2.epsilon, a2.learning_rate, a2.trigger_threshold
    values_1, values_2 = [0.0] * n_1, [0.0] * n_2
    punish_1 = punish_2 = False
    draw, integers = rng.random, rng.integers
    log = []
    append = log.append
    total_i = total_ii = 0.0
    for _ in range(cfg.rounds):
        if learns_1:  # explore on a draw below epsilon, else the first exact maximum
            i1 = int(integers(n_1)) if draw() < epsilon_1 else values_1.index(max(values_1))
        else:
            i1 = last_1 if punish_1 else 0
        if learns_2:
            i2 = int(integers(n_2)) if draw() < epsilon_2 else values_2.index(max(values_2))
        else:
            i2 = last_2 if punish_2 else 0
        code, pair_cuts, pay_i, pay_ii, defect_mass_1, defect_mass_2 = table[i1][i2]
        if sampled:
            outcome = bisect_right(pair_cuts, draw())
            code += outcome
            pay_i, pay_ii, defect_mass_1, defect_mass_2 = cells[outcome]
        if learns_1:
            values_1[i1] += rate_1 * (pay_i - values_1[i1])
        elif grim_1:
            punish_1 = punish_1 or defect_mass_1 > threshold_1
        elif tft_1:
            punish_1 = defect_mass_1 > threshold_1
        if learns_2:
            values_2[i2] += rate_2 * (pay_ii - values_2[i2])
        elif grim_2:
            punish_2 = punish_2 or defect_mass_2 > threshold_2
        elif tft_2:
            punish_2 = defect_mass_2 > threshold_2
        append(code)
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
