"""Class-per-agent reference for a tournament's round loop.

The library plays both seats of a tournament in one loop, with each
agent's state in locals (qgames.hft.play_tournament).  This module plays
the same rounds the plain way: one object per agent with choose() and
observe() methods, and one round at a time against the same table of
menu pairs, so the tests can require the two to agree exactly.  The
draws come from the rng passed in, in the documented order: agent 1's
decision draws, agent 2's, then the outcome draw when sampling.
"""
from bisect import bisect_right

import numpy as np

from qgames import AgentKind, RoundRow, TournamentResult
from qgames.ewl import noisy_outcome_probs
from qgames.hft import _mean_payoffs


class Agent:
    def __init__(self, spec):
        self.spec = spec

    def choose(self, rng):
        raise NotImplementedError

    def observe(self, own_index, opponent_defect_mass, reward):
        pass


class FixedAgent(Agent):
    def choose(self, rng):
        return 0


class GrimTriggerAgent(Agent):
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


class TitForTatAgent(Agent):
    def __init__(self, spec):
        super().__init__(spec)
        self.retaliate = False

    def choose(self, rng):
        return len(self.spec.menu) - 1 if self.retaliate else 0

    def observe(self, own_index, opponent_defect_mass, reward):
        self.retaliate = opponent_defect_mass > self.spec.trigger_threshold


class BanditAgent(Agent):
    """Constant-step epsilon-greedy value learner over the menu."""

    def __init__(self, spec):
        super().__init__(spec)
        self.values = [0.0] * len(spec.menu)

    def choose(self, rng):
        if rng.random() < self.spec.epsilon:
            return int(rng.integers(len(self.values)))
        values = self.values
        return values.index(max(values))  # first index wins ties

    def observe(self, own_index, opponent_defect_mass, reward):
        values = self.values
        values[own_index] += self.spec.learning_rate * (reward - values[own_index])


AGENT_CLASSES = {
    AgentKind.FIXED: FixedAgent,
    AgentKind.GRIM_TRIGGER: GrimTriggerAgent,
    AgentKind.TIT_FOR_TAT: TitForTatAgent,
    AgentKind.EPSILON_GREEDY_BANDIT: BanditAgent,
}


def play_tournament_ref(game, a1, a2, cfg, rng):
    """The TournamentResult of a tournament between a1 and a2 drawing
    from rng: rows one per menu pair (and outcome, when sampling), in
    the order play_tournament lists them."""
    agent1 = AGENT_CLASSES[a1.kind](a1)
    agent2 = AGENT_CLASSES[a2.kind](a2)
    m1 = np.array([entry.gate.matrix for entry in a1.menu])
    m2 = np.array([entry.gate.matrix for entry in a2.menu])
    pair_probs = noisy_outcome_probs(cfg.gamma, cfg.mode, m1[:, None], m2[None, :], cfg.noise)
    a, b = game.payoff_vectors()
    exp_i, exp_ii = pair_probs @ a, pair_probs @ b  # as the library rounds them
    rows, index = [], {}
    for i1, entry1 in enumerate(a1.menu):
        for i2, entry2 in enumerate(a2.menu):
            probs = pair_probs[i1, i2]
            pair = (entry1.name, entry2.name, tuple(probs.tolist()))
            index[i1, i2] = len(rows)
            if cfg.sampled_outcomes:
                rows += [RoundRow(*pair, k, *game.cell(k >> 1, k & 1)) for k in range(4)]
            else:
                rows.append(RoundRow(*pair, None, float(exp_i[i1, i2]), float(exp_ii[i1, i2])))

    log = []
    total_i = total_ii = 0.0
    for _ in range(cfg.rounds):
        i1 = agent1.choose(rng)
        i2 = agent2.choose(rng)
        probs = pair_probs[i1, i2].tolist()
        code = index[i1, i2]
        if cfg.sampled_outcomes:
            cdf = np.cumsum(pair_probs[i1, i2]).tolist()
            outcome = min(bisect_right(cdf, rng.random()), 3)
            code += outcome
            mass_1, mass_2 = float(outcome & 1), float(outcome >> 1)
        else:
            mass_1, mass_2 = probs[1] + probs[3], probs[2] + probs[3]
        row = rows[code]
        agent1.observe(i1, mass_1, row.payoff_I)
        agent2.observe(i2, mass_2, row.payoff_II)
        log.append(code)
        total_i += row.payoff_I
        total_ii += row.payoff_II
    mean_i, mean_ii = _mean_payoffs(rows, log, total_i, total_ii)
    return TournamentResult(rows=tuple(rows), log=tuple(log),
                            mean_payoff_I=mean_i, mean_payoff_II=mean_ii)
