"""Noisy single profiles, entanglement sweeps and the noise threshold.

A noisy run is the exact Pauli mixture of ewl.noisy_outcome_probs
(re-exported here with the channel's spec types); nothing is sampled.
The tests check it against a Kraus density-matrix reference
(tests/kraus.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, RangeError
from .ewl import ProtocolResult, noisy_outcome_probs, outcome_amplitudes, strategy_matrix
from .games import Bimatrix
from .qcore import EntanglerMode, Gate1Q, check_array_size, clamp_gamma, gate_matrix
from .specs import ChannelLocation, NoiseKind, NoiseSpec, Player, SearchConfig


def run_protocol_noisy(game: Bimatrix, gamma: float, mode: EntanglerMode,
                       u1: Gate1Q, u2: Gate1Q, noise: NoiseSpec) -> ProtocolResult:
    """Protocol run with the channel `noise` at its location: the exact
    Pauli mixture, which with the identity channel is run_protocol's."""
    return ProtocolResult.score(game, noisy_outcome_probs(
        clamp_gamma(gamma), mode, gate_matrix(u1), gate_matrix(u2), noise))


def gamma_sweep(game: Bimatrix, mode: EntanglerMode, u1: Gate1Q, u2: Gate1Q,
                steps: int) -> tuple:
    """Payoffs of a fixed profile over a uniform entanglement grid.

    Returns (("gamma", "payoff_I", "payoff_II"), rows).  The table is
    recorded data; no monotonicity is implied.
    """
    if steps < 2:
        raise RangeError(f"steps must be >= 2, got {steps}")
    check_array_size(steps, f"steps={steps}")
    gammas = np.linspace(0.0, np.pi / 2, steps)
    probs = np.abs(outcome_amplitudes(gammas, mode, gate_matrix(u1), gate_matrix(u2))) ** 2
    a, b = game.payoff_vectors()
    return ("gamma", "payoff_I", "payoff_II"), np.column_stack([gammas, probs @ a, probs @ b])


@dataclass(frozen=True)
class ThresholdResult:
    found: bool
    p_star: Optional[float]
    payoff_noiseless: float
    payoff_full_noise: float
    limit: float
    gate: Gate1Q


def symmetric_equilibrium_gate(game: Bimatrix, gamma: float, mode: EntanglerMode,
                               cfg: SearchConfig) -> Gate1Q:
    """Best symmetric set-A equilibrium profile's gate.

    Grid candidates are ranked by symmetric payoff (ties lexicographic
    in parameters); the first whose exact set-A regret (best response
    minus own payoff) is at most eps_nash for both players is returned.
    Regrets come from one batched exact optimum per block of candidates,
    the blocks growing fourfold from 16 so an early equilibrium is cheap.
    """
    # only `advantage` needs the solver
    from .search import _exact_optimum, _grid_points, _payoff_form

    gamma = clamp_gamma(gamma)
    n = cfg.grid_resolution
    pts = _grid_points("A", n)
    u = strategy_matrix(pts[:, 0], pts[:, 1], 0.0)
    a, b = game.payoff_vectors()
    probs = np.abs(outcome_amplitudes(gamma, mode, u, u)) ** 2
    own = np.stack([probs @ a, probs @ b])

    order = np.argsort(-own[0], kind="stable")
    start, size = 0, 16
    while start < len(order):
        block = order[start:start + size]
        m = np.stack([_payoff_form(game, gamma, mode, u[block], p) for p in Player])
        x = _exact_optimum(m, "A")
        regret = np.einsum("...i,...ij,...j->...", x, m, x) - own[:, block]
        passed = np.flatnonzero(regret.max(axis=0) <= cfg.eps_nash)
        if passed.size:
            k = block[passed[0]]
            return Gate1Q(strategy_matrix(pts[k, 0], pts[k, 1], 0.0))
        start, size = start + size, 4 * size
    raise ConvergenceError(
        f"no symmetric set-A equilibrium on the {n}x{n} grid of candidates")


def advantage_threshold(game: Bimatrix, mode: EntanglerMode, noise_kind: NoiseKind,
                        cfg: SearchConfig, gamma: float = np.pi / 2) -> ThresholdResult:
    """Smallest noise level p at which the symmetric quantum equilibrium
    payoff falls to the limit (T+S)/2 of the game's row payoffs, the
    payoff of alternating exploitation in repeated play.

    The equilibrium profile is located noiselessly in set A; its payoff
    is then tracked under the channel.  The channel's Pauli weights are
    polynomials of degree at most 2 in p, so the payoff is the quadratic
    through its values at p = 0, 1/2 and 1, and the threshold is its
    smallest root in [0, 1], in closed form.  kind=NONE reports no
    threshold, as does a payoff that stays above the limit on [0, 1].
    """
    gate = symmetric_equilibrium_gate(game, gamma, mode, cfg)
    limit = float(game.row_payoffs[1, 0] + game.row_payoffs[0, 1]) / 2.0
    y0, y_half, y1 = (
        run_protocol_noisy(game, gamma, mode, gate, gate, NoiseSpec(kind=noise_kind, p=p)).payoff_I
        for p in (0.0, 0.5, 1.0))
    if noise_kind == NoiseKind.NONE:
        return ThresholdResult(False, None, y0, y1, limit, gate)
    if y0 <= limit:
        return ThresholdResult(True, 0.0, y0, y1, limit, gate)

    # payoff(p) - limit = c p^2 + b p + d, d > 0.  The smallest positive
    # root is 2d / (sqrt(disc) - b), also for c = 0, without cancellation.
    # tol is the rounding of a payoff: a minimum, or an end value at p = 1,
    # within tol of the limit reaches it.
    c, b, d = 2.0 * (y0 - 2.0 * y_half + y1), 4.0 * y_half - 3.0 * y0 - y1, y0 - limit
    tol = 64 * np.finfo(float).eps * float(np.abs(game.row_payoffs).max())
    disc = b * b - 4.0 * c * d
    if abs(disc) <= 4.0 * abs(c) * tol:
        disc = 0.0
    denom = np.sqrt(disc) - b if disc >= 0 else 0.0
    p_star = 2.0 * d / denom if denom > 0 else np.inf
    if p_star > 1.0 and y1 - limit > tol:
        return ThresholdResult(False, None, y0, y1, limit, gate)
    return ThresholdResult(True, float(min(p_star, 1.0)), y0, y1, limit, gate)
