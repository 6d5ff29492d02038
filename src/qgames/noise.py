"""The noise threshold: where noise erodes the quantum advantage.

The symmetric set-A equilibrium profile (search.symmetric_equilibrium_gate)
is tracked under a depolarizing channel by ewl.run_protocol, as the
exact Pauli mixture; nothing is sampled.  The channel's spec types are
qcore's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ewl import run_protocol
from .games import Bimatrix
from .qcore import (GAMMA_MAX, EntanglerMode, Gate1Q, NoiseKind, NoiseSpec, SearchConfig,
                    check_instance)
from .search import symmetric_equilibrium_gate


@dataclass(frozen=True)
class ThresholdResult:
    found: bool
    p_star: Optional[float]
    payoff_noiseless: float
    payoff_full_noise: float
    limit: float
    gate: Gate1Q


def advantage_threshold(game: Bimatrix, mode: EntanglerMode, noise_kind: NoiseKind,
                        cfg: SearchConfig, gamma: float = GAMMA_MAX) -> ThresholdResult:
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
    check_instance("game", game, Bimatrix)
    check_instance("cfg", cfg, SearchConfig)
    gate = symmetric_equilibrium_gate(game, gamma, mode, cfg)
    limit = float(game.row_payoffs[1, 0] + game.row_payoffs[0, 1]) / 2.0
    y0, y_half, y1 = (
        run_protocol(game, gamma, mode, gate, gate, NoiseSpec(kind=noise_kind, p=p)).payoff_I
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
