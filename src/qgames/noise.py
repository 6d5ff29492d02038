"""Noisy-channel variants of the protocol, evaluated as Pauli mixtures.

Both depolarizing channels are exact mixtures of two-qubit Paulis
P_a (x) P_b (Nielsen & Chuang 8.3), and a Pauli on the return channel
(after the players' gates) or the forward channel (after the
entangler) is one more local strategy pair, (P_a U1) (x) (P_b U2) or
(U1 P_a) (x) (U2 P_b).  A noisy run is therefore a weighted sum of 16
rows of the protocol kernel; nothing is sampled.  DensityMatrix2Q and
apply_noise keep the Kraus density-matrix form as the exact reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConvergenceError, RangeError, ValidationError
from .ewl import ProtocolResult, outcome_amplitudes, strategy_matrix
from .games import Bimatrix
from .qcore import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _ATOL,
    EntanglerMode,
    Gate1Q,
    OutcomeDistribution,
    PureState2Q,
    _Value,
    clamp_gamma,
    gate_matrix,
)
from .search import Player, SearchConfig, _exact_optimum, _payoff_form


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
        p = float(self.p)
        if not (0.0 <= p <= 1.0):
            raise RangeError(f"noise probability p={self.p!r} outside [0,1]")
        object.__setattr__(self, "p", p)


class DensityMatrix2Q(_Value):
    """A validated two-qubit density matrix: Hermitian, unit trace,
    positive semidefinite (within tolerance)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.shape != (4, 4):
            raise ValidationError(f"DensityMatrix2Q must be 4x4, got {m.shape}")
        if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
            raise ValidationError("DensityMatrix2Q entries must be finite")
        if np.abs(m - m.conj().T).max() > _ATOL:
            raise ValidationError("DensityMatrix2Q is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > _ATOL:
            raise ValidationError(f"DensityMatrix2Q trace is {tr!r}, expected 1")
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if eigs.min() < -_ATOL:
            raise ValidationError(f"DensityMatrix2Q has negative eigenvalue {eigs.min()!r}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_pure(cls, state: PureState2Q) -> "DensityMatrix2Q":
        return cls(np.outer(state.amps, state.amps.conj()))

    def diagonal_distribution(self) -> OutcomeDistribution:
        return OutcomeDistribution(np.real(np.diag(self.entries)))


def depolarizing_kraus_1q(p: float) -> list:
    """Kraus set {sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z}."""
    if not (0.0 <= p <= 1.0):
        raise RangeError(f"p={p!r} outside [0,1]")
    w = np.sqrt(p / 3.0)
    return [np.sqrt(1.0 - p) * I2, w * SIGMA_X, w * SIGMA_Y, w * SIGMA_Z]


def _apply_kind(rho: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    if spec.kind == NoiseKind.NONE or spec.p == 0.0:
        return rho
    if spec.kind == NoiseKind.TWO_QUBIT_DEPOLARIZING:
        return (1.0 - spec.p) * rho + spec.p * np.trace(rho).real * np.eye(4) / 4.0
    kraus = depolarizing_kraus_1q(spec.p)
    for position in (0, 1):
        acc = np.zeros_like(rho)
        for k in kraus:
            full = np.kron(k, I2) if position == 0 else np.kron(I2, k)
            acc += full @ rho @ full.conj().T
        rho = acc
    return rho


def apply_noise(rho: DensityMatrix2Q, spec: NoiseSpec) -> DensityMatrix2Q:
    """Exact Kraus-sum application of the configured channel."""
    return DensityMatrix2Q(_apply_kind(rho.entries, spec))


_PAULIS = np.stack([I2, SIGMA_X, SIGMA_Y, SIGMA_Z])


def _pauli_weights(noise: NoiseSpec) -> np.ndarray:
    """Weight of P_a (x) P_b in the channel's Pauli mixture, as [a, b]."""
    p = 0.0 if noise.kind == NoiseKind.NONE else noise.p
    if noise.kind == NoiseKind.TWO_QUBIT_DEPOLARIZING:
        w = np.full((4, 4), p / 16.0)
        w[0, 0] += 1.0 - p
        return w
    w = np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    return np.outer(w, w)


def noisy_outcome_probs(gamma, mode: EntanglerMode, u1, u2, noise: NoiseSpec) -> np.ndarray:
    """Outcome probabilities [..., 4] of the noisy circuit for stacks of
    gates u1[..., 2, 2] and u2[..., 2, 2] that broadcast against each
    other, from one kernel call over the 16 Pauli pairs per profile.
    gamma is a validated scalar."""
    u1, u2 = np.asarray(u1)[..., None, :, :], np.asarray(u2)[..., None, :, :]
    if noise.location == ChannelLocation.RETURN:
        left, right = _PAULIS @ u1, _PAULIS @ u2
    else:
        left, right = u1 @ _PAULIS, u2 @ _PAULIS
    amps = outcome_amplitudes(gamma, mode, left[..., :, None, :, :], right[..., None, :, :, :])
    return np.einsum("ab,...abk->...k", _pauli_weights(noise), np.abs(amps) ** 2)


def run_protocol_noisy(game: Bimatrix, gamma: float, mode: EntanglerMode,
                       u1: Gate1Q, u2: Gate1Q, noise: NoiseSpec) -> ProtocolResult:
    """Protocol run with the noise channel inserted at its location.

    The result is the exact Pauli mixture; with kind=NONE it matches
    run_protocol.
    """
    if not isinstance(noise, NoiseSpec):
        raise ValidationError(f"noise must be a NoiseSpec, got {noise!r}")
    probs = noisy_outcome_probs(clamp_gamma(gamma), mode, gate_matrix(u1), gate_matrix(u2),
                                noise)
    return ProtocolResult.score(game, probs)


def gamma_sweep(game: Bimatrix, mode: EntanglerMode, u1: Gate1Q, u2: Gate1Q,
                steps: int) -> tuple:
    """Payoffs of a fixed profile over a uniform entanglement grid.

    Returns (("gamma", "payoff_I", "payoff_II"), rows).  The table is
    recorded data; no monotonicity is implied.
    """
    if steps < 2:
        raise RangeError(f"steps must be >= 2, got {steps}")
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
    gamma = clamp_gamma(gamma)
    n = cfg.grid_resolution
    thetas = np.linspace(0, np.pi / 2, n)
    phis = np.linspace(0, np.pi / 2, n)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    pts = np.stack([tt.ravel(), pp.ravel()], axis=1)
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
