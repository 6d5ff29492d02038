"""The quantum-mediated protocol pipeline for 2x2 games.

A run prepares |00>, entangles with J(gamma), applies each player's
local 1-qubit strategy, disentangles with J-dagger, and measures.
Measurement outcome |ab> maps to the game cell (row=a, col=b), i.e.
bit 0 is the first strategy label (C / Buy) and bit 1 the second.
Every evaluation in the package (single runs, mixtures, menu tables,
sweeps, best responses, noisy runs, tournaments) goes through one
broadcast kernel, outcome_amplitudes.

Two named strategy families are provided: the two-parameter set A
(theta, phi) and its three-parameter superset B (theta, alpha, beta),
which coincides with A at beta=0.  Note the matrices use cos(theta),
not the half-angle convention.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import RangeError, ValidationError
from .games import Bimatrix
from .qcore import (
    DEFECT_GATE,
    SIGMA_X,
    EntanglerMode,
    Gate1Q,
    OutcomeDistribution,
    PureState2Q,
    _Value,
    clamp_gamma,
    entangler_generator,
    gate_matrix,
)

_KET00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    v = float(value)
    if not np.isfinite(v) or v < lo - 1e-12 or v > hi + 1e-12:
        raise RangeError(f"{name}={value!r} outside [{lo:.6g}, {hi:.6g}]")
    return min(max(v, lo), hi)


@dataclass(frozen=True)
class StrategyParamsA:
    """Parameters of the two-parameter strategy set:
    theta in [0, pi/2], phi in [0, pi/2]."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_range("theta", self.theta, 0.0, np.pi / 2))
        object.__setattr__(self, "phi", _check_range("phi", self.phi, 0.0, np.pi / 2))


@dataclass(frozen=True)
class StrategyParamsB:
    """Parameters of the full strategy set: theta in [0, pi/2],
    alpha and beta in [-pi, pi]."""

    theta: float
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_range("theta", self.theta, 0.0, np.pi / 2))
        object.__setattr__(self, "alpha", _check_range("alpha", self.alpha, -np.pi, np.pi))
        object.__setattr__(self, "beta", _check_range("beta", self.beta, -np.pi, np.pi))


def strategy_matrix(theta, alpha, beta) -> np.ndarray:
    """Raw matrices of the three-parameter family (no range checks).

    The angles broadcast against each other; the result has shape
    broadcast_shape + (2, 2), a single 2x2 matrix for scalars.
    """
    theta, alpha, beta = np.broadcast_arrays(theta, alpha, beta)
    c, s = np.cos(theta), np.sin(theta)
    u = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    u[..., 0, 0] = np.exp(1j * alpha) * c
    u[..., 0, 1] = np.exp(1j * beta) * s
    u[..., 1, 0] = -np.exp(-1j * beta) * s
    u[..., 1, 1] = np.exp(-1j * alpha) * c
    return u


def gate_from_A(params: StrategyParamsA) -> Gate1Q:
    """[[e^{i phi} cos t, sin t], [-sin t, e^{-i phi} cos t]]."""
    return Gate1Q(strategy_matrix(params.theta, params.phi, 0.0))


def gate_from_B(params: StrategyParamsB) -> Gate1Q:
    """[[e^{i a} cos t, e^{i b} sin t], [-e^{-i b} sin t, e^{-i a} cos t]];
    reduces to the set-A gate at beta=0."""
    return Gate1Q(strategy_matrix(params.theta, params.alpha, params.beta))


class CanonicalGates(NamedTuple):
    C: Gate1Q
    D: Gate1Q
    Q: Gate1Q


def canonical_gates(mode: EntanglerMode) -> CanonicalGates:
    """The named strategies C (cooperate), D (defect), Q (quantum).

    C is the identity and Q = diag(i, -i) in both modes.  The defect
    gate depends on the entangler generator: it is the gate whose
    tensor square commutes with the generator, so that defecting embeds
    the classical game at every gamma.  PAULI_X pairs with i*sigma_x,
    DEFECT with [[0,1],[-1,0]] (the set-A gate at theta=pi/2).
    """
    c = Gate1Q(np.eye(2, dtype=np.complex128))
    q = Gate1Q(np.diag([1j, -1j]))
    if mode == EntanglerMode.PAULI_X:
        d = Gate1Q(1j * SIGMA_X)
    elif mode == EntanglerMode.DEFECT:
        d = Gate1Q(DEFECT_GATE)
    else:
        raise ValidationError(f"unknown entangler mode: {mode!r}")
    return CanonicalGates(C=c, D=d, Q=q)


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome distribution and expected payoffs of one protocol run.

    final_state is the post-circuit pure state, or None when the run
    is an exact mixture (mixed strategies, noisy channels)."""

    distribution: OutcomeDistribution
    payoff_I: float
    payoff_II: float
    final_state: Optional[PureState2Q] = None

    @classmethod
    def score(cls, game: Bimatrix, probs,
              final_state: Optional[PureState2Q] = None) -> "ProtocolResult":
        """Validate probs as an outcome distribution and score it."""
        dist = OutcomeDistribution(probs)
        return cls(dist, *payoffs_from_distribution(game, dist), final_state)


def payoffs_from_distribution(game: Bimatrix, dist: OutcomeDistribution) -> tuple:
    a, b = game.payoff_vectors()
    return float(dist.probs @ a), float(dist.probs @ b)


def outcome_amplitudes(gamma, mode: EntanglerMode, u1, u2) -> np.ndarray:
    """Final amplitudes J-dagger (U1 x U2) J |00> for stacks of gates.

    u1[..., 2, 2] and u2[..., 2, 2] broadcast against each other, and
    gamma (a scalar or an array) against their stack shape; the result
    is [..., 4].  J|00> reshaped to the 2x2 matrix m0 turns the local
    pair into U1 @ m0 @ U2^T, and right-multiplying its flattening by
    conj(J) = cos(g/2) I - i sin(g/2) G applies J-dagger (the generator
    G is real).  Nothing is validated: callers pass unitary gates and
    gamma in [0, pi/2].
    """
    gen = entangler_generator(mode)
    half = np.asarray(gamma, dtype=np.float64)[..., None] / 2
    c, s = np.cos(half), np.sin(half)
    m0 = (c * _KET00 + 1j * s * gen[:, 0]).reshape(half.shape[:-1] + (2, 2))
    # einsum, not matmul: numpy's matmul is slow on stacks of 2x2 matrices
    psi = np.einsum("...ij,...jk->...ik", u1, np.einsum("...jl,...kl->...jk", m0, u2))
    psi = psi.reshape(psi.shape[:-2] + (4,))
    return c * psi - 1j * s * (psi @ gen)


def run_protocol(game: Bimatrix, gamma: float, mode: EntanglerMode,
                 u1: Gate1Q, u2: Gate1Q) -> ProtocolResult:
    """Evaluate J-dagger (u1 x u2) J |00> and score it against the game.

    Raw 2x2 matrices are accepted and validated as Gate1Q.
    """
    amps = outcome_amplitudes(clamp_gamma(gamma), mode, gate_matrix(u1), gate_matrix(u2))
    state = PureState2Q(amps)
    return ProtocolResult.score(game, np.abs(state.amps) ** 2, state)


class MixedQuantumStrategy(_Value):
    """A finite probability mixture over 1-qubit strategies."""

    __slots__ = ("support",)

    def __init__(self, support):
        entries = []
        total = 0.0
        for weight, gate in support:
            w = float(weight)
            if not np.isfinite(w) or w < -1e-12:
                raise ValidationError(f"mixed-strategy weight {weight!r} must be nonnegative")
            if not isinstance(gate, Gate1Q):
                gate = Gate1Q(gate)
            entries.append((max(w, 0.0), gate))
            total += w
        if not entries:
            raise ValidationError("mixed strategy needs a nonempty support")
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"mixed-strategy weights sum to {total!r}, expected 1")
        object.__setattr__(self, "support", tuple(entries))

    @classmethod
    def point_mass(cls, gate: Gate1Q) -> "MixedQuantumStrategy":
        return cls([(1.0, gate)])

    def __len__(self):
        return len(self.support)

    def stacked(self) -> tuple:
        """(weights[n], gate matrices[n, 2, 2]) of the support."""
        return (np.array([w for w, _ in self.support]),
                np.array([g.matrix for _, g in self.support]))


def run_protocol_mixed(game: Bimatrix, gamma: float, mode: EntanglerMode,
                       m1: MixedQuantumStrategy, m2: MixedQuantumStrategy) -> ProtocolResult:
    """Exact convex combination of protocol runs over the support pairs.

    No sampling is involved; the returned distribution and payoffs are
    the exact mixture, and final_state is None because the average of
    pure runs is not itself pure.
    """
    (w1, u1), (w2, u2) = m1.stacked(), m2.stacked()
    amps = outcome_amplitudes(clamp_gamma(gamma), mode, u1[:, None], u2[None, :])
    return ProtocolResult.score(game, np.einsum("i,j,ijk->k", w1, w2, np.abs(amps) ** 2))
