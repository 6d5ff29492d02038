"""The quantum-mediated protocol pipeline for 2x2 games.

A run prepares |00>, entangles with J(gamma), applies each player's
local 1-qubit strategy, disentangles with J-dagger, and measures.
Measurement outcome |ab> maps to the game cell (row=a, col=b), i.e.
bit 0 is the first strategy label (C / Buy) and bit 1 the second.
Every evaluation in the package (single runs, mixtures, menu tables,
sweeps, best responses, noisy runs, tournaments) goes through one
broadcast kernel, outcome_amplitudes; a profile under a channel goes
through noisy_outcome_probs, which is the plain kernel under the
identity channel.  In both entangler modes
J|00> = c|00> + i s|11> (c, s = cos, sin of gamma/2) and the generator
G is a signed reversal of the basis, so the kernel needs no 4x4
matrix: one einsum holds its only rounding product, and every other
step multiplies by c, i*s or +-1.

Two named strategy families are provided: the two-parameter set A
(theta, phi) and its three-parameter superset B (theta, alpha, beta),
which coincides with A at beta=0.  Note the matrices use cos(theta),
not the half-angle convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import RangeError, ValidationError
from .games import Bimatrix
from .qcore import (
    DEFECT_GATE,
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    EntanglerMode,
    Gate1Q,
    OutcomeDistribution,
    PureState2Q,
    _ATOL,
    _Value,
    clamp_gamma,
    entangler_generator,
    gate_matrix,
)
from .specs import ChannelLocation, NoiseKind, NoiseSpec

# Each generator is a signed reversal of the basis: its only nonzero
# entries are G[3 - k, k] = +-1, so (psi @ G)[k] = sign[k] * psi[3 - k]
# (sx (x) sx: all +1; Dg (x) Dg: -1 on |01> and |10>).  Read-only views.
_REVERSAL_SIGNS = {mode: entangler_generator(mode)[::-1].diagonal().real
                   for mode in EntanglerMode}


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    v = float(value)
    if not math.isfinite(v) or v < lo - 1e-12 or v > hi + 1e-12:
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
        a, b = game.payoff_vectors()
        return cls(dist, float(dist.probs @ a), float(dist.probs @ b), final_state)


def outcome_amplitudes(gamma, mode: EntanglerMode, u1, u2) -> np.ndarray:
    """Final amplitudes J-dagger (U1 x U2) J |00> for stacks of gates.

    u1[..., 2, 2] and u2[..., 2, 2] broadcast against each other, and
    gamma (a scalar or an array) against their stack shape; the result
    is [..., 4].  Nothing is validated: callers pass unitary gates and
    gamma in [0, pi/2]; an unknown mode raises ValidationError.

    J|00> = c|00> + i s|11> reshaped to a 2x2 matrix is diag(c, i s),
    so the local pair gives U1 diag(c, i s) U2^T: u2 scaled column-wise
    by (c, i s), then one einsum against u1.  J-dagger is c I - i s G,
    and G is a signed reversal of the basis, applied by indexing.
    The only rounding product, u1 times the scaled u2, stays inside
    einsum, whose complex product is the textbook one; numpy's `*` may
    fuse multiply-adds and round differently.  Every other product is
    by c + 0j, 0 + i s or +-1, exact in either arithmetic, so the
    amplitudes are bit-identical to multiplying out the 2x2 matrices
    with einsum; menu tables with exact payoff ties rely on that.
    """
    try:
        sign = _REVERSAL_SIGNS[mode]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown entangler mode: {mode!r}") from None
    half = np.asarray(gamma, dtype=np.float64)[..., None] / 2
    diag = np.concatenate((np.cos(half), 1j * np.sin(half)), axis=-1)
    c, i_s = diag[..., :1], diag[..., 1:]
    psi = np.einsum("...ij,...kj->...ik", u1, u2 * diag[..., None, :])
    psi = psi.reshape(psi.shape[:-2] + (4,))
    return c * psi - i_s * (psi[..., ::-1] * sign)


_PAULIS = np.stack([I2, SIGMA_X, SIGMA_Y, SIGMA_Z])


def _pauli_weights(noise: NoiseSpec) -> np.ndarray:
    """Weight of P_a (x) P_b in a depolarizing channel, as [a, b]."""
    p = noise.p
    if noise.kind == NoiseKind.TWO_QUBIT_DEPOLARIZING:
        w = np.full((4, 4), p / 16.0)
        w[0, 0] += 1.0 - p
        return w
    w = np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    return np.outer(w, w)


def noisy_outcome_probs(gamma, mode: EntanglerMode, u1, u2, noise: NoiseSpec) -> np.ndarray:
    """Outcome probabilities [..., 4] under the channel `noise` of stacks
    of gates u1[..., 2, 2] and u2[..., 2, 2] that broadcast against each
    other; gamma is a validated scalar.  The identity channel (kind none,
    or p = 0) is the plain kernel.  A depolarizing channel is an exact
    mixture of Paulis P_a (x) P_b (Nielsen & Chuang 8.3), and a Pauli on
    the return channel (after the players' gates) or the forward one
    (after the entangler) is one more local gate pair, (P_a U1) (x)
    (P_b U2) or (U1 P_a) (x) (U2 P_b): 16 weighted kernel rows.
    """
    if not isinstance(noise, NoiseSpec):
        raise ValidationError(f"noise must be a NoiseSpec, got {noise!r}")
    if noise.kind is NoiseKind.NONE or noise.p == 0.0:
        return np.abs(outcome_amplitudes(gamma, mode, u1, u2)) ** 2
    u1, u2 = np.asarray(u1)[..., None, :, :], np.asarray(u2)[..., None, :, :]
    if noise.location == ChannelLocation.RETURN:
        left, right = _PAULIS @ u1, _PAULIS @ u2
    else:
        left, right = u1 @ _PAULIS, u2 @ _PAULIS
    amps = outcome_amplitudes(gamma, mode, left[..., :, None, :, :], right[..., None, :, :, :])
    return np.einsum("ab,...abk->...k", _pauli_weights(noise), np.abs(amps) ** 2)


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
        if abs(total - 1.0) > _ATOL:
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
                       m1: MixedQuantumStrategy, m2: MixedQuantumStrategy,
                       noise: NoiseSpec = NoiseSpec()) -> ProtocolResult:
    """Exact convex combination of protocol runs over the support pairs,
    each under the channel `noise` (noiseless by default).

    No sampling is involved; the returned distribution and payoffs are
    the exact mixture, and final_state is None because the average of
    pure runs is not itself pure.
    """
    (w1, u1), (w2, u2) = m1.stacked(), m2.stacked()
    probs = noisy_outcome_probs(clamp_gamma(gamma), mode, u1[:, None], u2[None, :], noise)
    return ProtocolResult.score(game, np.einsum("i,j,ijk->k", w1, w2, probs))
