"""The quantum-mediated protocol pipeline for 2x2 games.

A run prepares |00>, entangles with J(gamma), applies each player's
local 1-qubit strategy, disentangles with J-dagger, and measures.
Measurement outcome |ab> maps to the game cell (row=a, col=b), i.e.
bit 0 is the first strategy label (C / Buy) and bit 1 the second.
Every evaluation in the package (single runs, mixtures, menu tables,
sweeps, best responses, noisy runs, tournaments) goes through one
broadcast kernel, outcome_amplitudes; a profile under a channel goes
through noisy_outcome_probs, which is the plain kernel under the
identity channel.  One evaluator, run_protocol, scores a profile of
gates or mixtures under any channel, and gamma_sweep scores a profile
over an entanglement grid.  In both entangler modes
J|00> = c|00> + i s|11> (c, s = cos, sin of gamma/2) and the generator
G is a signed reversal of the basis, so the kernel needs no 4x4
matrix: one einsum holds its only rounding product, and every other
step multiplies by c, i*s or +-1.  The einsum writes the stack axes
last, so the kernel's loops run along the stack of gates; the result
is still a C-contiguous [..., 4] array, with the bytes of the
stack-first layout.

Two named strategy families are provided, named by SPACES: the
two-parameter set A (theta, phi) and its three-parameter superset B
(theta, alpha, beta), which coincides with A at beta=0.  Each set is
one value, its params type, which states its ranges (BOUNDS), its
faces (FACES, OCTANT), its gates (params.gate()) and a gate's params
and name (of(matrix), str(params)).  Note the matrices use cos(theta),
not the half-angle convention.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import NamedTuple, Optional

import numpy as np

from .errors import ValidationError
from .games import Bimatrix
from .qcore import (
    DEFECT_GATE,
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ChannelLocation,
    EntanglerMode,
    Gate1Q,
    NoiseKind,
    NoiseSpec,
    OutcomeDistribution,
    PureState2Q,
    _ATOL,
    _Value,
    check_array_size,
    check_instance,
    check_integer,
    check_real,
    check_sequence,
    clamp_gamma,
    gate_matrix,
)

# G (sx (x) sx, or Dg (x) Dg) is a signed reversal of the basis: its only
# nonzero entries are G[3 - k, k] = +-1, so (psi @ G)[k] = sign[k] * psi[3 - k].
# Stored complex, as +-1 + 0j, so that the kernel's product casts nothing.
_REVERSAL_SIGNS = {EntanglerMode.PAULI_X: np.array([1.0, 1.0, 1.0, 1.0], dtype=np.complex128),
                   EntanglerMode.DEFECT: np.array([1.0, -1.0, -1.0, 1.0], dtype=np.complex128)}
for _sign in _REVERSAL_SIGNS.values():
    _sign.setflags(write=False)
# each mode's defect gate, whose tensor square commutes with its generator G
_DEFECT_GATES = {EntanglerMode.PAULI_X: 1j * SIGMA_X, EntanglerMode.DEFECT: DEFECT_GATE}


class _StrategyParams:
    """Base of a strategy set's params type.  NAME is the set's key in
    SPACES and BOUNDS the (lo, hi) of each field in field order.  A gate
    is a unit quaternion x, U = x0 I + i (x1 sx + x2 sy + x3 sz), and a
    best response in the set lies on one of its FACES, subspaces listed
    by coordinate, held to x >= 0 when OCTANT is true."""

    def __post_init__(self):
        # 1e-8 of spill: a name (str(params)) rounds pi/2 up by 3.2e-9
        for f, (lo, hi) in zip(fields(self), self.BOUNDS):
            value = check_real(f.name, getattr(self, f.name), lo, hi, 1e-8)
            object.__setattr__(self, f.name, value)

    def __str__(self):
        """The set's name of the gate, NAME(v,...) at 9 significant digits,
        which cli.parse_strategy reads back."""
        return f"{self.NAME}({','.join(f'{v:.9g}' for v in astuple(self))})"

    @classmethod
    def _from_quaternion(cls, x: np.ndarray) -> "_StrategyParams":
        """The params of the gate x in the set, from U00 = x0 + i x3 =
        e^{i alpha} cos(theta) and U01 = x2 + i x1 = e^{i beta} sin(theta);
        the phase of an entry of modulus at most 1e-12 reads as 0."""
        r00, r01 = np.hypot(x[0], x[3]), np.hypot(x[2], x[1])
        alpha = float(np.arctan2(x[3], x[0])) if r00 > 1e-12 else 0.0
        beta = float(np.arctan2(x[1], x[2])) if r01 > 1e-12 else 0.0
        angles = float(np.arctan2(r01, r00)), alpha, beta
        return cls(*angles[:len(cls.BOUNDS)])  # set A's gates have beta = 0

    @classmethod
    def of(cls, matrix) -> "_StrategyParams":
        """The params of a 2x2 unitary in the set, up to a global phase: a
        determinant other than 1 is first divided out by its square root."""
        m = np.asarray(matrix, dtype=np.complex128)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det - 1.0) > 1e-12:
            m = m / np.sqrt(det)
        return cls._from_quaternion((m[0, 0].real, m[0, 1].imag, m[0, 1].real, m[0, 0].imag))

    def gate(self) -> Gate1Q:
        """The set's gate at these params."""
        return Gate1Q(strategy_matrix(*astuple(self)))


@dataclass(frozen=True)
class StrategyParamsA(_StrategyParams):
    """Parameters of the two-parameter set: set B at beta=0, with phi as alpha."""

    theta: float
    phi: float

    NAME = "A"
    BOUNDS = ((0.0, np.pi / 2), (0.0, np.pi / 2))
    FACES = ((0,), (2,), (3,), (0, 2), (0, 3), (2, 3), (0, 2, 3))  # of {x1 = 0}
    OCTANT = True


@dataclass(frozen=True)
class StrategyParamsB(_StrategyParams):
    """Parameters of the full strategy set, every gate of SU(2)."""

    theta: float
    alpha: float
    beta: float

    NAME = "B"
    BOUNDS = ((0.0, np.pi / 2), (-np.pi, np.pi), (-np.pi, np.pi))
    FACES = ((0, 1, 2, 3),)
    OCTANT = False


# The strategy sets by name.
SPACES = {p.NAME: p for p in (StrategyParamsA, StrategyParamsB)}


def strategy_matrix(theta, alpha, beta=0.0) -> np.ndarray:
    """Raw matrices [[e^{i a} cos t, e^{i b} sin t], [-e^{-i b} sin t,
    e^{-i a} cos t]] of the three-parameter family (no range checks);
    beta=0 gives set A's, with alpha as phi.

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
    check_instance("mode", mode, EntanglerMode)
    return CanonicalGates(C=Gate1Q(np.eye(2, dtype=np.complex128)),
                          D=Gate1Q(_DEFECT_GATES[mode]), Q=Gate1Q(np.diag([1j, -1j])))


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome distribution and expected payoffs of one protocol run.

    final_state is the post-circuit pure state of two gates under the
    identity channel, and None for an exact mixture (mixtures, channels)."""

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
    is a new C-contiguous [..., 4] array.  Only the mode is validated:
    callers pass unitary gates and gamma in [0, pi/2].

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

    einsum writes the stack axes last, so its loops run along the stack
    rather than over the length-2 contracted index once per entry.
    J-dagger is applied in that layout, and its last step, the
    difference, is written through a transposed view straight into the
    result, so no full-size copy is made.  Each entry is the same sum of
    the same products in either layout, so the bytes are those of the
    stack-first layout, signed zeros included.
    """
    check_instance("mode", mode, EntanglerMode)
    sign = _REVERSAL_SIGNS[mode]
    half = np.multiply(gamma, 0.5, dtype=np.float64)[..., None]  # the bits of gamma / 2
    diag = np.concatenate((np.cos(half), 1j * np.sin(half)), axis=-1)
    # u2 is scaled in F order, so that the product too runs along the stack;
    # psi is in C order, so that [2, 2, ...] flattens to [4, ...] without a copy
    scaled = np.multiply(u2, diag[..., None, :], order="F")
    psi = np.einsum("...ij,...kj->ik...", u1, scaled, order="C")
    stack = psi.ndim - 2
    out = np.empty(psi.shape[2:] + (4,), dtype=np.complex128)
    out_t = out.transpose((stack, *range(stack)))  # [4, ...], a view of out
    psi = psi.reshape(out_t.shape)
    g_psi = psi[::-1] * sign.reshape((4,) + (1,) * stack)  # G psi, then i s G psi
    np.multiply(diag[..., 1], g_psi, out=g_psi)
    np.multiply(diag[..., 0], psi, out=psi)
    np.subtract(psi, g_psi, out=out_t)
    return out


_PAULIS = np.stack([I2, SIGMA_X, SIGMA_Y, SIGMA_Z])


def _pauli_weights(noise: NoiseSpec) -> np.ndarray:
    """Weight of P_a (x) P_b in a depolarizing channel, as [a, b]."""
    p = noise.p
    if noise.kind == NoiseKind.TWO_QUBIT_DEPOLARIZING:
        w = np.full((4, 4), p / 16.0)
        w[0, 0] += 1.0 - p
        return w
    w = np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
    return w[:, None] * w


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
    check_instance("noise", noise, NoiseSpec)
    if noise.kind is NoiseKind.NONE or noise.p == 0.0:
        return np.abs(outcome_amplitudes(gamma, mode, u1, u2)) ** 2
    u1, u2 = np.asarray(u1)[..., None, :, :], np.asarray(u2)[..., None, :, :]
    if noise.location == ChannelLocation.RETURN:
        left, right = _PAULIS @ u1, _PAULIS @ u2
    else:
        left, right = u1 @ _PAULIS, u2 @ _PAULIS
    amps = outcome_amplitudes(gamma, mode, left[..., :, None, :, :], right[..., None, :, :, :])
    return np.einsum("ab,...abk->...k", _pauli_weights(noise), np.abs(amps) ** 2)


class MixedQuantumStrategy(_Value):
    """A finite probability mixture over 1-qubit strategies."""

    __slots__ = ("support", "_stacked")

    def __init__(self, support):
        entries = []
        total = 0.0
        for entry in check_sequence("support", support,
                                    "a nonempty sequence of (weight, gate) pairs"):
            weight, gate = check_sequence("support entries", entry, "(weight, gate) pairs", 2)
            w = check_real("mixed-strategy weight", weight, 0.0, spill=1e-12)
            entries.append((w, gate if isinstance(gate, Gate1Q) else Gate1Q(gate)))
            total += w
        if abs(total - 1.0) > _ATOL:
            raise ValidationError(f"mixed-strategy weights sum to {total!r}, expected 1")
        object.__setattr__(self, "support", tuple(entries))
        stacked = np.array([w for w, _ in entries]), np.array([g.matrix for _, g in entries])
        for a in stacked:
            a.setflags(write=False)
        object.__setattr__(self, "_stacked", stacked)

    @classmethod
    def point_mass(cls, gate: Gate1Q) -> "MixedQuantumStrategy":
        return cls([(1.0, gate)])

    def __len__(self):
        return len(self.support)

    def stacked(self) -> tuple:
        """(weights[n], gate matrices[n, 2, 2]) of the support, read-only."""
        return self._stacked


def run_protocol(game: Bimatrix, gamma: float, mode: EntanglerMode, s1, s2,
                 noise: NoiseSpec = NoiseSpec()) -> ProtocolResult:
    """The exact outcome distribution and payoffs of s1 and s2, each a
    Gate1Q, a raw 2x2 matrix or a MixedQuantumStrategy, under the channel
    `noise` (noiseless by default).  A mixture on either side is the sum
    over the support pairs, a bare gate joining as a point mass.  Two gates
    skip that slower path: under a channel they are noisy_outcome_probs's
    Pauli mixture, and under the identity channel the pure run, the only
    one with a final_state, J-dagger (u1 x u2) J |00>."""
    check_instance("game", game, Bimatrix)
    check_instance("noise", noise, NoiseSpec)
    gamma = clamp_gamma(gamma)
    mixture = MixedQuantumStrategy
    if isinstance(s1, mixture) or isinstance(s2, mixture):
        w1, u1 = (s1 if isinstance(s1, mixture) else mixture.point_mass(s1)).stacked()
        w2, u2 = (s2 if isinstance(s2, mixture) else mixture.point_mass(s2)).stacked()
        probs = noisy_outcome_probs(gamma, mode, u1[:, None], u2[None, :], noise)
        return ProtocolResult.score(game, np.einsum("i,j,ijk->k", w1, w2, probs))
    u1, u2 = gate_matrix(s1), gate_matrix(s2)
    if noise.kind is NoiseKind.NONE or noise.p == 0.0:
        state = PureState2Q(outcome_amplitudes(gamma, mode, u1, u2))
        return ProtocolResult.score(game, np.abs(state.amps) ** 2, state)
    return ProtocolResult.score(game, noisy_outcome_probs(gamma, mode, u1, u2, noise))


# the former evaluators' names, kept while perfbench calls them (ROADMAP item 3)
run_protocol_noisy = run_protocol_mixed = run_protocol


def gamma_sweep(game: Bimatrix, mode: EntanglerMode, u1: Gate1Q, u2: Gate1Q,
                steps: int) -> tuple:
    """Payoffs of a fixed profile over a uniform entanglement grid.

    Returns (("gamma", "payoff_I", "payoff_II"), rows).  The table is
    recorded data; no monotonicity is implied.
    """
    check_instance("game", game, Bimatrix)
    steps = check_integer("steps", steps, 2)
    check_array_size(steps, f"steps={steps}")
    gammas = np.linspace(0.0, np.pi / 2, steps)
    probs = np.abs(outcome_amplitudes(gammas, mode, gate_matrix(u1), gate_matrix(u2))) ** 2
    a, b = game.payoff_vectors()
    return ("gamma", "payoff_I", "payoff_II"), np.column_stack([gammas, probs @ a, probs @ b])
