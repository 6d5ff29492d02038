"""Numerical equilibrium analysis over the quantum strategy spaces.

Best responses are exact: a set-B gate is a unit quaternion x, with
U = x0*I + i*(x1*sx + x2*sy + x3*sz), and the responder's payoff is a
real quadratic form x^T M x, maximised by an eigenvector (set A, the
octant {x1 = 0; x0, x2, x3 >= 0}, by one of a principal submatrix).
The finite-menu mixed-equilibrium solver runs best-response dynamics on
the induced bimatrix and falls back to support enumeration over the
strategies visited in a cycle.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, RangeError, ValidationError
from .ewl import (
    MixedQuantumStrategy,
    StrategyParamsA,
    StrategyParamsB,
    canonical_gates,
    outcome_amplitudes,
    strategy_matrix,
)
from .games import Bimatrix
from .qcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, EntanglerMode, Gate1Q, clamp_gamma

_TIE_TOL = 1e-10


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
        if self.grid_resolution < 2:
            raise RangeError(f"grid_resolution must be >= 2, got {self.grid_resolution}")
        if not (math.isfinite(self.eps_nash) and self.eps_nash > 0):
            raise RangeError(f"eps_nash must be positive and finite, got {self.eps_nash}")


@dataclass(frozen=True)
class BestResponse:
    responder: Player
    params: Union[StrategyParamsA, StrategyParamsB, None]
    gate: Gate1Q
    payoff: float
    improvement: float


_SPACE_BOUNDS = {
    "A": ((0.0, np.pi / 2), (0.0, np.pi / 2)),
    "B": ((0.0, np.pi / 2), (-np.pi, np.pi), (-np.pi, np.pi)),
}

# U = sum_k x_k B_k, so U00 = x0 + i*x3 and U01 = x2 + i*x1.
_QUATERNION_BASIS = np.stack([I2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z])

# Supports searched for the maximiser: R^4, or each face of the set-A octant.
_SUPPORTS = {
    "A": [list(s) for k in (1, 2, 3) for s in itertools.combinations((0, 2, 3), k)],
    "B": [[0, 1, 2, 3]],
}


def _responder_amplitudes(game, gamma, mode, opponent, responder: Player, u):
    """(amplitudes[..., 4], payvec) with the responder's stack of gates
    u[..., 2, 2] on its side of the circuit and the opponent's gate
    matrices broadcast on the other; |amplitudes|^2 @ payvec are the
    responder's payoffs."""
    a, b = game.payoff_vectors()
    if responder == Player.I:
        return outcome_amplitudes(gamma, mode, u, opponent), a
    return outcome_amplitudes(gamma, mode, opponent, u), b


def _responder_payoffs(game, gamma, mode, opponent, responder, u) -> np.ndarray:
    amps, payvec = _responder_amplitudes(game, gamma, mode, opponent, responder, u)
    return np.abs(amps) ** 2 @ payvec


def _grid_axes(space: str, resolution: int):
    return [np.linspace(lo, hi, resolution) for lo, hi in _SPACE_BOUNDS[space]]


def _payoff_form(game, gamma, mode, opponent, responder) -> np.ndarray:
    """M[..., k, l] = Re sum_o pay_o conj(psi_k,o) psi_l,o, where psi_k
    are the outcome amplitudes of basis gate B_k against each opponent
    gate matrix of opponent[..., 2, 2]: the payoff of U = sum_k x_k B_k
    is x^T M x."""
    psi, payvec = _responder_amplitudes(game, gamma, mode, opponent[..., None, :, :],
                                        responder, _QUATERNION_BASIS)
    return ((psi.conj() * payvec) @ np.swapaxes(psi, -1, -2)).real


def _exact_optimum(m: np.ndarray, space: str) -> np.ndarray:
    """Unit 4-vectors x[...] maximising x^T m x over the space, for a
    stack of forms m[..., 4, 4].

    A maximiser with support S is an eigenvector of m[S, S]; if that
    eigenspace is degenerate it also meets a lower face, so the values
    found cover it.  Signs are flipped to make the largest entry
    positive; set-A candidates are then clipped to the octant, which
    keeps nonnegative eigenvectors and makes the rest feasible.
    """
    blocks = []
    for s in _SUPPORTS[space]:
        _, vecs = np.linalg.eigh(m[..., s, :][..., s])
        x = np.zeros(vecs.shape[:-2] + (len(s), 4))
        x[..., s] = np.swapaxes(vecs, -1, -2)
        blocks.append(x)
    x = np.concatenate(blocks, axis=-2)
    x *= np.sign(np.take_along_axis(x, np.argmax(np.abs(x), axis=-1)[..., None], axis=-1))
    if space == "A":
        x = np.clip(x, 0.0, None)
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
    values = np.einsum("...ni,...ij,...nj->...n", x, m, x)
    best = np.argmax(values, axis=-1)[..., None, None]
    return np.take_along_axis(x, best, axis=-2)[..., 0, :] + 0.0  # normalize -0.0


def _angles(x: np.ndarray) -> tuple:
    """(theta, alpha, beta) of U00 = x0 + i*x3 = e^{i alpha} cos(theta),
    U01 = x2 + i*x1 = e^{i beta} sin(theta)."""
    theta = float(np.arctan2(np.hypot(x[2], x[1]), np.hypot(x[0], x[3])))
    return theta, float(np.arctan2(x[3], x[0])), float(np.arctan2(x[1], x[2]))


def best_response(game: Bimatrix, gamma: float, mode: EntanglerMode,
                  opponent_gate: Gate1Q, responder: Player,
                  space: Union[str, Sequence[Gate1Q]],
                  incumbent: Optional[Gate1Q] = None) -> BestResponse:
    """Best reply of one player against a fixed opponent gate.

    space is "A", "B", or an explicit finite menu of gates.  For the
    parametric spaces the optimum is exact (an eigenproblem, see the
    module docstring), so the B payoff never falls below the A payoff.
    improvement is relative to the optional incumbent gate and clamped
    at zero.
    """
    gamma = clamp_gamma(gamma)
    if isinstance(space, str):
        if space not in _SPACE_BOUNDS:
            raise ValidationError(f"space must be 'A', 'B', or a gate menu, got {space!r}")
        m = _payoff_form(game, gamma, mode, opponent_gate.matrix, responder)
        x = _exact_optimum(m, space)
        payoff = float(x @ m @ x)
        theta, alpha, beta = _angles(x)
        if space == "A":
            params = StrategyParamsA(theta=theta, phi=alpha)
        else:
            params = StrategyParamsB(theta=theta, alpha=alpha, beta=beta)
        gate = Gate1Q(strategy_matrix(theta, alpha, beta))
    else:
        menu = list(space)
        if not menu:
            raise ValidationError("menu space must be nonempty")
        values = _responder_payoffs(game, gamma, mode, opponent_gate.matrix, responder,
                                    np.array([g.matrix for g in menu]))
        payoff, idx = -np.inf, 0
        for k, v in enumerate(values.tolist()):
            if v > payoff + _TIE_TOL:
                payoff, idx = v, k
        params, gate = None, menu[idx]

    improvement = 0.0
    if incumbent is not None:
        base = float(_responder_payoffs(game, gamma, mode, opponent_gate.matrix, responder,
                                        incumbent.matrix))
        improvement = max(0.0, payoff - base)
    return BestResponse(responder=responder, params=params, gate=gate,
                        payoff=float(payoff), improvement=float(improvement))


def verify_eps_nash(game: Bimatrix, gamma: float, mode: EntanglerMode,
                    u1: Gate1Q, u2: Gate1Q,
                    space: Union[str, Sequence[Gate1Q]], cfg: SearchConfig) -> tuple:
    """(is_equilibrium, max_improvement) for the profile (u1, u2)."""
    br1 = best_response(game, gamma, mode, u2, Player.I, space, incumbent=u1)
    br2 = best_response(game, gamma, mode, u1, Player.II, space, incumbent=u2)
    worst = max(br1.improvement, br2.improvement)
    return worst <= cfg.eps_nash, worst


def payoff_landscape(game: Bimatrix, gamma: float, mode: EntanglerMode,
                     space: str, fixed_opponent: Gate1Q, cfg: SearchConfig,
                     responder: Player = Player.I) -> tuple:
    """Dense payoff samples over the space's parameter grid.

    Returns (column_names, data); rows are in row-major axis order so
    repeated runs emit identical tables.
    """
    if space not in _SPACE_BOUNDS:
        raise ValidationError(f"landscape space must be 'A' or 'B', got {space!r}")
    axes = _grid_axes(space, cfg.grid_resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    beta = pts[:, 2] if space == "B" else 0.0
    vals = _responder_payoffs(game, clamp_gamma(gamma), mode, fixed_opponent.matrix, responder,
                              strategy_matrix(pts[:, 0], pts[:, 1], beta))
    data = np.column_stack([pts, vals])
    names = ("theta", "phi", "payoff") if space == "A" else ("theta", "alpha", "beta", "payoff")
    return names, data


# -- finite-menu mixed equilibria -------------------------------------------

@dataclass(frozen=True)
class MixedEquilibriumResult:
    strategy_I: MixedQuantumStrategy
    strategy_II: MixedQuantumStrategy
    payoff_I: float
    payoff_II: float
    method: str  # "pure_fixed_point" or "support_enumeration"


def phase_canonical_keys(matrices: np.ndarray) -> list:
    """Hashable global-phase keys of an (n, 2, 2) stack of gates.

    A gate's entries u_i fix the products u_i conj(u_j), and those fix
    the gate up to a global phase, which they do not depend on.  Each
    gate is keyed by the bytes of its 16 products rounded to 10
    decimals, so gates that differ only by a global phase get equal keys.
    """
    flat = np.asarray(matrices, dtype=np.complex128).reshape(-1, 4)
    products = np.round(flat[:, :, None] * flat[:, None, :].conj(), 10) + 0.0  # normalize -0.0
    return [row.tobytes() for row in products]


def _dedup_menu(menu: Sequence[Gate1Q]) -> tuple:
    """(reps, matrices): first-occurrence representatives of the menu's
    phase-equivalent gates, in menu order, and their stacked matrices.

    A global phase on either player's gate cannot change the outcome
    distribution, so equivalent menu entries induce identical rows of
    the finite game.  The menu is stacked once and keyed by one
    phase_canonical_keys call.
    """
    stack = np.array([g.matrix for g in menu])
    keep, seen = [], set()
    for i, key in enumerate(phase_canonical_keys(stack)):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return [menu[i] for i in keep], stack[keep]


def default_menu(mode: EntanglerMode, points_per_axis: int = 5) -> list:
    """Named gates C, D, Q plus a uniform set-B parameter grid.

    The gates are built once per (mode, points_per_axis) and shared
    (a Gate1Q is immutable); each call returns a new list of them.
    """
    return list(_default_menu(mode, points_per_axis))


@functools.lru_cache(maxsize=16)
def _default_menu(mode: EntanglerMode, points_per_axis: int) -> tuple:
    named = canonical_gates(mode)
    angles = np.linspace(-np.pi, np.pi, points_per_axis)
    grid = np.meshgrid(np.linspace(0, np.pi / 2, points_per_axis), angles, angles, indexing="ij")
    grid_gates = [Gate1Q(u) for u in strategy_matrix(*grid).reshape(-1, 2, 2)]
    return (named.C, named.D, named.Q, *grid_gates)


def _induced_tables(game, gamma, mode, u):
    """Payoff tables (pi, pii) of the finite game between the gate
    matrices u[n, 2, 2]: entry [i, j] is the payoff of u[i] against u[j]."""
    probs = np.abs(outcome_amplitudes(gamma, mode, u[:, None], u[None, :])) ** 2
    a, b = game.payoff_vectors()
    return probs @ a, probs @ b


def _argmax_first(values: np.ndarray) -> int:
    best = float(np.max(values))
    return int(np.nonzero(values >= best - _TIE_TOL)[0][0])


def _support_equilibria(pi, pii, rows, cols, eps):
    """Equal-size support enumeration restricted to given strategy sets."""
    found = []
    max_k = min(len(rows), len(cols))
    for k in range(1, max_k + 1):
        for r_sub in itertools.combinations(rows, k):
            for c_sub in itertools.combinations(cols, k):
                eq = _solve_support(pi, pii, r_sub, c_sub, eps)
                if eq is not None:
                    found.append(eq)
    return found


def _solve_support(pi, pii, r_sub, c_sub, eps):
    k = len(r_sub)
    if k == 1:
        x = np.array([1.0])
        y = np.array([1.0])
    else:
        # Column mix makes supported rows indifferent, and vice versa.
        m = np.zeros((k + 1, k + 1))
        m[:k, :k] = pi[np.ix_(r_sub, c_sub)]
        m[:k, k] = -1.0
        m[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        try:
            y = np.linalg.solve(m, rhs)[:k]
        except np.linalg.LinAlgError:
            return None
        m2 = np.zeros((k + 1, k + 1))
        m2[:k, :k] = pii[np.ix_(r_sub, c_sub)].T
        m2[:k, k] = -1.0
        m2[k, :k] = 1.0
        try:
            x = np.linalg.solve(m2, rhs)[:k]
        except np.linalg.LinAlgError:
            return None
        if x.min() < -1e-9 or y.min() < -1e-9:
            return None
        x = np.clip(x, 0.0, None)
        y = np.clip(y, 0.0, None)
        x /= x.sum()
        y /= y.sum()
    xf = np.zeros(pi.shape[0])
    yf = np.zeros(pi.shape[1])
    xf[list(r_sub)] = x
    yf[list(c_sub)] = y
    vi = float(xf @ pi @ yf)
    vii = float(xf @ pii @ yf)
    # No deviation to any strategy of the full (deduplicated) menu.
    if float(np.max(pi @ yf)) - vi > eps or float(np.max(xf @ pii)) - vii > eps:
        return None
    return xf, yf, vi, vii


def mixed_quantum_equilibrium(game: Bimatrix, gamma: float, mode: EntanglerMode,
                              menu: Sequence[Gate1Q], cfg: SearchConfig) -> MixedEquilibriumResult:
    """Equilibrium of the finite game induced by a gate menu.

    Pure best-response dynamics run first; a pure fixed point is
    returned directly.  When the dynamics cycle, equal-size support
    enumeration over the cycle's strategies recovers the mixed
    equilibria, each checked against every menu strategy at eps_nash;
    among the survivors the one with the largest payoff sum is
    returned (players coordinating on the best available equilibrium).
    """
    menu = list(menu)
    if not menu:
        raise ValidationError("menu must be nonempty")
    gamma = clamp_gamma(gamma)
    reps, u = _dedup_menu(menu)
    pi, pii = _induced_tables(game, gamma, mode, u)
    eps = cfg.eps_nash

    def result_from(xf, yf, vi, vii, method):
        sup1 = [(float(w), reps[i]) for i, w in enumerate(xf) if w > 1e-12]
        sup2 = [(float(w), reps[j]) for j, w in enumerate(yf) if w > 1e-12]
        return MixedEquilibriumResult(
            strategy_I=MixedQuantumStrategy(sup1),
            strategy_II=MixedQuantumStrategy(sup2),
            payoff_I=vi, payoff_II=vii, method=method)

    state = (0, 0)
    trace = [state]
    seen = {state: 0}
    while True:  # a deterministic map on at most n^2 states revisits one
        i = _argmax_first(pi[:, state[1]])
        j = _argmax_first(pii[i, :])
        new = (i, j)
        if new == state:
            xf = np.zeros(len(reps))
            yf = np.zeros(len(reps))
            xf[i], yf[j] = 1.0, 1.0
            if float(np.max(pi[:, j])) - pi[i, j] <= eps and \
               float(np.max(pii[i, :])) - pii[i, j] <= eps:
                return result_from(xf, yf, float(pi[i, j]), float(pii[i, j]),
                                   "pure_fixed_point")
            break  # argmax fixpoint that is not an equilibrium: degenerate ties
        if new in seen:
            trace.append(new)
            break
        seen[new] = len(trace)
        trace.append(new)
        state = new

    start = seen[trace[-1]]
    cycle = trace[start:]
    rows = sorted({i for i, _ in cycle})
    cols = sorted({j for _, j in cycle})
    equilibria = _support_equilibria(pi, pii, rows, cols, eps)
    if not equilibria:  # widen to everything the dynamics visited
        rows = sorted({i for i, _ in trace})
        cols = sorted({j for _, j in trace})
        equilibria = _support_equilibria(pi, pii, rows, cols, eps)
    if not equilibria:
        raise ConvergenceError(
            "best-response dynamics cycled and no equilibrium was found on the "
            f"visited supports; trace={trace}")
    equilibria.sort(key=lambda e: (-(e[2] + e[3]),
                                   tuple(np.round(e[0], 12)), tuple(np.round(e[1], 12))))
    xf, yf, vi, vii = equilibria[0]
    return result_from(xf, yf, vi, vii, "support_enumeration")
