"""Numerical equilibrium analysis over the quantum strategy spaces.

Best responses are exact: a set-B gate is a unit quaternion x, with
U = x0*I + i*(x1*sx + x2*sy + x3*sz), and the responder's payoff is a
real quadratic form x^T M x, maximised by an eigenvector (set A, the
octant {x1 = 0; x0, x2, x3 >= 0}, by one of a principal submatrix).
The finite-menu mixed-equilibrium solver runs best-response dynamics on
the induced bimatrix and falls back to support enumeration over the
strategies of the cycle they reach, then, widened, over every strategy
they visited.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
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
from .games import Bimatrix, _rounding
from .qcore import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, EntanglerMode, Gate1Q, check_array_size,
                    clamp_gamma)
from .specs import Player, SearchConfig


@dataclass(frozen=True)
class BestResponse:
    responder: Player
    params: Union[StrategyParamsA, StrategyParamsB]
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


def _grid_points(space: str, n: int) -> np.ndarray:
    """The space's grid of n values per parameter, one point per row, in
    row-major axis order."""
    dims = len(_SPACE_BOUNDS[space])
    check_array_size(int(n) ** dims, f"grid_resolution={n} in set {space} ({n}**{dims} points)")
    axes = [np.linspace(lo, hi, n) for lo, hi in _SPACE_BOUNDS[space]]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def _payoff_form(game, gamma, mode, opponent, responder) -> np.ndarray:
    """M[..., k, l] = Re sum_o pay_o conj(psi_k,o) psi_l,o, where psi_k
    are the outcome amplitudes of basis gate B_k against each opponent
    gate matrix of opponent[..., 2, 2]: the payoff of U = sum_k x_k B_k
    is x^T M x."""
    psi, payvec = _responder_amplitudes(game, gamma, mode, opponent[..., None, :, :],
                                        responder, _QUATERNION_BASIS)
    return ((psi.conj() * payvec) @ np.swapaxes(psi, -1, -2)).real


def _require_finite(what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise RangeError(f"{what} overflows the float range: the payoffs are too large")


def _exact_optimum(m: np.ndarray, space: str) -> np.ndarray:
    """Unit 4-vectors x[...] maximising x^T m x over the space, for a
    stack of forms m[..., 4, 4].

    A maximiser with support S is an eigenvector of m[S, S]; if that
    eigenspace is degenerate it also meets a lower face, so the values
    found cover it.  Signs are flipped to make the largest entry
    positive; set-A candidates are then clipped to the octant, which
    keeps nonnegative eigenvectors and makes the rest feasible.
    """
    _require_finite("the payoff form", m)  # eigh may fail to converge on inf entries
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


def _require_space(space) -> None:
    if space not in ("A", "B"):  # a tuple, so an unhashable space is refused too
        raise ValidationError(f"space must be 'A' or 'B', got {space!r}")


def best_response(game: Bimatrix, gamma: float, mode: EntanglerMode,
                  opponent_gate: Gate1Q, responder: Player, space: str,
                  incumbent: Optional[Gate1Q] = None) -> BestResponse:
    """Best reply of one player against a fixed opponent gate.

    space is "A" or "B".  The optimum is exact (an eigenproblem, see the
    module docstring), so the B payoff never falls below the A payoff.
    improvement is relative to the optional incumbent gate and clamped
    at zero.  Over a finite menu of gates, mixed_quantum_equilibrium's
    dynamics take the first exact maximum of the induced table.
    """
    _require_space(space)
    gamma = clamp_gamma(gamma)
    m = _payoff_form(game, gamma, mode, opponent_gate.matrix, responder)
    x = _exact_optimum(m, space)
    payoff = float(x @ m @ x)
    theta, alpha, beta = _angles(x)
    params = (StrategyParamsA(theta=theta, phi=alpha) if space == "A"
              else StrategyParamsB(theta=theta, alpha=alpha, beta=beta))
    improvement = 0.0
    if incumbent is not None:
        base = float(_responder_payoffs(game, gamma, mode, opponent_gate.matrix, responder,
                                        incumbent.matrix))
        improvement = max(0.0, payoff - base)
    return BestResponse(responder=responder, params=params,
                        gate=Gate1Q(strategy_matrix(theta, alpha, beta)),
                        payoff=payoff, improvement=float(improvement))


def verify_eps_nash(game: Bimatrix, gamma: float, mode: EntanglerMode,
                    u1: Gate1Q, u2: Gate1Q, space: str, cfg: SearchConfig) -> tuple:
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
    _require_space(space)
    pts = _grid_points(space, cfg.grid_resolution)
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


# Gates hash and compare by identity and the cache holds them, so a hit
# returns the result computed for the same (immutable) gate objects; a
# menu asked for repeatedly, like default_menu's, is deduplicated once.
@functools.lru_cache(maxsize=16)
def _dedup_menu(menu: tuple) -> tuple:
    """(reps, matrices): first-occurrence representatives of the menu's
    phase-equivalent gates, in menu order, as a tuple, and their stacked
    matrices, read-only.

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
    stack = stack[keep]
    stack.setflags(write=False)
    return tuple(menu[i] for i in keep), stack


_MENU_POINTS = 5  # values per axis of default_menu's set-B grid


def default_menu(mode: EntanglerMode) -> list:
    """Named gates C, D, Q plus a uniform set-B parameter grid.

    The gates are built once per mode and shared (a Gate1Q is
    immutable); each call returns a new list of them.
    """
    return list(_default_menu(mode))


@functools.cache
def _default_menu(mode: EntanglerMode) -> tuple:
    named = canonical_gates(mode)
    angles = np.linspace(-np.pi, np.pi, _MENU_POINTS)
    grid = np.meshgrid(np.linspace(0, np.pi / 2, _MENU_POINTS), angles, angles, indexing="ij")
    grid_gates = [Gate1Q(u) for u in strategy_matrix(*grid).reshape(-1, 2, 2)]
    return (named.C, named.D, named.Q, *grid_gates)


def _induced_tables(game, gamma, mode, u):
    """Payoff tables (pi, pii) of the finite game between the gate
    matrices u[n, 2, 2]: entry [i, j] is the payoff of u[i] against u[j]."""
    probs = np.abs(outcome_amplitudes(gamma, mode, u[:, None], u[None, :])) ** 2
    a, b = game.payoff_vectors()
    return probs @ a, probs @ b


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


def _indifferent_mix(table):
    """Weights w summing to 1 that make every row of table @ w equal, from
    the bordered (k+1)x(k+1) system; None if it is singular."""
    k = len(table)
    m = np.zeros((k + 1, k + 1))
    m[:k, :k] = table
    m[:k, k] = -1.0
    m[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        return np.linalg.solve(m, rhs)[:k]
    except np.linalg.LinAlgError:
        return None


def _solve_support(pi, pii, r_sub, c_sub, eps):
    k = len(r_sub)
    if k == 1:
        x = np.array([1.0])
        y = np.array([1.0])
    else:
        # Column mix makes supported rows indifferent, and vice versa.
        y = _indifferent_mix(pi[np.ix_(r_sub, c_sub)])
        if y is None:
            return None
        x = _indifferent_mix(pii[np.ix_(r_sub, c_sub)].T)
        if x is None:
            return None
        _require_finite("the support solution", x, y)
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
    when the cycle holds none, the enumeration widens to every strategy
    the dynamics visited.  Among the survivors the one with the largest
    payoff sum is returned (players coordinating on the best available
    equilibrium).
    """
    menu = tuple(menu)
    if not menu:
        raise ValidationError("menu must be nonempty")
    gamma = clamp_gamma(gamma)
    reps, u = _dedup_menu(menu)
    pi, pii = _induced_tables(game, gamma, mode, u)
    _require_finite("the menu payoff table", pi, pii)
    eps = cfg.eps_nash

    state = (0, 0)
    trace = [state]
    seen = {state: 0}
    while True:  # a deterministic map on at most n^2 states revisits one
        i = int(np.argmax(pi[:, state[1]]))  # the first exact maximum
        j = int(np.argmax(pii[i, :]))
        new = (i, j)
        if new == state:
            # each gate is the first exact maximum against the other, so
            # both regrets are exactly 0.0, below every eps_nash > 0
            return MixedEquilibriumResult(
                strategy_I=MixedQuantumStrategy.point_mass(reps[i]),
                strategy_II=MixedQuantumStrategy.point_mass(reps[j]),
                payoff_I=float(pi[i, j]), payoff_II=float(pii[i, j]), method="pure_fixed_point")
        trace.append(new)
        if new in seen:
            break
        seen[new] = len(trace) - 1
        state = new

    cycle = trace[seen[trace[-1]]:]
    # (rows, cols) of the cycle, then of everything visited; when the
    # trace adds no strategy to the cycle, its enumeration runs once
    supports = dict.fromkeys((tuple(sorted({i for i, _ in v})), tuple(sorted({j for _, j in v})))
                             for v in (cycle, trace))
    for rows, cols in supports:
        equilibria = _support_equilibria(pi, pii, rows, cols, eps)
        if equilibria:
            break
    else:
        # the table's entries are rounded by up to this much (as in
        # games.is_correlated_equilibrium), so a smaller eps can reject
        # every exact equilibrium
        rounding = float(_rounding(game))
        if eps < rounding:
            raise ConvergenceError(
                f"no menu equilibrium was found at eps_nash={eps!r}, which is below the "
                f"rounding of the menu payoff table (4 * 2^-52 * max|payoff| = {rounding:.3g}); "
                "scale eps_nash with the payoffs")
        raise ConvergenceError(
            "best-response dynamics cycled and no equilibrium was found on the "
            f"visited supports; trace={trace}")
    equilibria.sort(key=lambda e: (-(e[2] + e[3]),
                                   tuple(np.round(e[0], 12)), tuple(np.round(e[1], 12))))
    xf, yf, vi, vii = equilibria[0]
    sup1 = [(float(w), reps[i]) for i, w in enumerate(xf) if w > 1e-12]
    sup2 = [(float(w), reps[j]) for j, w in enumerate(yf) if w > 1e-12]
    return MixedEquilibriumResult(
        strategy_I=MixedQuantumStrategy(sup1),
        strategy_II=MixedQuantumStrategy(sup2),
        payoff_I=vi, payoff_II=vii, method="support_enumeration")
