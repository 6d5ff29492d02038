"""Numerical equilibrium analysis over the quantum strategy spaces.

A strategy set is its params type, looked up in ewl.SPACES at each
public entry.  Best responses are exact: a gate is a unit quaternion x,
and the responder's payoff is a real quadratic form x^T M x, maximised
by an eigenvector of M on one of the set's FACES (ewl._StrategyParams).
Every regret of a pure profile (verify_eps_nash, symmetric_equilibrium_gate)
comes from one routine, _regrets.  advantage_threshold tracks the
symmetric equilibrium's payoff under a depolarizing channel, as
ewl.run_protocol's exact Pauli mixture; nothing is sampled.
The finite-menu mixed-equilibrium solver keeps one gate per global
phase class of its menu, runs best-response dynamics on the induced
bimatrix and falls back to support enumeration over the strategies of
the cycle they reach, then, widened, over every strategy they visited.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, RangeError, ValidationError
from .ewl import (
    SPACES,
    MixedQuantumStrategy,
    StrategyParamsA,
    StrategyParamsB,
    canonical_gates,
    outcome_amplitudes,
    run_protocol,
    strategy_matrix,
)
from .games import Bimatrix, _rounding
from .qcore import (GAMMA_MAX, I2, SIGMA_X, SIGMA_Y, SIGMA_Z, EntanglerMode, Gate1Q, NoiseKind,
                    NoiseSpec, Player, SearchConfig, check_array_size, check_instance,
                    clamp_gamma, gate_matrix)


@dataclass(frozen=True)
class BestResponse:
    responder: Player
    params: Union[StrategyParamsA, StrategyParamsB]
    gate: Gate1Q
    payoff: float


# U = sum_k x_k B_k, the quaternion convention of ewl's strategy sets.
_QUATERNION_BASIS = np.stack([I2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z])


def _space(name):
    """The strategy set named name: its params type in SPACES."""
    try:
        return SPACES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValidationError(f"space must be {' or '.join(map(repr, SPACES))}, "
                              f"got {name!r}") from None


def _responder_amplitudes(game, gamma, mode, opponent, responder: Player, u):
    """(amplitudes[..., 4], payvec) with the responder's stack of gates
    u[..., 2, 2] on its side of the circuit and the opponent's gate
    matrices broadcast on the other; |amplitudes|^2 @ payvec are the
    responder's payoffs.  A responder that is not a Player is a
    ValidationError."""
    a, b = game.payoff_vectors()
    if responder is Player.I:
        return outcome_amplitudes(gamma, mode, u, opponent), a
    if responder is Player.II:
        return outcome_amplitudes(gamma, mode, opponent, u), b
    raise ValidationError(f"responder must be a Player, got {responder!r}")


def _grid_points(space, n: int) -> tuple:
    """(points, gates): the space's grid of n values per parameter, one
    point per row, in row-major axis order, and each point's gate matrix."""
    bounds = space.BOUNDS
    dims = len(bounds)
    check_array_size(int(n) ** dims,
                     f"grid_resolution={n} in set {space.NAME} ({n}**{dims} points)")
    axes = [np.linspace(lo, hi, n) for lo, hi in bounds]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return pts, strategy_matrix(*pts.T)


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


def _exact_optimum(m: np.ndarray, space) -> np.ndarray:
    """Unit 4-vectors x[...] maximising x^T m x over the space, for a
    stack of forms m[..., 4, 4].

    A maximiser with support S is an eigenvector of m[S, S]; if that
    eigenspace is degenerate it also meets a lower face, so the values
    found cover it.  Signs are flipped to make the largest entry
    positive; an OCTANT set's candidates are then clipped to x >= 0,
    which keeps nonnegative eigenvectors and makes the rest feasible.
    """
    _require_finite("the payoff form", m)  # eigh may fail to converge on inf entries
    blocks = []
    for s in space.FACES:
        _, vecs = np.linalg.eigh(m[..., s, :][..., s])
        x = np.zeros(vecs.shape[:-2] + (len(s), 4))
        x[..., s] = np.swapaxes(vecs, -1, -2)
        blocks.append(x)
    x = np.concatenate(blocks, axis=-2)
    x *= np.sign(np.take_along_axis(x, np.argmax(np.abs(x), axis=-1)[..., None], axis=-1))
    if space.OCTANT:
        x = np.clip(x, 0.0, None)
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
    values = np.einsum("...ni,...ij,...nj->...n", x, m, x)
    best = np.argmax(values, axis=-1)[..., None, None]
    return np.take_along_axis(x, best, axis=-2)[..., 0, :] + 0.0  # normalize -0.0


def _regrets(game, gamma, mode, u1, u2, space) -> np.ndarray:
    """Both players' exact regrets [2, ...] at the pure profiles of the gate
    stacks u1[..., 2, 2] and u2[..., 2, 2] (broadcast; gamma validated):
    each one's optimum in the space against the other's gate, minus own payoff."""
    # one eigensolve on both players' forms, stacked; row-by-column
    # products (numpy's dot) on each form as _payoff_form returns it give
    # every profile of a stack the bits it gets alone
    probs = (np.abs(outcome_amplitudes(gamma, mode, u1, u2)) ** 2)[..., None, :]
    forms = [_payoff_form(game, gamma, mode, opponent, responder)
             for responder, opponent in zip(Player, (u2, u1))]
    optima = _exact_optimum(np.stack(np.broadcast_arrays(*forms)), space)[..., None, :]
    return np.stack([(x @ m @ np.swapaxes(x, -1, -2) - probs @ payvec[:, None])[..., 0, 0]
                     for x, m, payvec in zip(optima, forms, game.payoff_vectors())])


def best_response(game: Bimatrix, gamma: float, mode: EntanglerMode,
                  opponent_gate: Gate1Q, responder: Player, space: str) -> BestResponse:
    """Best reply of one player against a fixed opponent gate or raw 2x2 matrix.

    space is "A" or "B".  The optimum is exact (an eigenproblem, see the
    module docstring), so the B payoff never falls below the A payoff.
    For the regret of a profile, use verify_eps_nash.  Over a finite
    menu of gates, mixed_quantum_equilibrium's dynamics take the first
    exact maximum of the induced table.
    """
    check_instance("game", game, Bimatrix)
    space = _space(space)
    m = _payoff_form(game, clamp_gamma(gamma), mode, gate_matrix(opponent_gate), responder)
    x = _exact_optimum(m, space)
    params = space._from_quaternion(x)
    return BestResponse(responder=responder, params=params, gate=params.gate(),
                        payoff=float(x @ m @ x))


def verify_eps_nash(game: Bimatrix, gamma: float, mode: EntanglerMode,
                    u1: Gate1Q, u2: Gate1Q, space: str, cfg: SearchConfig) -> tuple:
    """(is_equilibrium, max_improvement) of (u1, u2): the larger exact regret, or 0."""
    check_instance("game", game, Bimatrix)
    check_instance("cfg", cfg, SearchConfig)
    space = _space(space)
    worst = max(0.0, *_regrets(game, clamp_gamma(gamma), mode, gate_matrix(u1),
                               gate_matrix(u2), space).tolist())
    return worst <= cfg.eps_nash, worst


def symmetric_equilibrium_gate(game: Bimatrix, gamma: float, mode: EntanglerMode,
                               cfg: SearchConfig) -> Gate1Q:
    """Best symmetric set-A equilibrium profile's gate.

    Grid candidates are ranked by symmetric payoff (ties lexicographic
    in parameters); the first whose exact set-A regret (best response
    minus own payoff) is at most eps_nash for both players is returned.
    Each block of candidates takes one _regrets call; the blocks grow
    fourfold from 16, so an early equilibrium is cheap.
    """
    gamma = clamp_gamma(gamma)
    n = cfg.grid_resolution
    _, u = _grid_points(StrategyParamsA, n)
    own = np.abs(outcome_amplitudes(gamma, mode, u, u)) ** 2 @ game.payoff_vectors()[0]

    order = np.argsort(-own, kind="stable")
    start, size = 0, 16
    while start < len(order):
        block = order[start:start + size]
        regret = _regrets(game, gamma, mode, u[block], u[block], StrategyParamsA)
        passed = np.flatnonzero(regret.max(axis=0) <= cfg.eps_nash)
        if passed.size:
            return Gate1Q(u[block[passed[0]]])
        start, size = start + size, 4 * size
    raise ConvergenceError(
        f"no symmetric set-A equilibrium on the {n}x{n} grid of candidates")


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


def payoff_landscape(game: Bimatrix, gamma: float, mode: EntanglerMode,
                     space: str, fixed_opponent: Gate1Q, cfg: SearchConfig,
                     responder: Player = Player.I) -> tuple:
    """Dense payoff samples over the space's parameter grid.

    Returns (column_names, data); rows are in row-major axis order so
    repeated runs emit identical tables.
    """
    check_instance("game", game, Bimatrix)
    check_instance("cfg", cfg, SearchConfig)
    space = _space(space)
    pts, u = _grid_points(space, cfg.grid_resolution)
    amps, payvec = _responder_amplitudes(game, clamp_gamma(gamma), mode,
                                         gate_matrix(fixed_opponent), responder, u)
    data = np.column_stack([pts, np.abs(amps) ** 2 @ payvec])
    return (*(f.name for f in fields(space)), "payoff"), data


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


def _first_of_each_phase_class(matrices: np.ndarray) -> list:
    """Indices of the first gate of each global-phase class of matrices[n, 2, 2]."""
    first = {}
    for i, key in enumerate(phase_canonical_keys(matrices)):
        first.setdefault(key, i)
    return list(first.values())


def _dedup_menu(menu: tuple) -> tuple:
    """(reps, matrices): first-occurrence representatives of the menu's
    phase-equivalent gates, in menu order, as a tuple, and their stacked
    matrices, read-only.

    A global phase on either player's gate cannot change the outcome
    distribution, so equivalent menu entries induce identical rows of
    the finite game.
    """
    stack = np.array([g.matrix for g in menu])
    keep = _first_of_each_phase_class(stack)
    stack = stack[keep]
    stack.setflags(write=False)
    return tuple(menu[i] for i in keep), stack


def default_menu(mode: EntanglerMode) -> list:
    """The distinct gates, up to a global phase, of C, D, Q and the set-B
    parameter grid of 5 points per axis: 28 of those 128 gates, in order.

    The gates are built once per mode and shared (a Gate1Q is
    immutable); each call returns a new list of them.
    """
    if not isinstance(mode, EntanglerMode):  # before the cache, which hashes it
        raise ValidationError(f"unknown entangler mode: {mode!r}")
    return list(_default_menu(mode))


@functools.cache
def _default_menu(mode: EntanglerMode) -> tuple:
    named = canonical_gates(mode)
    raw = np.concatenate(([g.matrix for g in named], _grid_points(StrategyParamsB, 5)[1]))
    # C, D and Q differ by more than a phase, so each is its class's first
    return (*named, *map(Gate1Q, raw[_first_of_each_phase_class(raw)[3:]]))


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
        x = _indifferent_mix(pii[np.ix_(r_sub, c_sub)].T)
        if x is None or y is None:
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
    """Equilibrium of the finite game induced by a menu of gates or raw 2x2 matrices.

    Pure best-response dynamics run first; a pure fixed point is
    returned directly.  When the dynamics cycle, equal-size support
    enumeration over the cycle's strategies recovers the mixed
    equilibria, each checked against every menu strategy at eps_nash;
    when the cycle holds none, the enumeration widens to every strategy
    the dynamics visited.  Among the survivors the one with the largest
    payoff sum is returned (players coordinating on the best available
    equilibrium).
    """
    check_instance("game", game, Bimatrix)
    check_instance("cfg", cfg, SearchConfig)
    try:
        menu = tuple(menu)
    except TypeError:
        raise ValidationError(f"menu must be a sequence of gates, got {menu!r}") from None
    menu = tuple(g if isinstance(g, Gate1Q) else Gate1Q(g) for g in menu)
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
