"""Classical 2x2 game baseline.

Bimatrix games with pure/mixed Nash equilibria, Pareto-optimal profiles,
and correlated equilibria.  Strategy index 0 is the cooperative-style
label (C / Buy), index 1 the defect-style label (D / Sell); the same
ordering is used for measurement outcomes by the protocol modules.

The correlated-equilibrium optimizer enumerates the polytope's vertices
in exact rational arithmetic, so no LP solver is involved and results
are reproducible bit for bit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import RangeError, ValidationError
from .qcore import _Value

_EPS_DEFAULT = 1e-9


class PureProfile(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True)
class MixedProfile:
    """p = Player I's weight on strategy 0, q = Player II's.

    degenerate marks extreme points of a positive-length equilibrium
    component (the interior of the component is not enumerated).
    """

    p: float
    q: float
    degenerate: bool = False

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not (0.0 <= v <= 1.0):
                raise RangeError(f"MixedProfile.{name}={v!r} outside [0,1]")


class JointDistribution(_Value):
    """A distribution over the four pure profiles, flat order
    [(0,0), (0,1), (1,0), (1,1)]."""

    __slots__ = ("mu",)

    def __init__(self, mu):
        m = np.array(mu, dtype=np.float64)
        if m.shape != (4,):
            raise ValidationError(f"JointDistribution: expected 4 weights, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("JointDistribution: weights must be finite")
        if m.min() < -_EPS_DEFAULT:
            raise ValidationError(f"JointDistribution: negative weight {m.min()!r}")
        if abs(float(m.sum()) - 1.0) > _EPS_DEFAULT:
            raise ValidationError(f"JointDistribution does not sum to 1 (sum={m.sum()!r})")
        m.setflags(write=False)
        object.__setattr__(self, "mu", m)

    def prob(self, row: int, col: int) -> float:
        return float(self.mu[2 * row + col])

    @classmethod
    def point_mass(cls, profile: PureProfile) -> "JointDistribution":
        m = np.zeros(4)
        m[2 * profile.row + profile.col] = 1.0
        return cls(m)


@dataclass(frozen=True)
class Bimatrix:
    """A 2x2 game: per-cell payoff pairs plus strategy labels."""

    row_payoffs: np.ndarray
    col_payoffs: np.ndarray
    row_labels: tuple = ("C", "D")
    col_labels: tuple = ("C", "D")

    def __post_init__(self):
        for name in ("row_payoffs", "col_payoffs"):
            m = np.array(getattr(self, name), dtype=np.float64)
            if m.shape != (2, 2):
                raise ValidationError(f"Bimatrix.{name} must be 2x2, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValidationError(f"Bimatrix.{name} must be finite")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        for name in ("row_labels", "col_labels"):
            labels = tuple(str(x) for x in getattr(self, name))
            if len(labels) != 2 or labels[0] == labels[1]:
                raise ValidationError(f"Bimatrix.{name} must be two distinct labels")
            object.__setattr__(self, name, labels)

    def cell(self, row: int, col: int) -> tuple:
        return float(self.row_payoffs[row, col]), float(self.col_payoffs[row, col])

    def cell_by_labels(self, row_label: str, col_label: str) -> tuple:
        return self.cell(self.row_labels.index(row_label), self.col_labels.index(col_label))

    def payoff_vectors(self) -> tuple:
        """Flattened per-outcome payoffs in joint-distribution order:
        read-only views of the stored tables, so no call copies them."""
        return self.row_payoffs.ravel(), self.col_payoffs.ravel()


def canonical_pd() -> Bimatrix:
    """The standard Prisoner's Dilemma: (C,C)=(3,3), (C,D)=(0,5),
    (D,C)=(5,0), (D,D)=(1,1)."""
    return Bimatrix(
        row_payoffs=np.array([[3.0, 0.0], [5.0, 1.0]]),
        col_payoffs=np.array([[3.0, 5.0], [0.0, 1.0]]),
        row_labels=("C", "D"),
        col_labels=("C", "D"),
    )


def hft_game() -> Bimatrix:
    """High-frequency trading as a relabeled Prisoner's Dilemma:
    Buy plays the role of C, Sell of D, with identical payoffs."""
    pd = canonical_pd()
    return Bimatrix(
        row_payoffs=pd.row_payoffs,
        col_payoffs=pd.col_payoffs,
        row_labels=("Buy", "Sell"),
        col_labels=("Buy", "Sell"),
    )


def pure_nash(game: Bimatrix) -> list:
    """All pure profiles where each choice is a best reply to the other."""
    A, B = game.row_payoffs, game.col_payoffs
    out = []
    for i, j in itertools.product(range(2), range(2)):
        if A[i, j] >= A[1 - i, j] and B[i, j] >= B[i, 1 - j]:
            out.append(PureProfile(i, j))
    return out


def pareto_optimal(game: Bimatrix) -> list:
    """Profiles whose outcome no other cell weakly improves for both
    players and strictly for one."""
    A, B = game.row_payoffs, game.col_payoffs
    cells = list(itertools.product(range(2), range(2)))
    out = []
    for i, j in cells:
        dominated = any(
            A[k, l] >= A[i, j] and B[k, l] >= B[i, j]
            and (A[k, l] > A[i, j] or B[k, l] > B[i, j])
            for k, l in cells if (k, l) != (i, j)
        )
        if not dominated:
            out.append(PureProfile(i, j))
    return out


def expected_payoff(game: Bimatrix, profile: MixedProfile) -> tuple:
    """Bilinear expected payoffs at an independent mixed profile."""
    p, q = profile.p, profile.q
    w = np.array([p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)])
    a, b = game.payoff_vectors()
    return float(w @ a), float(w @ b)


def _is_equilibrium(game: Bimatrix, p: float, q: float, eps: float) -> bool:
    A, B = game.row_payoffs, game.col_payoffs
    base_i, base_ii = expected_payoff(game, MixedProfile(p, q))
    best_i = max(A[0, 0] * q + A[0, 1] * (1 - q), A[1, 0] * q + A[1, 1] * (1 - q))
    best_ii = max(B[0, 0] * p + B[1, 0] * (1 - p), B[0, 1] * p + B[1, 1] * (1 - p))
    return best_i - base_i <= eps and best_ii - base_ii <= eps


def _interval_where(slope: float, intercept: float, lo=0.0, hi=1.0, sign=+1):
    """Solution interval of sign*(slope*x + intercept) >= 0 within [lo, hi]."""
    s, c = sign * slope, sign * intercept
    if abs(s) < 1e-15:
        return (lo, hi) if c >= -1e-15 else None
    x0 = -c / s
    if s > 0:
        lo = max(lo, x0)
    else:
        hi = min(hi, x0)
    return (lo, hi) if lo <= hi + 1e-15 else None


def mixed_nash(game: Bimatrix, eps: float = _EPS_DEFAULT) -> list:
    """All Nash equilibria of the 2x2 game by support enumeration.

    Pure profiles are checked directly; the interior candidate comes
    from the two indifference equations.  Degenerate games whose
    equilibria form components are reported through the components'
    extreme points, each flagged degenerate.  The result is sorted by
    (p, q) and never empty.
    """
    A, B = game.row_payoffs, game.col_payoffs
    scale = max(1.0, float(np.abs(A).max()), float(np.abs(B).max()))
    tol = eps * scale

    candidates = []  # (p, q, degenerate)
    for i, j in itertools.product(range(2), range(2)):
        candidates.append((1.0 - i, 1.0 - j, False))

    # Interior: row indifference fixes q, column indifference fixes p.
    dA = (A[0, 0] - A[1, 0]) - (A[0, 1] - A[1, 1])
    eA = A[0, 1] - A[1, 1]
    dB = (B[0, 0] - B[0, 1]) - (B[1, 0] - B[1, 1])
    eB = B[1, 0] - B[1, 1]
    if abs(dA) > tol and abs(dB) > tol:
        q_star = -eA / dA
        p_star = -eB / dB
        if -1e-12 <= q_star <= 1 + 1e-12 and -1e-12 <= p_star <= 1 + 1e-12:
            candidates.append((min(max(p_star, 0.0), 1.0), min(max(q_star, 0.0), 1.0), False))

    # Row pure / column mixed components: need B's row i constant.
    for i in range(2):
        if abs(B[i, 0] - B[i, 1]) <= tol:
            interval = _interval_where(dA, eA, sign=+1 if i == 0 else -1)
            if interval is not None:
                lo, hi = interval
                flag = bool(hi - lo > eps)
                candidates.append((1.0 - i, lo, flag))
                candidates.append((1.0 - i, hi, flag))
    # Column pure / row mixed components: need A's column j constant.
    for j in range(2):
        if abs(A[0, j] - A[1, j]) <= tol:
            interval = _interval_where(dB, eB, sign=+1 if j == 0 else -1)
            if interval is not None:
                lo, hi = interval
                flag = bool(hi - lo > eps)
                candidates.append((lo, 1.0 - j, flag))
                candidates.append((hi, 1.0 - j, flag))

    found = []
    for p, q, flag in candidates:
        p = min(max(p, 0.0), 1.0)
        q = min(max(q, 0.0), 1.0)
        if not _is_equilibrium(game, p, q, tol):
            continue
        merged = False
        for k, existing in enumerate(found):
            if abs(existing.p - p) <= 1e-9 and abs(existing.q - q) <= 1e-9:
                if flag and not existing.degenerate:
                    found[k] = MixedProfile(existing.p, existing.q, True)
                merged = True
                break
        if not merged:
            found.append(MixedProfile(p, q, flag))
    found.sort(key=lambda m: (m.p, m.q))
    return found


def is_correlated_equilibrium(game: Bimatrix, mu: JointDistribution,
                              eps: float = _EPS_DEFAULT) -> bool:
    """Check the incentive constraints of a correlated equilibrium.

    For each player and each recommendation with positive marginal,
    following the recommendation must be an eps-best reply against the
    conditional distribution of the opponent's recommendation.
    """
    if eps < 0:
        raise RangeError(f"eps must be nonnegative, got {eps!r}")
    A, B = game.row_payoffs, game.col_payoffs
    for i in range(2):
        marginal = mu.prob(i, 0) + mu.prob(i, 1)
        if marginal <= 0:
            continue
        keep = sum(mu.prob(i, j) * A[i, j] for j in range(2)) / marginal
        dev = sum(mu.prob(i, j) * A[1 - i, j] for j in range(2)) / marginal
        if dev - keep > eps:
            return False
    for j in range(2):
        marginal = mu.prob(0, j) + mu.prob(1, j)
        if marginal <= 0:
            continue
        keep = sum(mu.prob(i, j) * B[i, j] for i in range(2)) / marginal
        dev = sum(mu.prob(i, j) * B[i, 1 - j] for i in range(2)) / marginal
        if dev - keep > eps:
            return False
    return True


def _ce_constraint_rows(game: Bimatrix) -> list:
    """Incentive constraints a.mu >= 0 of the CE polytope, exact."""
    A = [[Fraction(float(x)) for x in row] for row in game.row_payoffs]
    B = [[Fraction(float(x)) for x in row] for row in game.col_payoffs]
    rows = []
    for i in range(2):  # row player told i, deviation to 1-i
        coef = [Fraction(0)] * 4
        for j in range(2):
            coef[2 * i + j] = A[i][j] - A[1 - i][j]
        rows.append(coef)
    for j in range(2):  # column player told j, deviation to 1-j
        coef = [Fraction(0)] * 4
        for i in range(2):
            coef[2 * i + j] = B[i][j] - B[i][1 - j]
        rows.append(coef)
    return rows


def _solve_exact(M: list, b: list):
    """Solve a square rational system by Gaussian elimination;
    None if singular."""
    n = len(M)
    M = [row[:] + [b[k]] for k, row in enumerate(M)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = M[col][col]
        M[col] = [x / inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


_OBJECTIVES = ("welfare", "player_I", "player_II")


def best_correlated(game: Bimatrix, objective: str = "welfare") -> JointDistribution:
    """Maximize a linear objective over the correlated-equilibrium
    polytope by exact vertex enumeration.

    The polytope lives in the 3-simplex and is cut by the four
    nonnegativity and the incentive constraints; every vertex is the
    solution of three active constraints plus the normalization, so all
    candidates are enumerated and compared in rational arithmetic.
    Ties are broken toward the lexicographically smallest distribution.
    """
    if objective not in _OBJECTIVES:
        raise ValidationError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    A = [Fraction(float(x)) for x in game.row_payoffs.ravel()]
    B = [Fraction(float(x)) for x in game.col_payoffs.ravel()]
    if objective == "welfare":
        obj = [a + b for a, b in zip(A, B)]
    elif objective == "player_I":
        obj = A
    else:
        obj = B

    nonneg = [[Fraction(1 if k == i else 0) for k in range(4)] for i in range(4)]
    constraints = nonneg + _ce_constraint_rows(game)
    ones = [Fraction(1)] * 4

    best_val = None
    best_mu = None
    seen = set()
    for combo in itertools.combinations(range(len(constraints)), 3):
        M = [constraints[c] for c in combo] + [ones]
        sol = _solve_exact(M, [Fraction(0)] * 3 + [Fraction(1)])
        if sol is None:
            continue
        key = tuple(sol)
        if key in seen:
            continue
        seen.add(key)
        if any(x < 0 for x in sol):
            continue
        if any(sum(c * x for c, x in zip(row, sol)) < 0 for row in constraints):
            continue
        val = sum(o * x for o, x in zip(obj, sol))
        if best_val is None or val > best_val or (val == best_val and key < best_mu):
            best_val, best_mu = val, key
    # The polytope always contains the Nash equilibria, so a vertex exists.
    return JointDistribution([float(x) for x in best_mu])
