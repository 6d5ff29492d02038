"""Classical 2x2 game baseline.

Bimatrix games with pure/mixed Nash equilibria, Pareto-optimal profiles,
and correlated equilibria.  Strategy index 0 is the cooperative-style
label (C / Buy), index 1 the defect-style label (D / Sell); the same
ordering is used for measurement outcomes by the protocol modules, so a
correlated equilibrium is a qcore.OutcomeDistribution, as a run's is.

Nash equilibria and the correlated-equilibrium optimizer both enumerate
vertices in exact rational arithmetic on the float payoffs, with no
tolerance and no LP solver: only the final conversion of a weight to a
float rounds, and results are reproducible bit for bit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .qcore import OutcomeDistribution, check_bool, check_instance, check_real


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
        for name in ("p", "q"):
            object.__setattr__(self, name,
                               check_real(f"MixedProfile.{name}", getattr(self, name), 0.0, 1.0))
        object.__setattr__(self, "degenerate",
                           check_bool("MixedProfile.degenerate", self.degenerate))


@dataclass(frozen=True, eq=False)
class Bimatrix:
    """A 2x2 game: per-cell payoff pairs plus strategy labels.  Games
    compare by their tables and labels, and equal games hash alike."""

    row_payoffs: np.ndarray
    col_payoffs: np.ndarray
    row_labels: tuple = ("C", "D")
    col_labels: tuple = ("C", "D")

    def __post_init__(self):
        for name in ("row_payoffs", "col_payoffs"):
            entries = np.array(getattr(self, name), dtype=object)
            if entries.shape != (2, 2):
                raise ValidationError(f"Bimatrix.{name} must be 2x2, got {entries.shape}")
            m = np.array([[check_real(f"Bimatrix.{name}[{i}][{j}]", x)
                           for j, x in enumerate(row)] for i, row in enumerate(entries)])
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        for name in ("row_labels", "col_labels"):
            labels = getattr(self, name)
            if not (isinstance(labels, (tuple, list)) and len(labels) == 2
                    and all(isinstance(x, str) for x in labels) and labels[0] != labels[1]):
                raise ValidationError(
                    f"Bimatrix.{name} must be two distinct str labels, got {labels!r}")
            object.__setattr__(self, name, tuple(map(str, labels)))

    def _key(self) -> tuple:
        # the tables' bytes with -0.0 turned into 0.0 (+ 0.0), as qcore._Value
        # hashes; equal bytes are equal tables, as check_real refuses NaN
        return ((self.row_payoffs + 0.0).tobytes(), (self.col_payoffs + 0.0).tobytes(),
                self.row_labels, self.col_labels)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

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
    check_instance("game", game, Bimatrix)
    A, B = game.row_payoffs, game.col_payoffs
    out = []
    for i, j in itertools.product(range(2), range(2)):
        if A[i, j] >= A[1 - i, j] and B[i, j] >= B[i, 1 - j]:
            out.append(PureProfile(i, j))
    return out


def pareto_optimal(game: Bimatrix) -> list:
    """Profiles whose outcome no other cell weakly improves for both
    players and strictly for one."""
    check_instance("game", game, Bimatrix)
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
    check_instance("game", game, Bimatrix)
    check_instance("profile", profile, MixedProfile)
    p, q = profile.p, profile.q
    w = np.array([p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)])
    a, b = game.payoff_vectors()
    return float(w @ a), float(w @ b)


def _exact(table: np.ndarray) -> list:
    """The entries of a payoff table as Fractions, nested like the table."""
    return [[Fraction(float(x)) for x in row] for row in table]


def mixed_nash(game: Bimatrix) -> list:
    """All Nash equilibria of the 2x2 game, in exact rational arithmetic.

    Player I's gain from strategy 0 over strategy 1 is linear in q, and
    Player II's is linear in p, so every vertex of the equilibrium set
    has p in {0, 1, p*} and q in {0, 1, q*}, where p* and q* are the
    interior roots of those gains.  The at most nine candidates are
    checked exactly.  Degenerate games whose equilibria form components
    are reported through the components' vertices, each flagged
    degenerate: a vertex is flagged iff another vertex has the same p or
    the same q, since the equilibrium set meets every axis-parallel line
    in an interval.  The result is sorted by (p, q) and never empty.
    """
    check_instance("game", game, Bimatrix)
    (a00, a01), (a10, a11) = _exact(game.row_payoffs)
    (b00, b01), (b10, b11) = _exact(game.col_payoffs)
    gain_i = (a00 - a10 - a01 + a11, a01 - a11)  # slope and intercept in q
    gain_ii = (b00 - b01 - b10 + b11, b10 - b11)  # slope and intercept in p

    def weights(slope, intercept):  # 0, 1 and the gain's root if it lies between
        roots = [-intercept / slope] if slope else []
        return [Fraction(0), Fraction(1)] + [r for r in roots if 0 < r < 1]

    def is_best_reply(weight, slope, intercept, other):
        gain = slope * other + intercept
        return (gain <= 0 or weight == 1) and (gain >= 0 or weight == 0)

    vertices = sorted((p, q) for p in weights(*gain_ii) for q in weights(*gain_i)
                      if is_best_reply(p, *gain_i, q) and is_best_reply(q, *gain_ii, p))
    # another vertex, distinct, shares p or q iff it shares exactly one of them
    return [MixedProfile(float(p), float(q),
                         any((p2 == p) != (q2 == q) for p2, q2 in vertices))
            for p, q in vertices]


def is_correlated_equilibrium(game: Bimatrix, mu: OutcomeDistribution,
                              eps: float = 1e-9) -> bool:
    """Check the incentive constraints of a correlated equilibrium; mu is
    an OutcomeDistribution, or four probabilities validated as one.

    For each player and each recommendation with positive marginal,
    following the recommendation must be an eps-best reply against the
    conditional distribution of the opponent's recommendation.  The
    constraints are best_correlated's, evaluated exactly at the given
    weights.  Rounding an exact vertex to float weights moves a
    constraint by up to 4 * 2^-52 * max|payoff|, so that much is added
    to eps: the verdict does not depend on the payoff unit.
    """
    check_instance("game", game, Bimatrix)
    eps = check_real("eps", eps, 0.0)
    bound = -(Fraction(eps) + _rounding(game))
    if not isinstance(mu, OutcomeDistribution):
        mu = OutcomeDistribution(mu)
    weights = [Fraction(float(x)) for x in mu.probs]
    for row, cells in zip(_ce_constraint_rows(game), _CE_RECOMMENDED):
        marginal = sum(weights[k] for k in cells)
        if marginal > 0 and sum(row[k] * weights[k] for k in cells) / marginal < bound:
            return False
    return True


def _rounding(game: Bimatrix) -> Fraction:
    """4 * 2^-52 * max|payoff|, exact: how far rounding can move a sum of
    the game's payoffs weighted by probabilities."""
    scale = max(np.abs(game.row_payoffs).max(), np.abs(game.col_payoffs).max())
    return Fraction(scale) * 4 / 2 ** 52


# The cells where each row of _ce_constraint_rows applies: the row
# player told 0, told 1, then the column player told 0, told 1.
_CE_RECOMMENDED = ((0, 1), (2, 3), (0, 2), (1, 3))


def _ce_constraint_rows(game: Bimatrix) -> list:
    """Incentive constraints a.mu >= 0 of the CE polytope, exact."""
    A, B = _exact(game.row_payoffs), _exact(game.col_payoffs)
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
        # the pivot row is 0 left of col, so no entry left of col changes
        inv = M[col][col]
        M[col][col:] = [x / inv for x in M[col][col:]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r][col:] = [x - factor * y for x, y in zip(M[r][col:], M[col][col:])]
    return [M[r][n] for r in range(n)]


OBJECTIVES = ("welfare", "player_I", "player_II")  # best_correlated's, the default first


def best_correlated(game: Bimatrix, objective: str = "welfare") -> OutcomeDistribution:
    """Maximize a linear objective over the correlated-equilibrium
    polytope by exact vertex enumeration.

    The polytope lives in the 3-simplex and is cut by the four
    nonnegativity and the incentive constraints; every vertex is the
    solution of three active constraints plus the normalization, so all
    candidates are enumerated and compared in rational arithmetic.  An
    active nonnegativity constraint holds its coordinate at 0, so each
    candidate is solved on the coordinates left free: three of them leave
    one, set to 1 by the normalization, two leave a 2-unknown system.
    Ties are broken toward the lexicographically smallest distribution.
    """
    check_instance("game", game, Bimatrix)
    if objective not in OBJECTIVES:
        raise ValidationError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    A, B = ([x for row in _exact(t) for x in row] for t in (game.row_payoffs, game.col_payoffs))
    obj = {"welfare": [a + b for a, b in zip(A, B)], "player_I": A, "player_II": B}[objective]

    incentive = _ce_constraint_rows(game)
    zero, one = Fraction(0), Fraction(1)
    best_val = None
    best_mu = None
    seen = set()
    # constraints 0-3: mu[k] >= 0; 4-7: the incentive rows
    for combo in itertools.combinations(range(8), 3):
        free = [k for k in range(4) if k not in combo]
        M = [[incentive[c - 4][k] for k in free] for c in combo if c >= 4] + [[one] * len(free)]
        x = _solve_exact(M, [zero] * (len(free) - 1) + [one])
        if x is None:
            continue
        sol = [zero] * 4
        for k, v in zip(free, x):
            sol[k] = v
        key = tuple(sol)
        if key in seen:
            continue
        seen.add(key)
        if any(v < 0 for v in x):
            continue
        if any(sum(c * v for c, v in zip(row, sol)) < 0 for row in incentive):
            continue
        val = sum(o * v for o, v in zip(obj, sol))
        if best_val is None or val > best_val or (val == best_val and key < best_mu):
            best_val, best_mu = val, key
    # The polytope always contains the Nash equilibria, so a vertex exists.
    return OutcomeDistribution([float(v) for v in best_mu])
