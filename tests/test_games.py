"""Tests for the classical 2x2 game baseline.

best_correlated is cross-checked against an independent LP solve
(scipy.linprog); mixed_nash against a brute-force grid best-reply
oracle at resolution 1e-3, exact rational regrets, and the earlier
tolerance-based implementation kept below as a reference.
"""
import itertools
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from qgames import (
    Bimatrix,
    EntanglerMode,
    MixedProfile,
    OutcomeDistribution,
    PureProfile,
    best_correlated,
    canonical_gates,
    canonical_pd,
    expected_payoff,
    hft_game,
    is_correlated_equilibrium,
    mixed_nash,
    pareto_optimal,
    pure_nash,
    run_protocol,
)
from qgames.errors import ValidationError


def matching_pennies():
    return Bimatrix(
        row_payoffs=np.array([[1.0, -1.0], [-1.0, 1.0]]),
        col_payoffs=np.array([[-1.0, 1.0], [1.0, -1.0]]),
        row_labels=("H", "T"), col_labels=("H", "T"),
    )


def chicken():
    return Bimatrix(
        row_payoffs=np.array([[6.0, 2.0], [7.0, 0.0]]),
        col_payoffs=np.array([[6.0, 7.0], [2.0, 0.0]]),
        row_labels=("C", "D"), col_labels=("C", "D"),
    )


def all_equal_game(value=0.0):
    m = np.full((2, 2), value)
    return Bimatrix(row_payoffs=m, col_payoffs=m)


def random_game(rng):
    return Bimatrix(row_payoffs=rng.uniform(-5, 5, (2, 2)),
                    col_payoffs=rng.uniform(-5, 5, (2, 2)))


def wide_scale_game(rng):
    """Payoffs of either sign with magnitudes 10**U(-3, 12)."""
    x = rng.choice([-1.0, 1.0], 8) * 10.0 ** rng.uniform(-3, 12, 8)
    return Bimatrix(row_payoffs=x[:4].reshape(2, 2), col_payoffs=x[4:].reshape(2, 2))


def huge_scale_game(rng):
    """Payoffs of either sign with magnitudes U(0.5, 1.5) * 1e300."""
    x = rng.choice([-1.0, 1.0], 8) * rng.uniform(0.5, 1.5, 8) * 1e300
    return Bimatrix(row_payoffs=x[:4].reshape(2, 2), col_payoffs=x[4:].reshape(2, 2))


def small_integer_games(values=(0.0, 1.0, 2.0)):
    for cells in itertools.product(values, repeat=8):
        yield Bimatrix(row_payoffs=np.reshape(cells[:4], (2, 2)),
                       col_payoffs=np.reshape(cells[4:], (2, 2)))


def exact_regrets(game, p, q):
    """Each player's gain from the best pure deviation at (p, q), and the
    slope of that player's gain of strategy 0 over 1 in the opponent's
    weight, all in exact rational arithmetic."""
    A = [[Fraction(float(x)) for x in row] for row in game.row_payoffs]
    B = [[Fraction(float(x)) for x in row] for row in game.col_payoffs]
    p, q = Fraction(p), Fraction(q)
    row = [A[i][0] * q + A[i][1] * (1 - q) for i in range(2)]
    col = [B[0][j] * p + B[1][j] * (1 - p) for j in range(2)]
    return ((max(row) - p * row[0] - (1 - p) * row[1],
             max(col) - q * col[0] - (1 - q) * col[1]),
            (A[0][0] - A[1][0] - A[0][1] + A[1][1],
             B[0][0] - B[0][1] - B[1][0] + B[1][1]))


# The tolerance-based mixed_nash and is_correlated_equilibrium that the
# exact versions replaced, verbatim: the exact ones must agree with them
# wherever float arithmetic was exact enough to decide.
def _reference_is_equilibrium(game: Bimatrix, p: float, q: float, eps: float) -> bool:
    A, B = game.row_payoffs, game.col_payoffs
    base_i, base_ii = expected_payoff(game, MixedProfile(p, q))
    best_i = max(A[0, 0] * q + A[0, 1] * (1 - q), A[1, 0] * q + A[1, 1] * (1 - q))
    best_ii = max(B[0, 0] * p + B[1, 0] * (1 - p), B[0, 1] * p + B[1, 1] * (1 - p))
    return best_i - base_i <= eps and best_ii - base_ii <= eps


def _reference_interval_where(slope: float, intercept: float, lo=0.0, hi=1.0, sign=+1):
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


def reference_mixed_nash(game: Bimatrix, eps: float = 1e-9) -> list:
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
            interval = _reference_interval_where(dA, eA, sign=+1 if i == 0 else -1)
            if interval is not None:
                lo, hi = interval
                flag = bool(hi - lo > eps)
                candidates.append((1.0 - i, lo, flag))
                candidates.append((1.0 - i, hi, flag))
    # Column pure / row mixed components: need A's column j constant.
    for j in range(2):
        if abs(A[0, j] - A[1, j]) <= tol:
            interval = _reference_interval_where(dB, eB, sign=+1 if j == 0 else -1)
            if interval is not None:
                lo, hi = interval
                flag = bool(hi - lo > eps)
                candidates.append((lo, 1.0 - j, flag))
                candidates.append((hi, 1.0 - j, flag))

    found = []
    for p, q, flag in candidates:
        p = min(max(p, 0.0), 1.0)
        q = min(max(q, 0.0), 1.0)
        if not _reference_is_equilibrium(game, p, q, tol):
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


def point_mass(profile: PureProfile) -> OutcomeDistribution:
    """The distribution that plays profile for sure."""
    mu = np.zeros(4)
    mu[2 * profile.row + profile.col] = 1.0
    return OutcomeDistribution(mu)


def reference_is_correlated_equilibrium(game: Bimatrix, mu: OutcomeDistribution,
                                        eps: float = 1e-9) -> bool:
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


def lp_best_correlated(game: Bimatrix, obj: np.ndarray):
    """Independent LP oracle over the CE polytope."""
    A, B = game.row_payoffs, game.col_payoffs
    cons = []
    for i in range(2):
        row = np.zeros(4)
        for j in range(2):
            row[2 * i + j] = A[i, j] - A[1 - i, j]
        cons.append(row)
    for j in range(2):
        row = np.zeros(4)
        for i in range(2):
            row[2 * i + j] = B[i, j] - B[i, 1 - j]
        cons.append(row)
    res = linprog(-obj, A_ub=-np.array(cons), b_ub=np.zeros(4),
                  A_eq=np.ones((1, 4)), b_eq=[1.0], bounds=[(0, 1)] * 4,
                  method="highs")
    assert res.success
    return res.x, -res.fun


class TestCanonicalGames:
    def test_pd_cells(self):
        pd = canonical_pd()
        assert pd.cell_by_labels("D", "D") == (1.0, 1.0)
        assert pd.cell_by_labels("C", "C") == (3.0, 3.0)
        assert pd.cell_by_labels("C", "D") == (0.0, 5.0)
        assert pd.cell_by_labels("D", "C") == (5.0, 0.0)

    def test_pd_preference_order_for_row_player(self):
        pd = canonical_pd()
        vals = [pd.cell(1, 0)[0], pd.cell(0, 0)[0], pd.cell(1, 1)[0], pd.cell(0, 1)[0]]
        assert vals == sorted(vals, reverse=True) == [5.0, 3.0, 1.0, 0.0]

    def test_hft_is_relabelled_pd(self):
        h, pd = hft_game(), canonical_pd()
        assert np.array_equal(h.row_payoffs, pd.row_payoffs)
        assert np.array_equal(h.col_payoffs, pd.col_payoffs)
        assert h.row_labels == ("Buy", "Sell")
        assert h.cell_by_labels("Sell", "Sell") == (1.0, 1.0)
        assert h.cell_by_labels("Buy", "Buy") == (3.0, 3.0)
        assert h.cell_by_labels("Sell", "Buy") == (5.0, 0.0)


class TestPayoffEntries:
    """Each payoff entry is read as a real: strings and complex numbers
    are refused, and every real type keeps its bits."""

    @pytest.mark.parametrize("rows", [[["3", "0"], ["5", "1"]], [[3 + 1j, 0], [5, 1]],
                                      [[3, None], [5, 1]], [[True, 0], [5, 1]]],
                             ids=["str", "complex", "None", "bool"])
    def test_non_real_entries_are_refused(self, rows):
        with pytest.raises(ValidationError,
                           match=r"^Bimatrix\.row_payoffs: entries must be real numbers, got "):
            Bimatrix(row_payoffs=rows, col_payoffs=[[3, 5], [0, 1]])

    def test_real_entries_keep_their_bits(self):
        for rows in ([[3, 0], [5, 1]], [[0.1, -2.5], [1e300, 2**60 + 1]],
                     np.array([[0.1, 3], [5, 1]], dtype=np.float32),
                     [[np.int64(7), np.float64(0.3)], [Fraction(1, 3), Fraction(-2, 7)]]):
            want = np.array(rows, dtype=np.float64)
            got = Bimatrix(row_payoffs=rows, col_payoffs=rows).row_payoffs
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_decimal_entries_are_read_as_a_gates_are(self):
        rows = [[Decimal("0.1"), Decimal(3)], [Decimal("-2.5"), Decimal("1e-300")]]
        want = np.array([[0.1, 3.0], [-2.5, 1e-300]])
        assert Bimatrix(rows, rows).row_payoffs.tobytes() == want.tobytes()

    def test_shape_and_finiteness(self):
        with pytest.raises(ValidationError,
                           match=r"^Bimatrix\.row_payoffs: expected shape \(2, 2\), got \(2,\)$"):
            Bimatrix(row_payoffs=[[1, 2], [3]], col_payoffs=np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=r"^Bimatrix\.row_payoffs: entries must be finite$"):
            Bimatrix(row_payoffs=[[1, 2], [np.nan, 4]], col_payoffs=np.zeros((2, 2)))
        with pytest.raises(ValidationError, match=r"^Bimatrix\.col_payoffs: entries must be finite$"):
            Bimatrix(row_payoffs=np.zeros((2, 2)), col_payoffs=[[10**400, 0], [0, 1]])


class TestLabels:
    """Labels are two distinct strings, stored as given: nothing is
    turned into text on the way in."""

    @pytest.mark.parametrize("labels", ["CD", ("C",), ("C", "D", "E"), ("C", "C"), (1, 2),
                                        ("C", None), (b"C", b"D"), None, 12],
                             ids=["str", "one", "three", "same", "ints", "None", "bytes",
                                  "no labels", "int"])
    def test_anything_but_two_distinct_strings_is_refused(self, labels):
        for name in ("row_labels", "col_labels"):
            with pytest.raises(ValidationError, match=f"Bimatrix.{name} must be two distinct str"):
                Bimatrix(row_payoffs=np.eye(2), col_payoffs=np.eye(2), **{name: labels})

    def test_tuples_and_lists_of_strings_are_stored_as_tuples(self):
        game = Bimatrix(row_payoffs=np.eye(2), col_payoffs=np.eye(2),
                        row_labels=["Up", "Down"], col_labels=(np.str_("L"), "R"))
        assert game.row_labels == ("Up", "Down") and game.col_labels == ("L", "R")
        assert all(type(x) is str for x in game.row_labels + game.col_labels)


class TestPureAnalysis:
    def test_pd_pure_nash(self):
        assert pure_nash(canonical_pd()) == [PureProfile(1, 1)]

    def test_hft_pure_nash_is_sell_sell(self):
        h = hft_game()
        profiles = pure_nash(h)
        assert profiles == [PureProfile(1, 1)]
        assert h.cell(1, 1) == (1.0, 1.0)
        assert h.row_labels[1] == "Sell"

    def test_all_equal_game_every_profile_is_nash(self):
        assert len(pure_nash(all_equal_game())) == 4

    def test_matching_pennies_has_no_pure_nash(self):
        assert pure_nash(matching_pennies()) == []

    def test_pd_pareto_set(self):
        assert pareto_optimal(canonical_pd()) == [
            PureProfile(0, 0), PureProfile(0, 1), PureProfile(1, 0)]

    def test_pd_dd_not_pareto(self):
        assert PureProfile(1, 1) not in pareto_optimal(canonical_pd())

    def test_all_equal_game_all_pareto(self):
        assert len(pareto_optimal(all_equal_game(2.0))) == 4

    def test_dilemma_pure_nash_disjoint_from_pareto(self):
        pd = canonical_pd()
        assert set(pure_nash(pd)) & set(pareto_optimal(pd)) == set()


class TestExpectedPayoff:
    def test_pure_corners(self):
        pd = canonical_pd()
        assert expected_payoff(pd, MixedProfile(1, 1)) == (3.0, 3.0)
        assert expected_payoff(pd, MixedProfile(0, 0)) == (1.0, 1.0)

    def test_uniform(self):
        got = expected_payoff(canonical_pd(), MixedProfile(0.5, 0.5))
        assert got == (9 / 4, 9 / 4)

    def test_bilinear(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_game(rng)
            q = rng.uniform()
            p1, p2, lam = rng.uniform(size=3)
            mix = expected_payoff(g, MixedProfile(lam * p1 + (1 - lam) * p2, q))
            part = tuple(
                lam * a + (1 - lam) * b
                for a, b in zip(expected_payoff(g, MixedProfile(p1, q)),
                                expected_payoff(g, MixedProfile(p2, q))))
            assert np.allclose(mix, part, atol=1e-12)
            # affine in q with p fixed as well
            p = rng.uniform()
            q1, q2 = rng.uniform(size=2)
            mix = expected_payoff(g, MixedProfile(p, lam * q1 + (1 - lam) * q2))
            part = tuple(
                lam * a + (1 - lam) * b
                for a, b in zip(expected_payoff(g, MixedProfile(p, q1)),
                                expected_payoff(g, MixedProfile(p, q2))))
            assert np.allclose(mix, part, atol=1e-12)


class TestMixedNash:
    def test_pd_unique_equilibrium_is_pure_dd(self):
        eqs = mixed_nash(canonical_pd())
        assert eqs == [MixedProfile(0.0, 0.0, False)]
        assert expected_payoff(canonical_pd(), eqs[0]) == (1.0, 1.0)

    def test_matching_pennies_interior(self):
        eqs = mixed_nash(matching_pennies())
        assert len(eqs) == 1
        assert abs(eqs[0].p - 0.5) < 1e-12 and abs(eqs[0].q - 0.5) < 1e-12

    def test_chicken_three_equilibria(self):
        eqs = mixed_nash(chicken())
        assert len(eqs) == 3
        pure_pairs = {(e.p, e.q) for e in eqs if e.p in (0.0, 1.0) and e.q in (0.0, 1.0)}
        assert pure_pairs == {(1.0, 0.0), (0.0, 1.0)}
        interior = [e for e in eqs if 0 < e.p < 1]
        assert len(interior) == 1
        assert abs(interior[0].p - 2 / 3) < 1e-12 and abs(interior[0].q - 2 / 3) < 1e-12

    def test_degenerate_component_flagged(self):
        # Player I indifferent everywhere; only II has preferences.
        g = Bimatrix(row_payoffs=np.zeros((2, 2)),
                     col_payoffs=np.array([[1.0, 0.0], [1.0, 0.0]]))
        eqs = mixed_nash(g)
        assert eqs, "degenerate game still has equilibria"
        assert any(e.degenerate for e in eqs)

    def test_nonempty_with_grid_oracle_500_games(self):
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.0, 1.0, 1001)
        for _ in range(500):
            g = random_game(rng)
            A, B = g.row_payoffs, g.col_payoffs
            scale = max(1.0, np.abs(A).max(), np.abs(B).max())
            eqs = mixed_nash(g)
            assert eqs, "every 2x2 game has a Nash equilibrium"

            a0 = A[0, 0] * grid + A[0, 1] * (1 - grid)
            a1 = A[1, 0] * grid + A[1, 1] * (1 - grid)
            b0 = B[0, 0] * grid + B[1, 0] * (1 - grid)
            b1 = B[0, 1] * grid + B[1, 1] * (1 - grid)
            for e in eqs:
                # exact check: mixed payoff vs best pure deviation
                pay_i, pay_ii = expected_payoff(g, e)
                best_i = max(A[0, 0] * e.q + A[0, 1] * (1 - e.q),
                             A[1, 0] * e.q + A[1, 1] * (1 - e.q))
                best_ii = max(B[0, 0] * e.p + B[1, 0] * (1 - e.p),
                              B[0, 1] * e.p + B[1, 1] * (1 - e.p))
                assert best_i - pay_i <= 1e-7 * scale
                assert best_ii - pay_ii <= 1e-7 * scale
                # the 1e-3 grid oracle agrees at the snapped profile
                pi = int(round(e.p * 1000))
                qi = int(round(e.q * 1000))
                imp_i = max(a0[qi], a1[qi]) - (e.p * a0[qi] + (1 - e.p) * a1[qi])
                imp_ii = max(b0[pi], b1[pi]) - (e.q * b0[pi] + (1 - e.q) * b1[pi])
                assert max(imp_i, imp_ii) <= 5e-3 * scale


    def test_equals_reference_on_every_game_with_payoffs_0_1_2(self):
        degenerate = 0
        for g in small_integer_games():
            eqs = mixed_nash(g)
            assert eqs == reference_mixed_nash(g), (g.row_payoffs, g.col_payoffs)
            degenerate += any(e.degenerate for e in eqs)
        assert degenerate == 4293

    def test_wide_scale_games_have_exact_regret_zero(self):
        # The reference's payoff-scaled tolerance listed profiles that are
        # not equilibria on games like these.  An interior weight is a
        # rational rounded to a float, off by at most 2**-54, so the
        # opponent's regret there is at most its gain's slope times that.
        rng = np.random.default_rng(7)
        wrong_at_reference = 0
        for _ in range(500):
            g = wide_scale_game(rng)
            eqs = mixed_nash(g)
            corners = sorted((e.p, e.q) for e in eqs if {e.p, e.q} <= {0.0, 1.0})
            assert corners == sorted((1.0 - r, 1.0 - c) for r, c in pure_nash(g))
            for e in eqs:
                regrets, slopes = exact_regrets(g, e.p, e.q)
                if {e.p, e.q} <= {0.0, 1.0}:
                    assert regrets == (0, 0)
                for regret, slope in zip(regrets, slopes):
                    assert 0 <= regret <= abs(slope) * Fraction(1, 2 ** 54)
            wrong_at_reference += any(
                {e.p, e.q} <= {0.0, 1.0} and exact_regrets(g, e.p, e.q)[0] != (0, 0)
                for e in reference_mixed_nash(g))
        assert wrong_at_reference > 0

    def test_twelve_orders_of_magnitude(self):
        g = Bimatrix(row_payoffs=np.array([[1e12, 0.0], [2.0, 1.0]]),
                     col_payoffs=np.array([[0.0, 1.0], [0.0, 1e12]]))
        assert mixed_nash(g) == [MixedProfile(0.0, 0.0, False)]
        assert reference_mixed_nash(g) == [MixedProfile(0.0, 0.0, True),
                                           MixedProfile(1.0, 0.0, True),
                                           MixedProfile(1.0, 1.0, True)]

    def test_interior_weights_are_correctly_rounded(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_game(rng)
            for e in mixed_nash(g):
                if 0 < e.p < 1 and 0 < e.q < 1:
                    A = [[Fraction(float(x)) for x in row] for row in g.row_payoffs]
                    B = [[Fraction(float(x)) for x in row] for row in g.col_payoffs]
                    q_star = (A[1][1] - A[0][1]) / (A[0][0] - A[1][0] - A[0][1] + A[1][1])
                    p_star = (B[1][1] - B[1][0]) / (B[0][0] - B[0][1] - B[1][0] + B[1][1])
                    assert (e.p, e.q) == (float(p_star), float(q_star))


class TestCorrelated:
    def test_point_mass_dd_is_ce_for_pd(self):
        pd = canonical_pd()
        assert is_correlated_equilibrium(pd, point_mass(PureProfile(1, 1)), 0.0)

    def test_point_mass_cc_not_ce_for_pd(self):
        pd = canonical_pd()
        mu = point_mass(PureProfile(0, 0))
        assert not is_correlated_equilibrium(pd, mu, eps=1.0)
        assert is_correlated_equilibrium(pd, mu, eps=2.0)  # deviation gains exactly 2

    def test_uniform_on_all_equal_game(self):
        g = all_equal_game(1.0)
        assert is_correlated_equilibrium(g, OutcomeDistribution([0.25] * 4), 0.0)

    def test_eps_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            is_correlated_equilibrium(canonical_pd(), OutcomeDistribution([0.25] * 4), -1.0)

    @pytest.mark.parametrize("mode", list(EntanglerMode), ids=lambda m: m.value)
    def test_a_protocol_distribution_is_a_ce_argument(self, mode):
        # at gamma 0 the protocol plays (D, D) classically: the PD's CE point mass
        pd, d = canonical_pd(), canonical_gates(mode).D
        assert is_correlated_equilibrium(pd, run_protocol(pd, 0.0, mode, d, d).distribution)

    @pytest.mark.parametrize("probs", [[0, 0, 0, 1], [1, 0, 0, 0], [0.25] * 4, (0.5, 0, 0, 0.5)])
    def test_probabilities_get_the_verdict_of_their_distribution(self, probs):
        pd = canonical_pd()
        assert is_correlated_equilibrium(pd, probs) == is_correlated_equilibrium(
            pd, OutcomeDistribution(probs))

    @pytest.mark.parametrize("mu, message", [
        ([0.5, 0.5], r"OutcomeDistribution: expected shape \(4,\), got \(2,\)"),
        ("x", r"OutcomeDistribution: expected shape \(4,\), got \(\)"),
    ], ids=["two", "str"])
    def test_a_malformed_mu_is_a_validation_error(self, mu, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            is_correlated_equilibrium(canonical_pd(), mu)

    def test_an_unknown_objective_is_a_validation_error(self):
        with pytest.raises(ValidationError) as info:
            best_correlated(canonical_pd(), "x")
        assert str(info.value) == (
            "objective must be 'welfare' or 'player_I' or 'player_II', got 'x'")

    def test_best_correlated_returns_an_outcome_distribution(self):
        mu = best_correlated(chicken(), "welfare")
        assert type(mu) is OutcomeDistribution
        assert [mu.prob(i, j) for i in range(2) for j in range(2)] == mu.probs.tolist()

    def test_pd_best_welfare_is_point_mass_dd(self):
        mu = best_correlated(canonical_pd(), "welfare")
        assert np.allclose(mu.probs, [0, 0, 0, 1], atol=1e-12)
        a, b = canonical_pd().payoff_vectors()
        assert abs(float(mu.probs @ (a + b)) - 2.0) < 1e-12

    def test_all_equal_game_welfare_is_constant(self):
        g = all_equal_game(1.5)
        mu = best_correlated(g, "welfare")
        a, b = g.payoff_vectors()
        assert abs(float(mu.probs @ (a + b)) - 3.0) < 1e-12

    def test_chicken_beats_worst_nash_welfare(self):
        g = chicken()
        mu = best_correlated(g, "welfare")
        a, b = g.payoff_vectors()
        welfare = float(mu.probs @ (a + b))
        worst_nash = min(sum(g.cell(*p)) for p in pure_nash(g))  # 9.0
        assert welfare > worst_nash + 1.0
        assert abs(welfare - 10.5) < 1e-12
        assert np.allclose(mu.probs, [0.5, 0.25, 0.25, 0.0], atol=1e-12)
        assert is_correlated_equilibrium(g, mu, eps=1e-9)

    def test_vertex_enumeration_matches_lp_oracle(self):
        rng = np.random.default_rng(77)
        cases = [canonical_pd(), chicken(), matching_pennies()]
        cases += [random_game(rng) for _ in range(50)]
        for g in cases:
            a, b = g.payoff_vectors()
            for name, obj in (("welfare", a + b), ("player_I", a), ("player_II", b)):
                mu = best_correlated(g, name)
                _, lp_val = lp_best_correlated(g, obj)
                assert abs(float(mu.probs @ obj) - lp_val) < 1e-7
                assert is_correlated_equilibrium(g, mu, eps=1e-9)

    def test_pure_nash_point_masses_are_ce(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            g = random_game(rng)
            for prof in pure_nash(g):
                mu = point_mass(prof)
                assert is_correlated_equilibrium(g, mu, eps=0.0)

    @pytest.mark.parametrize("draw", [wide_scale_game, huge_scale_game])
    def test_optimizer_output_is_a_ce_at_every_payoff_scale(self, draw):
        # the float weights of an exact vertex move a constraint by up to
        # 4 * 2^-52 * max|payoff|, beyond an absolute eps of 1e-9 on
        # these games; the float evaluation misjudges some of them
        rng = np.random.default_rng(7)
        misjudged = 0
        for _ in range(200):
            g = draw(rng)
            for objective in ("welfare", "player_I", "player_II"):
                mu = best_correlated(g, objective)
                assert is_correlated_equilibrium(g, mu)
                misjudged += not reference_is_correlated_equilibrium(g, mu)
        assert misjudged > 0

    def test_verdicts_equal_reference_on_games_with_payoffs_0_1_2(self):
        games = list(small_integer_games())
        rng = np.random.default_rng(15)
        candidates = [OutcomeDistribution([0.25] * 4)]
        candidates += [point_mass(PureProfile(i, j))
                       for i in range(2) for j in range(2)]
        verdicts = set()
        for k in rng.choice(len(games), 300, replace=False):
            g = games[k]
            for mu in candidates + [best_correlated(g, name)
                                    for name in ("welfare", "player_I", "player_II")]:
                verdict = is_correlated_equilibrium(g, mu)
                assert verdict == reference_is_correlated_equilibrium(g, mu)
                verdicts.add(verdict)
        assert verdicts == {True, False}
