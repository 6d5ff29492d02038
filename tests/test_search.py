"""Tests for best-response search and menu equilibria."""
import numpy as np
import pytest

from qgames import (
    EntanglerMode,
    Gate1Q,
    Player,
    SearchConfig,
    StrategyParamsB,
    best_response,
    canonical_gates,
    canonical_pd,
    default_menu,
    gate_from_B,
    mixed_quantum_equilibrium,
    payoff_landscape,
    run_protocol,
    run_protocol_mixed,
    verify_eps_nash,
)
from qgames import search
from qgames.errors import ConvergenceError, RangeError, ValidationError
from qgames.ewl import strategy_matrix

PD = canonical_pd()
MODES = list(EntanglerMode)
FAST = SearchConfig(grid_resolution=16, eps_nash=1e-6)
TINY = SearchConfig(grid_resolution=6, eps_nash=1e-6)


def phase_equal(a, b, atol=1e-9):
    """True when two gates differ only by a global phase."""
    flat = a.matrix.ravel()
    k = int(np.argmax(np.abs(flat)))
    other = b.matrix.ravel()[k]
    if abs(other) < 1e-12:
        return False
    phase = flat[k] / other
    return np.abs(a.matrix - phase * b.matrix).max() < atol


def mixture_payoff_against(game, gamma, mode, gate, mixture, responder):
    """Independent expected payoff of a pure gate vs a mixed strategy."""
    total_i = total_ii = 0.0
    for w, g in mixture.support:
        if responder is Player.I:
            r = run_protocol(game, gamma, mode, gate, g)
        else:
            r = run_protocol(game, gamma, mode, g, gate)
        total_i += w * r.payoff_I
        total_ii += w * r.payoff_II
    return total_i if responder is Player.I else total_ii


class TestBatchEvaluator:
    def test_matches_run_protocol_both_modes_and_players(self):
        # The set-B landscape is the batched evaluator: random rows of
        # it replay through run_protocol.
        rng = np.random.default_rng(100)
        for _ in range(200):
            opp = gate_from_B(StrategyParamsB(rng.uniform(0, np.pi / 2),
                                              rng.uniform(-np.pi, np.pi),
                                              rng.uniform(-np.pi, np.pi)))
            gamma = rng.uniform(0, np.pi / 2)
            mode = MODES[int(rng.integers(2))]
            responder = Player.I if rng.random() < 0.5 else Player.II
            _, data = payoff_landscape(PD, gamma, mode, "B", opp, TINY, responder=responder)
            *params, batch = data[int(rng.integers(len(data)))]
            mine = gate_from_B(StrategyParamsB(*params))
            if responder is Player.I:
                direct = run_protocol(PD, gamma, mode, mine, opp).payoff_I
            else:
                direct = run_protocol(PD, gamma, mode, opp, mine).payoff_II
            assert abs(batch - direct) < 1e-12


class TestBestResponse:
    def test_vs_c_at_gamma_zero_defects_for_5(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        br = best_response(PD, 0.0, EntanglerMode.DEFECT, named.C, Player.I, "A")
        assert abs(br.payoff - 5.0) < 1e-9

    def test_vs_q_in_space_a_capped_at_3_defect_mode(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        br = best_response(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q, Player.I, "A")
        assert br.payoff <= 3.0 + 1e-6
        assert abs(br.payoff - 3.0) < 1e-9

    def test_vs_q_in_space_a_exploitable_in_pauli_x_mode(self):
        # Regression for the documented generator discrepancy: the
        # set-A defect gate reaches payoff 5 against Q here.
        named = canonical_gates(EntanglerMode.PAULI_X)
        br = best_response(PD, np.pi / 2, EntanglerMode.PAULI_X, named.Q, Player.I, "A")
        assert abs(br.payoff - 5.0) < 1e-9

    def test_vs_q_in_space_b_restores_dilemma(self):
        for mode in MODES:
            named = canonical_gates(mode)
            br = best_response(PD, np.pi / 2, mode, named.Q, Player.I, "B")
            assert br.payoff > 3.5
            assert abs(br.payoff - 5.0) < 1e-6  # pinned optimum

    def test_improvement_vs_incumbent(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        br = best_response(PD, 0.0, EntanglerMode.DEFECT, named.C, Player.I, "A",
                           incumbent=named.C)
        assert abs(br.improvement - 2.0) < 1e-9

    def test_menu_space(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        menu = [named.C, named.D, named.Q]
        br = best_response(PD, np.pi / 2, EntanglerMode.DEFECT, named.D, Player.I,
                           menu)
        assert br.params is None
        assert phase_equal(br.gate, named.Q)
        assert abs(br.payoff - 5.0) < 1e-12

    def test_space_b_dominates_space_a_500_seeds(self):
        rng = np.random.default_rng(555)
        for _ in range(500):
            opp = gate_from_B(StrategyParamsB(rng.uniform(0, np.pi / 2),
                                              rng.uniform(-np.pi, np.pi),
                                              rng.uniform(-np.pi, np.pi)))
            gamma = rng.uniform(0, np.pi / 2)
            mode = MODES[int(rng.integers(2))]
            responder = Player.I if rng.random() < 0.5 else Player.II
            bra = best_response(PD, gamma, mode, opp, responder, "A")
            brb = best_response(PD, gamma, mode, opp, responder, "B")
            assert brb.payoff >= bra.payoff - 1e-9

    def test_deterministic_given_config(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        runs = [best_response(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q,
                              Player.I, "B") for _ in range(2)]
        assert runs[0].payoff == runs[1].payoff
        assert runs[0].params == runs[1].params

    def test_regression_grid_refinement_fell_short(self):
        # Grid + Nelder-Mead returned 4.99975973727336 here, 1.1e-4 short
        # of the optimum (the top eigenvalue of the payoff form).
        opp = gate_from_B(StrategyParamsB(0.008270721071061176, 2.0183376786311342,
                                          1.8665422699470895))
        br = best_response(PD, 0.7350305051058598, EntanglerMode.PAULI_X, opp, Player.I,
                           "B")
        assert abs(br.payoff - 4.999870821593708) < 1e-12
        replay = run_protocol(PD, 0.7350305051058598, EntanglerMode.PAULI_X, br.gate, opp)
        assert abs(replay.payoff_I - br.payoff) < 1e-12

    def test_invalid_space(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        with pytest.raises(ValidationError):
            best_response(PD, 0.0, EntanglerMode.DEFECT, named.C, Player.I, "Z")

    def test_config_validation(self):
        with pytest.raises(RangeError):
            SearchConfig(grid_resolution=1)
        with pytest.raises(RangeError):
            SearchConfig(eps_nash=0.0)


class TestExactSolverOracle:
    """The exact optimum against a dense parameter grid, the reference
    that stays: never below any grid point, and the returned gate
    replays to the returned payoff."""

    GRID = {"A": 64, "B": 24}

    def test_matches_dense_grid_and_replay_200_seeds(self):
        rng = np.random.default_rng(2104)
        for k in range(200):
            opp = gate_from_B(StrategyParamsB(rng.uniform(0, np.pi / 2),
                                              rng.uniform(-np.pi, np.pi),
                                              rng.uniform(-np.pi, np.pi)))
            gamma = rng.uniform(0, np.pi / 2)
            mode = MODES[k % 2]
            responder = (Player.I, Player.II)[(k // 2) % 2]
            space = "AB"[(k // 4) % 2]
            br = best_response(PD, gamma, mode, opp, responder, space)
            grid = SearchConfig(grid_resolution=self.GRID[space])
            _, data = payoff_landscape(PD, gamma, mode, space, opp, grid, responder=responder)
            grid_max = data[:, -1].max()
            assert br.payoff >= grid_max - 1e-12
            if responder is Player.I:
                replay = run_protocol(PD, gamma, mode, br.gate, opp).payoff_I
            else:
                replay = run_protocol(PD, gamma, mode, opp, br.gate).payoff_II
            assert abs(replay - br.payoff) < 1e-12

    @pytest.mark.parametrize("space", ["A", "B"])
    def test_a_stack_of_forms_solves_like_each_form(self, space):
        rng = np.random.default_rng(2105)
        opp = random_b_gates(2106, 300)
        for mode in MODES:
            for responder in Player:
                m = search._payoff_form(PD, rng.uniform(0, np.pi / 2), mode, opp, responder)
                x = search._exact_optimum(m, space)
                assert x.shape == (300, 4)
                each = np.array([search._exact_optimum(f, space) for f in m])
                assert x.tobytes() == each.tobytes()
                assert search._exact_optimum(m[:1], space).tobytes() == each[:1].tobytes()


class TestVerifyEpsNash:
    def test_cc_fails_in_classical_menu(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        ok, imp = verify_eps_nash(PD, 0.0, EntanglerMode.DEFECT, named.C, named.C,
                                  [named.C, named.D], FAST)
        assert not ok
        assert abs(imp - 2.0) < 1e-12

    def test_qq_is_equilibrium_in_space_a_defect_mode(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        ok, imp = verify_eps_nash(PD, np.pi / 2, EntanglerMode.DEFECT,
                                  named.Q, named.Q, "A", FAST)
        assert ok
        assert imp <= 1e-6

    def test_qq_fails_in_space_a_pauli_x_mode(self):
        named = canonical_gates(EntanglerMode.PAULI_X)
        ok, imp = verify_eps_nash(PD, np.pi / 2, EntanglerMode.PAULI_X,
                                  named.Q, named.Q, "A", FAST)
        assert not ok
        assert abs(imp - 2.0) < 1e-6

    def test_qq_fails_in_space_b(self):
        for mode in MODES:
            named = canonical_gates(mode)
            ok, imp = verify_eps_nash(PD, np.pi / 2, mode, named.Q, named.Q, "B", FAST)
            assert not ok
            assert imp > 0.5

    def test_symmetric_improvements_match(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        br1 = best_response(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q, Player.I,
                            "B", incumbent=named.Q)
        br2 = best_response(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q, Player.II,
                            "B", incumbent=named.Q)
        assert abs(br1.improvement - br2.improvement) < 1e-6


class TestLandscape:
    def test_vs_c_classical_limit(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        cols, data = payoff_landscape(PD, 0.0, EntanglerMode.DEFECT, "A", named.C, FAST)
        assert cols == ("theta", "phi", "payoff")
        best = data[np.argmax(data[:, -1])]
        assert abs(best[-1] - 5.0) < 1e-9
        assert abs(best[0] - np.pi / 2) < 1e-9  # defect corner

    def test_vs_q_max_is_3_in_defect_mode(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        _, data = payoff_landscape(PD, np.pi / 2, EntanglerMode.DEFECT, "A", named.Q, FAST)
        assert abs(data[:, -1].max() - 3.0) < 1e-9

    def test_values_bounded_by_cells(self):
        named = canonical_gates(EntanglerMode.PAULI_X)
        _, data = payoff_landscape(PD, 1.0, EntanglerMode.PAULI_X, "B", named.D, TINY)
        assert data[:, -1].min() >= -1e-12
        assert data[:, -1].max() <= 5.0 + 1e-12

    def test_row_major_and_deterministic(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        _, d1 = payoff_landscape(PD, 0.7, EntanglerMode.DEFECT, "A", named.Q, TINY)
        _, d2 = payoff_landscape(PD, 0.7, EntanglerMode.DEFECT, "A", named.Q, TINY)
        assert np.array_equal(d1, d2)
        n = TINY.grid_resolution
        assert d1.shape == (n * n, 3)
        # first axis varies slowest
        assert np.all(np.diff(d1[:n, 0]) == 0)


class TestMixedQuantumEquilibrium:
    def test_classical_menu_at_gamma_zero(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        res = mixed_quantum_equilibrium(PD, 0.0, EntanglerMode.DEFECT,
                                        [named.C, named.D], FAST)
        assert res.method == "pure_fixed_point"
        assert abs(res.payoff_I - 1.0) < 1e-12 and abs(res.payoff_II - 1.0) < 1e-12
        assert len(res.strategy_I) == 1 and len(res.strategy_II) == 1
        assert phase_equal(res.strategy_I.support[0][1], named.D)

    def test_singleton_menu(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        res = mixed_quantum_equilibrium(PD, np.pi / 2, EntanglerMode.DEFECT,
                                        [named.Q], FAST)
        assert res.method == "pure_fixed_point"
        assert abs(res.payoff_I - 3.0) < 1e-9 and abs(res.payoff_II - 3.0) < 1e-9

    @pytest.mark.parametrize("mode", MODES)
    def test_default_menu_reaches_two_point_five(self, mode):
        menu = default_menu(mode)
        res = mixed_quantum_equilibrium(PD, np.pi / 2, mode, menu, FAST)
        assert abs(res.payoff_I - 2.5) <= 0.05
        assert abs(res.payoff_II - 2.5) <= 0.05
        # regression: half/half supports found by the cycle fallback
        assert res.method == "support_enumeration"
        assert sorted(w for w, _ in res.strategy_I.support) == [0.5, 0.5]
        assert sorted(w for w, _ in res.strategy_II.support) == [0.5, 0.5]
        # no pure menu deviation improves either player beyond eps
        for g in menu:
            dev_i = mixture_payoff_against(PD, np.pi / 2, mode, g,
                                           res.strategy_II, Player.I)
            dev_ii = mixture_payoff_against(PD, np.pi / 2, mode, g,
                                            res.strategy_I, Player.II)
            assert dev_i <= res.payoff_I + 1e-6
            assert dev_ii <= res.payoff_II + 1e-6
        # reported payoffs agree with an exact mixed protocol run
        replay = run_protocol_mixed(PD, np.pi / 2, mode,
                                    res.strategy_I, res.strategy_II)
        assert abs(replay.payoff_I - res.payoff_I) < 1e-9
        assert abs(replay.payoff_II - res.payoff_II) < 1e-9

    def test_default_menu_support_pinned_defect_mode(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        menu = default_menu(EntanglerMode.DEFECT)
        res = mixed_quantum_equilibrium(PD, np.pi / 2, EntanglerMode.DEFECT, menu, FAST)
        x_gate = gate_from_B(StrategyParamsB(np.pi / 2, 0.0, np.pi / 2))  # i*sigma_x
        got1 = [g for _, g in res.strategy_I.support]
        got2 = [g for _, g in res.strategy_II.support]
        assert any(phase_equal(g, named.D) for g in got1)
        assert any(phase_equal(g, x_gate) for g in got1)
        assert any(phase_equal(g, named.C) for g in got2)
        assert any(phase_equal(g, named.Q) for g in got2)

    def test_bit_identical_reruns(self):
        menu = default_menu(EntanglerMode.DEFECT)
        r1 = mixed_quantum_equilibrium(PD, np.pi / 2, EntanglerMode.DEFECT, menu, FAST)
        r2 = mixed_quantum_equilibrium(PD, np.pi / 2, EntanglerMode.DEFECT, menu, FAST)
        assert r1.payoff_I == r2.payoff_I and r1.payoff_II == r2.payoff_II
        assert [w for w, _ in r1.strategy_I.support] == [w for w, _ in r2.strategy_I.support]

    def test_empty_menu_rejected(self):
        with pytest.raises(ValidationError):
            mixed_quantum_equilibrium(PD, 0.0, EntanglerMode.DEFECT, [], FAST)

    def test_widened_support_enumeration_decides(self, monkeypatch):
        # the dynamics' cycle supports hold no equilibrium here; the
        # supports of everything visited hold a 3+3 one
        rng = np.random.default_rng(9)
        menu = [Gate1Q(m) for m in strategy_matrix(rng.uniform(0, np.pi / 2, 8),
                                                    rng.uniform(-np.pi, np.pi, 8),
                                                    rng.uniform(-np.pi, np.pi, 8))]
        gamma = rng.uniform(0, np.pi / 2)
        assert abs(gamma - 1.386797) < 1e-6
        found = []
        enumerate_supports = search._support_equilibria

        def spy(*args):
            equilibria = enumerate_supports(*args)
            found.append(len(equilibria))
            return equilibria

        monkeypatch.setattr(search, "_support_equilibria", spy)
        mode = EntanglerMode.PAULI_X
        res = mixed_quantum_equilibrium(PD, gamma, mode, menu, FAST)
        assert len(found) == 2 and found[0] == 0 and found[1] > 0
        assert res.method == "support_enumeration"
        assert len(res.strategy_I) == 3 and len(res.strategy_II) == 3
        assert abs(res.payoff_I - 2.2627646300872053) < 1e-12
        assert abs(res.payoff_II - 2.2627646300872057) < 1e-12
        for g in menu:
            dev_i = mixture_payoff_against(PD, gamma, mode, g, res.strategy_II, Player.I)
            dev_ii = mixture_payoff_against(PD, gamma, mode, g, res.strategy_I, Player.II)
            assert dev_i - res.payoff_I <= FAST.eps_nash
            assert dev_ii - res.payoff_II <= FAST.eps_nash


class TestDefaultMenu:
    @staticmethod
    def uncached(mode, points_per_axis=5):
        named = canonical_gates(mode)
        angles = np.linspace(-np.pi, np.pi, points_per_axis)
        grid = np.meshgrid(np.linspace(0, np.pi / 2, points_per_axis), angles, angles,
                           indexing="ij")
        return ([named.C.matrix, named.D.matrix, named.Q.matrix]
                + list(strategy_matrix(*grid).reshape(-1, 2, 2)))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("points", [2, 5])
    def test_gates_bit_identical_to_a_fresh_build(self, mode, points):
        for menu in (default_menu(mode, points), default_menu(mode, points)):
            want = self.uncached(mode, points)
            assert len(menu) == len(want) == 3 + points ** 3
            assert all(g.matrix.tobytes() == w.tobytes() for g, w in zip(menu, want))

    def test_repeat_calls_give_the_same_gates(self):
        first = default_menu(EntanglerMode.DEFECT)
        second = default_menu(EntanglerMode.DEFECT)
        assert type(first) is list and type(second) is list
        assert [g.matrix.tobytes() for g in first] == [g.matrix.tobytes() for g in second]

    def test_mutating_the_returned_list_does_not_leak(self):
        menu = default_menu(EntanglerMode.PAULI_X)
        n = len(menu)
        menu.clear()
        again = default_menu(EntanglerMode.PAULI_X)
        assert len(again) == n
        again.append(again[0])
        assert len(default_menu(EntanglerMode.PAULI_X)) == n
        assert not default_menu(EntanglerMode.PAULI_X)[3].matrix.flags.writeable


def reference_dedup(menu):
    """First occurrences of the menu's gates up to a global phase, one
    pair at a time: unitaries U, V differ only by a phase exactly when
    |tr(U^dagger V)| = 2.  Returns them and their stacked matrices."""
    reps = []
    for g in menu:
        if all(abs(np.trace(r.matrix.conj().T @ g.matrix)) < 2 - 1e-9 for r in reps):
            reps.append(g)
    return reps, np.array([g.matrix for g in reps])


def random_b_gates(seed, n):
    """n seeded set-B gate matrices."""
    rng = np.random.default_rng(seed)
    return strategy_matrix(rng.uniform(0, np.pi / 2, n), rng.uniform(-np.pi, np.pi, n),
                           rng.uniform(-np.pi, np.pi, n))


def random_phases(seed, n):
    return np.exp(1j * np.random.default_rng(seed).uniform(-np.pi, np.pi, n))[:, None, None]


HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
# gates with entries of equal modulus, where no entry leads
TIES = [HADAMARD, strategy_matrix(np.pi / 4, 0.0, 0.0),
        strategy_matrix(np.pi / 4, np.pi / 2, -np.pi / 3),
        np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)]


class TestPhaseCanonicalKeys:
    """Keys are invariant under a global phase and separate gates that
    differ by more than one."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("points", range(2, 10))
    def test_default_menus(self, mode, points):
        menu = default_menu(mode, points)
        reps, stack = search._dedup_menu(menu)
        want, want_stack = reference_dedup(menu)
        assert len(reps) == len(want) and all(g is w for g, w in zip(reps, want))
        assert stack.tobytes() == want_stack.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_phase_multiples_of_the_default_menu_add_no_representative(self, mode):
        menu = default_menu(mode)
        reps, _ = search._dedup_menu(menu)
        more, _ = search._dedup_menu(menu + [Gate1Q(g.matrix * np.exp(0.7j)) for g in menu])
        assert more == reps

    def test_random_b_gates_under_random_phases(self):
        u = random_b_gates(8001, 2000)
        keys = search.phase_canonical_keys(u)
        assert search.phase_canonical_keys(u * random_phases(8002, 2000)) == keys
        assert search.phase_canonical_keys(-u) == keys
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("tie", range(len(TIES)))
    def test_magnitude_ties(self, tie):
        u = TIES[tie]
        key = search.phase_canonical_keys(u[None])[0]
        for seed in range(5):
            assert set(search.phase_canonical_keys(u * random_phases(seed, 100))) == {key}
        others = np.array([v for k, v in enumerate(TIES) if k != tie])
        assert key not in search.phase_canonical_keys(others)

    def test_named_gates_are_told_apart(self):
        for mode in MODES:
            named = canonical_gates(mode)
            keys = search.phase_canonical_keys(
                np.array([named.C.matrix, named.D.matrix, named.Q.matrix]))
            assert len(set(keys)) == 3

    @pytest.mark.parametrize("mode", MODES)
    def test_equilibria_equal_with_the_reference_dedup(self, mode, monkeypatch):
        menu = default_menu(mode)
        gammas = np.random.default_rng(8003).uniform(0, np.pi / 2, 10)
        gammas = np.append(gammas, [0.0, 0.8, np.pi / 2])

        def solve_all():
            out = []
            for gamma in gammas:
                try:
                    res = mixed_quantum_equilibrium(PD, gamma, mode, menu, FAST)
                except ConvergenceError as err:
                    out.append(str(err))
                    continue
                out.append((res.method, res.payoff_I, res.payoff_II,
                            [(w, g.matrix.tobytes()) for w, g in res.strategy_I.support],
                            [(w, g.matrix.tobytes()) for w, g in res.strategy_II.support]))
            return out

        got = solve_all()
        monkeypatch.setattr(search, "_dedup_menu", reference_dedup)
        assert solve_all() == got
        assert any(isinstance(r, tuple) for r in got)
