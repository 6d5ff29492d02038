"""Tests for best-response search and menu equilibria."""
import dataclasses
import itertools

import numpy as np
import pytest

from qgames import (
    Bimatrix,
    EntanglerMode,
    Gate1Q,
    NoiseSpec,
    Player,
    SearchConfig,
    StrategyParamsB,
    best_response,
    canonical_gates,
    canonical_pd,
    default_menu,
    mixed_quantum_equilibrium,
    payoff_landscape,
    run_protocol,
    verify_eps_nash,
)
from qgames import search
from qgames.errors import ConvergenceError, RangeError, ValidationError
from qgames.ewl import SPACES, noisy_outcome_probs, outcome_amplitudes, strategy_matrix

from circuit import KET00, entangler, haar_gates

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
            opp = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                  rng.uniform(-np.pi, np.pi),
                                  rng.uniform(-np.pi, np.pi)).gate()
            gamma = rng.uniform(0, np.pi / 2)
            mode = MODES[int(rng.integers(2))]
            responder = Player.I if rng.random() < 0.5 else Player.II
            _, data = payoff_landscape(PD, gamma, mode, "B", opp, TINY, responder=responder)
            *params, batch = data[int(rng.integers(len(data)))]
            mine = StrategyParamsB(*params).gate()
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
        # the reply to C pays 5, the incumbent C 3: (C, C) at gamma 0 in set A
        named = canonical_gates(EntanglerMode.DEFECT)
        _, improvement = verify_eps_nash(PD, 0.0, EntanglerMode.DEFECT, named.C, named.C, "A",
                                         FAST)
        assert abs(improvement - 2.0) < 1e-9

    def test_space_b_dominates_space_a_500_seeds(self):
        rng = np.random.default_rng(555)
        for _ in range(500):
            opp = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                  rng.uniform(-np.pi, np.pi),
                                  rng.uniform(-np.pi, np.pi)).gate()
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
        opp = StrategyParamsB(0.008270721071061176, 2.0183376786311342,
                              1.8665422699470895).gate()
        br = best_response(PD, 0.7350305051058598, EntanglerMode.PAULI_X, opp, Player.I,
                           "B")
        assert abs(br.payoff - 4.999870821593708) < 1e-12
        replay = run_protocol(PD, 0.7350305051058598, EntanglerMode.PAULI_X, br.gate, opp)
        assert abs(replay.payoff_I - br.payoff) < 1e-12

    @pytest.mark.parametrize("space", SPACES)
    def test_the_params_gate_is_the_reply_gate(self, space):
        """A reply's params are a point of the named set, and their gate()
        is the reply's gate, byte for byte."""
        rng = np.random.default_rng(3501)
        for mode in MODES:
            for responder in Player:
                for game in (PD, RANDOM_GAME):
                    for opp in random_b_gates(int(rng.integers(2**32)), 10):
                        br = best_response(game, rng.uniform(0, np.pi / 2), mode, opp,
                                           responder, space)
                        assert type(br.params) is SPACES[space]
                        assert br.params.gate().matrix.tobytes() == br.gate.matrix.tobytes()

    def test_invalid_space(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        with pytest.raises(ValidationError):
            best_response(PD, 0.0, EntanglerMode.DEFECT, named.C, Player.I, "Z")

    @pytest.mark.parametrize("space", [["A"], "gates", None, "C"],
                             ids=["list", "gates", "None", "C"])
    @pytest.mark.parametrize("call", [
        lambda g, space: best_response(PD, 0.0, EntanglerMode.DEFECT, g, Player.I, space),
        lambda g, space: verify_eps_nash(PD, 0.0, EntanglerMode.DEFECT, g, g, space, FAST),
        lambda g, space: payoff_landscape(PD, 0.0, EntanglerMode.DEFECT, space, g, FAST),
    ], ids=["best_response", "verify_eps_nash", "payoff_landscape"])
    def test_space_other_than_a_or_b_is_a_validation_error(self, call, space):
        # a gate list, or any unhashable value, gets the same error as "C"
        named = canonical_gates(EntanglerMode.DEFECT)
        if space == "gates":
            space = [named.C, named.D, named.Q]
        with pytest.raises(ValidationError, match="space must be 'A' or 'B'"):
            call(named.C, space)

    @pytest.mark.parametrize("space", [np.array("A"), np.array(["A"])], ids=["0-d", "1-d"])
    @pytest.mark.parametrize("call", [
        lambda g, space: best_response(PD, 0.0, EntanglerMode.DEFECT, g, Player.I, space),
        lambda g, space: verify_eps_nash(PD, 0.0, EntanglerMode.DEFECT, g, g, space, FAST),
        lambda g, space: payoff_landscape(PD, 0.0, EntanglerMode.DEFECT, space, g, FAST),
    ], ids=["best_response", "verify_eps_nash", "payoff_landscape"])
    def test_a_numpy_array_space_is_a_validation_error(self, call, space):
        # an array holding "A" compares equal to "A" but is no key of SPACES
        with pytest.raises(ValidationError, match="space must be 'A' or 'B'"):
            call(canonical_gates(EntanglerMode.DEFECT).C, space)

    @pytest.mark.parametrize("responder", ["x", None, 1, 2, "I"])
    @pytest.mark.parametrize("call", [
        lambda g, r: best_response(PD, 0.0, EntanglerMode.DEFECT, g, r, "A"),
        lambda g, r: payoff_landscape(PD, 0.0, EntanglerMode.DEFECT, "A", g, TINY, responder=r),
    ], ids=["best_response", "payoff_landscape"])
    def test_responder_other_than_a_player_is_a_validation_error(self, call, responder):
        # such a responder once answered as Player II
        with pytest.raises(ValidationError, match="responder must be a Player, got "):
            call(canonical_gates(EntanglerMode.DEFECT).C, responder)

    def test_config_validation(self):
        with pytest.raises(RangeError):
            SearchConfig(grid_resolution=1)
        with pytest.raises(RangeError):
            SearchConfig(eps_nash=0.0)

    def test_grid_resolution_is_an_integer(self):
        # a float count once passed here and failed later with a bare TypeError
        for bad in (2.5, 16.0, "16", None):
            with pytest.raises(ValidationError, match="grid_resolution must be an integer"):
                SearchConfig(grid_resolution=bad)
        cfg = SearchConfig(grid_resolution=np.int64(6))
        assert type(cfg.grid_resolution) is int and cfg == TINY


class TestExactSolverOracle:
    """The exact optimum against a dense parameter grid, the reference
    that stays: never below any grid point, and the returned gate
    replays to the returned payoff."""

    GRID = {"A": 64, "B": 24}

    def test_matches_dense_grid_and_replay_200_seeds(self):
        rng = np.random.default_rng(2104)
        for k in range(200):
            opp = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                  rng.uniform(-np.pi, np.pi),
                                  rng.uniform(-np.pi, np.pi)).gate()
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

    @pytest.mark.parametrize("space", SPACES.values(), ids=list(SPACES))
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
        # at gamma 0 set A holds the classical game: defecting gains 5 - 3
        named = canonical_gates(EntanglerMode.DEFECT)
        ok, imp = verify_eps_nash(PD, 0.0, EntanglerMode.DEFECT, named.C, named.C, "A", FAST)
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
        r1, r2 = search._regrets(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q.matrix,
                                 named.Q.matrix, StrategyParamsB)
        assert abs(r1 - r2) < 1e-6


def dense_payoffs(game, gamma, mode, u1, u2):
    """(payoff_I, payoff_II) of the gate stacks u1[..., 2, 2] and
    u2[..., 2, 2] through the dense 4x4 circuit, not the kernel."""
    pair = u1[..., :, None, :, None] * u2[..., None, :, None, :]
    pair = pair.reshape(pair.shape[:-4] + (4, 4))
    j = entangler(gamma, mode)
    probs = np.abs(j.conj().T @ pair @ (j @ KET00)) ** 2
    a, b = game.payoff_vectors()
    return probs @ a, probs @ b


RANDOM_GAME = Bimatrix(np.array([[4.0, -2.0], [7.0, 1.0]]), np.array([[3.0, 6.0], [-1.0, 2.0]]))


class TestRegrets:
    """search._regrets, the one regret routine of verify_eps_nash and of
    search.symmetric_equilibrium_gate."""

    @pytest.mark.parametrize("space", ["A", "B"])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.numpy_floor
    def test_rows_are_best_reply_minus_own_payoff_bit_for_bit(self, mode, space):
        """A stack against a stack, and a stack against one gate: each
        profile gets the bits of a best reply minus its payoff, one
        profile at a time (numpy's dot on both), on the oldest numpy too."""
        rng = np.random.default_rng(2401)
        u1, u2 = random_b_gates(2402, 24), random_b_gates(2403, 24)
        for game in (PD, RANDOM_GAME):
            for gamma in (0.0, np.pi / 2, *rng.uniform(0, np.pi / 2, 2)):
                for v1, v2 in ((u1, u2), (u1, u2[0])):
                    regrets = search._regrets(game, gamma, mode, v1, v2, SPACES[space])
                    assert regrets.shape == (2, 24)
                    for k, (g1, g2) in enumerate(zip(*np.broadcast_arrays(v1, v2))):
                        own = run_protocol(game, gamma, mode, g1, g2)
                        want = np.array([
                            best_response(game, gamma, mode, g2, Player.I, space).payoff
                            - own.payoff_I,
                            best_response(game, gamma, mode, g1, Player.II, space).payoff
                            - own.payoff_II])
                        assert regrets[:, k].tobytes() == want.tobytes()

    @pytest.mark.parametrize("space", ["A", "B"])
    def test_no_regret_below_the_best_of_random_deviations(self, space):
        # 10^4 deviations: Haar-random unitaries for set B (which holds
        # every unitary up to a phase), uniform (theta, phi) for set A
        rng = np.random.default_rng(2404 if space == "B" else 2405)
        n = 10_000
        if space == "B":
            dev = haar_gates(rng, n)
        else:
            dev = strategy_matrix(rng.uniform(0, np.pi / 2, n), rng.uniform(0, np.pi / 2, n), 0.0)
        for game in (PD, RANDOM_GAME):
            for mode in MODES:
                for _ in range(3):
                    gamma = rng.uniform(0, np.pi / 2)
                    u1, u2 = haar_gates(rng, 2)
                    r1, r2 = search._regrets(game, gamma, mode, u1, u2, SPACES[space])
                    own1, own2 = dense_payoffs(game, gamma, mode, u1, u2)
                    best1 = dense_payoffs(game, gamma, mode, dev, u2)[0].max()
                    best2 = dense_payoffs(game, gamma, mode, u1, dev)[1].max()
                    assert r1 >= best1 - own1 - 1e-12
                    assert r2 >= best2 - own2 - 1e-12

    @pytest.mark.parametrize("space", ["A", "B"])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.numpy_floor
    def test_one_eigensolve_keeps_each_players_bits(self, mode, space):
        """Both players' forms share one eigensolve.  Blocks of 1, 16
        and 64 profiles, symmetric, paired or against one gate, get the
        bytes of one solve per player, on the oldest numpy too."""
        rng = np.random.default_rng(4401)
        bounds = SPACES[space].BOUNDS
        for game in (PD, RANDOM_GAME):
            for size in (1, 16, 64):
                gamma = rng.uniform(0, np.pi / 2)
                u1, u2 = (strategy_matrix(*(rng.uniform(lo, hi, size) for lo, hi in bounds))
                          for _ in range(2))
                for v1, v2 in ((u1, u1), (u1, u2), (u1, u2[0]), (u1[0], u2)):
                    got = search._regrets(game, gamma, mode, v1, v2, SPACES[space])
                    want = per_player_regrets(game, gamma, mode, v1, v2, SPACES[space])
                    assert got.tobytes() == want.tobytes()


def per_player_regrets(game, gamma, mode, u1, u2, space):
    """search._regrets with one eigensolve per player, as it was first
    written."""
    probs = (np.abs(outcome_amplitudes(gamma, mode, u1, u2)) ** 2)[..., None, :]
    regrets = []
    for responder, opponent, payvec in zip(Player, (u2, u1), game.payoff_vectors()):
        m = search._payoff_form(game, gamma, mode, opponent, responder)
        x = search._exact_optimum(m, space)[..., None, :]
        regrets.append((x @ m @ np.swapaxes(x, -1, -2) - probs @ payvec[:, None])[..., 0, 0])
    return np.stack(regrets)


class TestRawMatrices:
    """Every search function validates a raw 2x2 matrix as a Gate1Q,
    like run_protocol does."""

    def test_raw_matrices_answer_like_gates(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        raw_q = np.diag([1j, -1j])
        mode = EntanglerMode.DEFECT
        raw, gate = (best_response(PD, np.pi / 2, mode, u, Player.I, "B") for u in (raw_q, named.Q))
        assert (raw.params, raw.payoff) == (gate.params, gate.payoff)
        assert raw.gate.matrix.tobytes() == gate.gate.matrix.tobytes()
        assert (verify_eps_nash(PD, np.pi / 2, mode, raw_q, raw_q, "B", FAST)
                == verify_eps_nash(PD, np.pi / 2, mode, named.Q, named.Q, "B", FAST))
        for space in "AB":
            _, raw = payoff_landscape(PD, 0.7, mode, space, raw_q, TINY)
            _, gate = payoff_landscape(PD, 0.7, mode, space, named.Q, TINY)
            assert raw.tobytes() == gate.tobytes()
        menu = [g.matrix for g in default_menu(mode)]
        raw = mixed_quantum_equilibrium(PD, np.pi / 2, mode, menu, FAST)
        gate = mixed_quantum_equilibrium(PD, np.pi / 2, mode, default_menu(mode), FAST)
        assert (raw.payoff_I, raw.payoff_II, raw.method) == (gate.payoff_I, gate.payoff_II,
                                                             gate.method)
        for (w, g), (v, h) in zip(raw.strategy_I.support + raw.strategy_II.support,
                                  gate.strategy_I.support + gate.strategy_II.support):
            assert w == v and g.matrix.tobytes() == h.matrix.tobytes()

    @pytest.mark.parametrize("call", [
        lambda u: best_response(PD, 0.0, EntanglerMode.DEFECT, u, Player.I, "A"),
        lambda u: verify_eps_nash(PD, 0.0, EntanglerMode.DEFECT, u, np.eye(2), "A", FAST),
        lambda u: verify_eps_nash(PD, 0.0, EntanglerMode.DEFECT, np.eye(2), u, "A", FAST),
        lambda u: payoff_landscape(PD, 0.0, EntanglerMode.DEFECT, "A", u, FAST),
        lambda u: mixed_quantum_equilibrium(PD, 0.0, EntanglerMode.DEFECT, [np.eye(2), u],
                                            FAST),
    ], ids=["best_response", "verify_eps_nash-I", "verify_eps_nash-II", "payoff_landscape",
            "mixed_quantum_equilibrium"])
    def test_a_non_unitary_matrix_is_a_validation_error(self, call):
        with pytest.raises(ValidationError, match="not unitary"):
            call(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestLandscape:
    @pytest.mark.parametrize("space", ["A", "B"])
    def test_rows_build_the_spaces_params(self, space):
        """Every row's parameters are a valid point of the space's params
        type, and the columns are that type's fields plus the payoff."""
        params_type = SPACES[space]
        cols, data = payoff_landscape(PD, 0.4, EntanglerMode.DEFECT, space,
                                      canonical_gates(EntanglerMode.DEFECT).Q, TINY)
        assert cols == (*(f.name for f in dataclasses.fields(params_type)), "payoff")
        for row in data:
            assert dataclasses.astuple(params_type(*row[:-1])) == tuple(row[:-1])

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
        replay = run_protocol(PD, np.pi / 2, mode,
                              res.strategy_I, res.strategy_II)
        assert abs(replay.payoff_I - res.payoff_I) < 1e-9
        assert abs(replay.payoff_II - res.payoff_II) < 1e-9

    def test_default_menu_support_pinned_defect_mode(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        menu = default_menu(EntanglerMode.DEFECT)
        res = mixed_quantum_equilibrium(PD, np.pi / 2, EntanglerMode.DEFECT, menu, FAST)
        x_gate = StrategyParamsB(np.pi / 2, 0.0, np.pi / 2).gate()  # i*sigma_x
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

    def test_menu_cache_gives_identical_results(self):
        def summary(res):
            return (res.method, res.payoff_I, res.payoff_II,
                    [[(w, id(g)) for w, g in s.support] for s in (res.strategy_I, res.strategy_II)])

        mode = EntanglerMode.DEFECT
        menus = [default_menu(mode), [Gate1Q(m) for m in random_b_gates(33, 8)]]
        gammas = [np.pi / 2, 1.0]
        want = []
        for menu, gamma in zip(menus, gammas):
            want.append(summary(mixed_quantum_equilibrium(PD, gamma, mode, menu, FAST)))
        for menu, gamma, first in zip(menus, gammas, want):
            caller = list(menu)
            assert summary(mixed_quantum_equilibrium(PD, gamma, mode, caller, FAST)) == first
            assert summary(mixed_quantum_equilibrium(PD, gamma, mode, caller, FAST)) == first
            assert summary(mixed_quantum_equilibrium(PD, gamma, mode, list(menu), FAST)) == first
            caller.reverse()
            caller.pop()
            mutated = summary(mixed_quantum_equilibrium(PD, gamma, mode, caller, FAST))
            assert summary(mixed_quantum_equilibrium(PD, gamma, mode, caller, FAST)) == mutated
            assert summary(mixed_quantum_equilibrium(PD, gamma, mode, menu, FAST)) == first
            reps, stack = search._dedup_menu(tuple(menu))
            assert type(reps) is tuple and not stack.flags.writeable
            again = search._dedup_menu(tuple(menu))
            assert again[0] == reps and again[1].tobytes() == stack.tobytes()

    @pytest.mark.numpy_floor
    def test_interleaved_menus_solve_as_each_alone(self, monkeypatch):
        """The default menu, as gates and as raw matrices, before and
        after 17 raw-matrix menus: each solves as it does alone, with the
        pairwise reference dedup (search._dedup_menu returns read-only
        results, and nothing is cached), on the oldest numpy too."""
        def summary(menu, gamma, mode):
            try:
                res = mixed_quantum_equilibrium(PD, gamma, mode, menu, FAST)
            except ConvergenceError as err:
                return str(err)
            return (res.method, res.payoff_I.hex(), res.payoff_II.hex(),
                    [[(w.hex(), g.matrix.tobytes()) for w, g in s.support]
                     for s in (res.strategy_I, res.strategy_II)])

        rng = np.random.default_rng(8004)
        cases = []
        for m, mode in enumerate(MODES):
            default = (default_menu(mode), np.pi / 2, mode)
            raw_default = ([g.matrix for g in default[0]], np.pi / 2, mode)
            cases += [default, raw_default]
            cases += [(list(random_b_gates(8010 + 17 * m + k, 8)), rng.uniform(0, np.pi / 2),
                       mode) for k in range(17)]
            cases += [default, raw_default]
        got = [summary(*case) for case in cases]
        monkeypatch.setattr(search, "_dedup_menu", reference_dedup)
        assert got == [summary(*case) for case in cases]
        assert sum(isinstance(r, tuple) for r in got) >= len(cases) // 2

    def test_overflowing_menu_table_is_a_range_error(self):
        # every payoff is the largest float; the table's weighted sums of
        # outcome probabilities round past it at this gamma
        top = np.full((2, 2), np.finfo(float).max)
        game = Bimatrix(row_payoffs=top, col_payoffs=top)
        mode = EntanglerMode.DEFECT
        with np.errstate(over="ignore"), pytest.raises(RangeError, match="menu payoff table overflows"):
            mixed_quantum_equilibrium(game, 0.7, mode, default_menu(mode), FAST)

    def test_empty_menu_rejected(self):
        with pytest.raises(ValidationError):
            mixed_quantum_equilibrium(PD, 0.0, EntanglerMode.DEFECT, [], FAST)

    def test_a_singular_indifference_system_has_no_support_solution(self):
        # a payoff table constant on the support leaves the other player's
        # weights undetermined: its bordered system has two equal rows
        singular, regular = np.ones((2, 2)), np.eye(2)
        pure = [([1.0, 0.0], [1.0, 0.0]), ([0.0, 1.0], [0.0, 1.0])]

        def weights(pi, pii):
            return [(x.tolist(), y.tolist())
                    for x, y, _, _ in search._support_equilibria(pi, pii, (0, 1), (0, 1), 1e-6)]

        assert weights(regular, regular) == pure + [([0.5, 0.5], [0.5, 0.5])]
        for pi, pii in ((singular, regular), (regular, singular)):
            assert weights(pi, pii) == pure

    def test_a_zero_support_weight_passes_the_floor(self):
        # row 1 earns player I 2 more against column 1 than row 0 does, so
        # only y = (1, 0) makes them indifferent; x = (1/2, 1/2) does the
        # same for player II's columns.  Its zero weight passes the -1e-9
        # floor and would fail any floor above 0.
        pi = np.array([[1.0, 0.0], [1.0, 2.0]])
        pii = np.array([[2.0, 3.0], [1.0, 0.0]])
        (x0, y0, *v0), (x1, y1, *v1) = search._support_equilibria(pi, pii, (0, 1), (0, 1), 1e-6)
        assert (x0.tolist(), y0.tolist(), v0) == ([0.0, 1.0], [1.0, 0.0], [1.0, 1.0])
        assert x1.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)
        assert (y1.tolist(), v1) == ([1.0, 0.0], [1.0, 1.5])

    def test_dynamics_start_at_the_first_gates(self):
        # the start's row is never read, but the trace records it; from
        # the last gates the dynamics reach the mirrored equilibrium
        mode = EntanglerMode.DEFECT
        menu = default_menu(mode)
        res = mixed_quantum_equilibrium(PD, 1.0, mode, menu, SearchConfig())
        assert res.method == "support_enumeration"
        assert (res.payoff_I.hex(), res.payoff_II.hex()) == ("0x1.9d6aa025af630p+1",
                                                             "0x1.c52abfb4a13a1p+0")
        assert [[(w.hex(), menu.index(g)) for w, g in s.support]
                for s in (res.strategy_I, res.strategy_II)] == [
            [("0x1.0000000000000p-1", 1), ("0x1.0000000000000p-1", 27)],
            [("0x1.0000000000001p-1", 0), ("0x1.ffffffffffffep-2", 2)]]
        with pytest.raises(ConvergenceError) as err:
            mixed_quantum_equilibrium(PD, 0.8, mode, menu, SearchConfig())
        assert str(err.value).endswith("trace=[(0, 0), (1, 2), (27, 0), (1, 2)]")

    @pytest.mark.numpy_floor
    def test_support_step_bit_identical_to_the_reference(self, monkeypatch):
        """One stacked solve per support pair gives the bytes of one
        solve per player, on the oldest numpy too: on the tables and
        supports of seeded default-menu and random 8-gate solves in both
        modes, constant tables (singular systems) and a zero weight on
        the floor, at eps_nash and with no deviation check; an
        overflowing support solution is the same RangeError."""
        cases = []
        support_step = search._support_equilibria

        def spy(pi, pii, rows, cols, eps):
            cases.append((pi, pii, rows, cols))
            return support_step(pi, pii, rows, cols, eps)

        monkeypatch.setattr(search, "_support_equilibria", spy)
        rng = np.random.default_rng(5101)
        for mode in MODES:
            for gamma in rng.uniform(0, np.pi / 2, 8):
                for menu in (default_menu(mode),
                             [Gate1Q(m) for m in random_b_gates(int(rng.integers(2**32)), 8)]):
                    try:
                        mixed_quantum_equilibrium(PD, gamma, mode, menu, SearchConfig())
                    except ConvergenceError:
                        pass
        monkeypatch.undo()
        assert len(cases) >= 20
        singular, regular = np.ones((3, 3)), np.eye(3)
        cases += [(singular, regular, (0, 1, 2), (0, 1, 2)),
                  (regular, singular, (0, 1, 2), (0, 1, 2)),
                  (np.array([[1.0, 0.0], [1.0, 2.0]]), np.array([[2.0, 3.0], [1.0, 0.0]]),
                   (0, 1), (0, 1))]

        def as_bytes(found):
            return [(x.tobytes(), y.tobytes(), vi.hex(), vii.hex()) for x, y, vi, vii in found]

        mixed = 0
        for pi, pii, rows, cols in cases:
            for eps in (1e-6, np.inf):
                got = as_bytes(search._support_equilibria(pi, pii, rows, cols, eps))
                assert got == as_bytes(reference_support_equilibria(pi, pii, rows, cols, eps))
                mixed += sum(np.count_nonzero(np.frombuffer(x)) > 1 for x, _, _, _ in got)
        assert mixed >= 100

        top = np.finfo(float).max
        huge = Bimatrix([[1.0, 3.0], [1e308, top]], [[top, 1.0], [3.0, 5e-324]])
        mode = EntanglerMode.PAULI_X
        errors = []
        for step in (support_step, reference_support_equilibria):
            monkeypatch.setattr(search, "_support_equilibria", step)
            with np.errstate(all="ignore"), pytest.raises(RangeError) as err:
                mixed_quantum_equilibrium(huge, 0.25358614542561453, mode, default_menu(mode),
                                          SearchConfig())
            errors.append(str(err.value))
        assert errors[0] == errors[1] and "support solution overflows" in errors[0]

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

    def test_support_enumeration_runs_once_when_the_trace_adds_nothing(self, monkeypatch):
        # the trace's first state (0, 0) lies outside the cycle, but its
        # row and column are the cycle's, so widening would repeat the search
        rng = np.random.default_rng(11)
        menu = [Gate1Q(m) for m in strategy_matrix(rng.uniform(0, np.pi / 2, 8),
                                                    rng.uniform(-np.pi, np.pi, 8),
                                                    rng.uniform(-np.pi, np.pi, 8))]
        gamma = rng.uniform(0, np.pi / 2)
        calls = []
        enumerate_supports = search._support_equilibria

        def spy(pi, pii, rows, cols, eps):
            calls.append((tuple(rows), tuple(cols)))
            return enumerate_supports(pi, pii, rows, cols, eps)

        monkeypatch.setattr(search, "_support_equilibria", spy)
        with pytest.raises(ConvergenceError) as err:
            mixed_quantum_equilibrium(PD, gamma, EntanglerMode.DEFECT, menu, FAST)
        assert calls == [((0, 1, 5), (0, 1, 5))]
        assert str(err.value) == (
            "best-response dynamics cycled and no equilibrium was found on the visited "
            "supports; trace=[(0, 0), (1, 5), (0, 1), (5, 0), (1, 5)]")

    def test_pure_fixed_points_have_zero_regret_under_ties(self):
        # the solver returns a fixed point of the dynamics unchecked: each
        # gate is the first exact maximum against the other, so neither
        # player gains exactly 0.0 by any row or column of the table
        constant = Bimatrix(np.full((2, 2), 3.0), np.full((2, 2), 3.0))
        fixed = tied = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            mode = MODES[seed % 2]
            named = canonical_gates(mode)
            base = [named.C, named.D, named.Q, *map(Gate1Q, random_b_gates(seed, 3))]
            phased = [Gate1Q(g.matrix * np.exp(1j * rng.uniform(-np.pi, np.pi)))
                      for g in base[::2]]
            menu = base + base[1::2] + phased
            rng.shuffle(menu)
            game = constant if seed == 0 else Bimatrix(rng.integers(-1, 2, (2, 2)),
                                                      rng.integers(-1, 2, (2, 2)))
            gamma = rng.choice([0.0, np.pi / 4, np.pi / 2, rng.uniform(0, np.pi / 2)])
            try:
                res = mixed_quantum_equilibrium(game, gamma, mode, menu, FAST)
            except ConvergenceError:
                continue
            if res.method != "pure_fixed_point":
                continue
            reps, u = search._dedup_menu(tuple(menu))
            probs = noisy_outcome_probs(gamma, mode, u[:, None], u[None, :], NoiseSpec())
            pi, pii = (probs @ v for v in game.payoff_vectors())
            (_, g1), = res.strategy_I.support
            (_, g2), = res.strategy_II.support
            i, j = reps.index(g1), reps.index(g2)
            assert (res.payoff_I, res.payoff_II) == (pi[i, j], pii[i, j])
            assert pi[:, j].max() - pi[i, j] == 0.0
            assert pii[i, :].max() - pii[i, j] == 0.0
            fixed += 1
            tied += (pi[:, j] == pi[i, j]).sum() > 1 or (pii[i, :] == pii[i, j]).sum() > 1
        assert fixed >= 60 and tied >= 20


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
    @pytest.mark.numpy_floor
    def test_gates_bit_identical_to_a_fresh_build(self, mode):
        """The 28 phase classes of C, D, Q and the 125 grid gates, each
        by its first gate bit for bit, in build order, on the oldest
        numpy too."""
        _, want = reference_dedup([Gate1Q(u) for u in self.uncached(mode)])
        for menu in (default_menu(mode), default_menu(mode)):
            assert len(menu) == len(want) == 28
            assert np.array([g.matrix for g in menu]).tobytes() == want.tobytes()
            assert menu[:3] == list(canonical_gates(mode))

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


def reference_support_equilibria(pi, pii, rows, cols, eps):
    """search's support step as of commit e53c245, verbatim but for the
    names: one bordered solve per player and support pair."""
    found = []
    max_k = min(len(rows), len(cols))
    for k in range(1, max_k + 1):
        for r_sub in itertools.combinations(rows, k):
            for c_sub in itertools.combinations(cols, k):
                eq = reference_solve_support(pi, pii, r_sub, c_sub, eps)
                if eq is not None:
                    found.append(eq)
    return found


def reference_indifferent_mix(table):
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


def reference_solve_support(pi, pii, r_sub, c_sub, eps):
    k = len(r_sub)
    if k == 1:
        x = np.array([1.0])
        y = np.array([1.0])
    else:
        # Column mix makes supported rows indifferent, and vice versa.
        y = reference_indifferent_mix(pi[np.ix_(r_sub, c_sub)])
        x = reference_indifferent_mix(pii[np.ix_(r_sub, c_sub)].T)
        if x is None or y is None:
            return None
        search._require_finite("the support solution", x, y)
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


@pytest.mark.numpy_floor
class TestPhaseCanonicalKeys:
    """Keys are invariant under a global phase and separate gates that
    differ by more than one, on the oldest numpy too."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("points", range(2, 10))
    def test_default_menus(self, mode, points):
        menu = [Gate1Q(u) for u in TestDefaultMenu.uncached(mode, points)]
        reps, stack = search._dedup_menu(tuple(menu))
        want, want_stack = reference_dedup(menu)
        assert len(reps) == len(want) and all(g is w for g, w in zip(reps, want))
        assert stack.tobytes() == want_stack.tobytes()

    @pytest.mark.parametrize("mode", MODES)
    def test_phase_multiples_of_the_default_menu_add_no_representative(self, mode):
        menu = default_menu(mode)
        reps, _ = search._dedup_menu(tuple(menu))
        more, _ = search._dedup_menu(tuple(menu + [Gate1Q(g.matrix * np.exp(0.7j)) for g in menu]))
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
