"""Acceptance gate: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the one-line
pass/fail report per criterion.
"""
from contextlib import contextmanager

import numpy as np

from qgames import (
    EntanglerMode,
    NoiseKind,
    NoiseSpec,
    Player,
    PureProfile,
    SearchConfig,
    StrategyParamsA,
    StrategyParamsB,
    best_correlated,
    best_response,
    canonical_gates,
    canonical_pd,
    default_menu,
    Gate1Q,
    hft_game,
    menu_advantage_experiment,
    mixed_quantum_equilibrium,
    pareto_optimal,
    pure_nash,
    run_protocol,
    advantage_threshold,
    TournamentConfig,
    verify_eps_nash,
)
from qgames.ewl import _PAULIS, _pauli_weights

from circuit import entangled_ket
from kraus import depolarizing_kraus_1q

PD = canonical_pd()
MODES = list(EntanglerMode)
DEFAULT_SEARCH = SearchConfig()  # exact best responses, 64-point candidate grids


@contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {text}")
        raise
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_01_maximally_entangled_state():
    with criterion(1, "J(pi/2) |00> = (1, 0, 0, i)/sqrt(2) within 1e-12"):
        state = entangled_ket(np.pi / 2, EntanglerMode.PAULI_X)
        expected = np.array([1 / np.sqrt(2), 0, 0, 1j / np.sqrt(2)])
        assert np.abs(state - expected).max() < 1e-12


def test_criterion_02_classical_limit_at_gamma_zero():
    with criterion(2, "gamma=0 reproduces the classical payoffs in both modes"):
        expected = {("C", "C"): (3.0, 3.0), ("C", "D"): (0.0, 5.0),
                    ("D", "C"): (5.0, 0.0), ("D", "D"): (1.0, 1.0)}
        for mode in MODES:
            named = canonical_gates(mode)
            gates = {"C": named.C, "D": named.D}
            for (n1, n2), (want_i, want_ii) in expected.items():
                r = run_protocol(PD, 0.0, mode, gates[n1], gates[n2])
                assert abs(r.payoff_I - want_i) < 1e-12
                assert abs(r.payoff_II - want_ii) < 1e-12


def test_criterion_03_classical_embedding_at_full_entanglement():
    with criterion(3, "canonical defect embeds classically at gamma=pi/2; "
                      "cross-mode discrepancy pinned"):
        expected = {("C", "C"): (3.0, 3.0), ("C", "D"): (0.0, 5.0),
                    ("D", "C"): (5.0, 0.0), ("D", "D"): (1.0, 1.0)}
        for mode in MODES:
            named = canonical_gates(mode)
            gates = {"C": named.C, "D": named.D}
            for (n1, n2), (want_i, want_ii) in expected.items():
                r = run_protocol(PD, np.pi / 2, mode, gates[n1], gates[n2])
                assert abs(r.payoff_I - want_i) < 1e-12
                assert abs(r.payoff_II - want_ii) < 1e-12
        # set-A defect under the pauli_x generator misattributes defection
        named = canonical_gates(EntanglerMode.PAULI_X)
        d_set_a = StrategyParamsA(np.pi / 2, 0.0).gate()
        r = run_protocol(PD, np.pi / 2, EntanglerMode.PAULI_X, named.C, d_set_a)
        assert abs(r.payoff_I - 5.0) < 1e-12 and abs(r.payoff_II - 0.0) < 1e-12


def test_criterion_04_quantum_solution():
    with criterion(4, "(Q,Q) pays (3,3) and is a set-A equilibrium at 1e-6 "
                      "(exact eigen best response, defect-generator mode)"):
        for mode in MODES:
            named = canonical_gates(mode)
            r = run_protocol(PD, np.pi / 2, mode, named.Q, named.Q)
            assert abs(r.payoff_I - 3.0) < 1e-9 and abs(r.payoff_II - 3.0) < 1e-9
        named = canonical_gates(EntanglerMode.DEFECT)
        ok, improvement = verify_eps_nash(PD, np.pi / 2, EntanglerMode.DEFECT,
                                          named.Q, named.Q, "A", DEFAULT_SEARCH)
        assert ok and improvement <= 1e-6


def test_criterion_05_dilemma_restored_in_full_space():
    with criterion(5, "best response to Q in set B exceeds 3.5 (pinned at 5)"):
        for mode in MODES:
            named = canonical_gates(mode)
            br = best_response(PD, np.pi / 2, mode, named.Q, Player.I, "B")
            assert br.payoff > 3.5
            assert abs(br.payoff - 5.0) < 1e-6  # oracle-pinned optimum
            _, improvement = verify_eps_nash(PD, np.pi / 2, mode, named.Q, named.Q, "B",
                                             DEFAULT_SEARCH)
            assert improvement > 1.9


def test_criterion_06_mixed_quantum_equilibrium():
    with criterion(6, "default set-B menu equilibrium pays (2.5, 2.5) +/- 0.05 "
                      "with no profitable menu deviation at 1e-6"):
        mode = EntanglerMode.DEFECT
        menu = default_menu(mode)
        res = mixed_quantum_equilibrium(PD, np.pi / 2, mode, menu, DEFAULT_SEARCH)
        assert abs(res.payoff_I - 2.5) <= 0.05
        assert abs(res.payoff_II - 2.5) <= 0.05
        for g in menu:  # independent no-deviation check over the menu
            dev_i = sum(w * run_protocol(PD, np.pi / 2, mode, g, v).payoff_I
                        for w, v in res.strategy_II.support)
            dev_ii = sum(w * run_protocol(PD, np.pi / 2, mode, u, g).payoff_II
                         for w, u in res.strategy_I.support)
            assert dev_i <= res.payoff_I + 1e-6
            assert dev_ii <= res.payoff_II + 1e-6


def test_criterion_07_classical_baseline():
    with criterion(7, "pure Nash (D,D); Pareto set of 3; best correlated "
                      "equilibrium is the (D,D) point mass"):
        assert pure_nash(PD) == [PureProfile(1, 1)]
        assert pareto_optimal(PD) == [PureProfile(0, 0), PureProfile(0, 1),
                                      PureProfile(1, 0)]
        mu = best_correlated(PD, "welfare")
        assert np.abs(mu.probs - np.array([0, 0, 0, 1])).max() < 1e-12
        a, b = PD.payoff_vectors()
        assert abs(float(mu.probs @ (a + b)) - 2.0) < 1e-12


def test_criterion_08_hft_mapping():
    with criterion(8, "hft game is the relabeled dilemma with Nash "
                      "(Sell, Sell) = (1, 1)"):
        h = hft_game()
        assert np.array_equal(h.row_payoffs, PD.row_payoffs)
        assert np.array_equal(h.col_payoffs, PD.col_payoffs)
        assert (h.row_labels, h.col_labels) == (("Buy", "Sell"), ("Buy", "Sell"))
        profiles = pure_nash(h)
        assert profiles == [PureProfile(1, 1)]
        assert h.row_labels[1] == "Sell" and h.cell(1, 1) == (1.0, 1.0)


def test_criterion_09_noise_endpoints_and_threshold():
    with criterion(9, "two-qubit depolarizing endpoints exact; threshold "
                      "exact and reproducible (pinned 2/3)"):
        named = canonical_gates(EntanglerMode.DEFECT)
        full = run_protocol(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q, named.Q,
                            NoiseSpec(kind=NoiseKind.TWO_QUBIT_DEPOLARIZING, p=1.0))
        assert abs(full.payoff_I - 2.25) < 1e-12 and abs(full.payoff_II - 2.25) < 1e-12
        clean = run_protocol(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q, named.Q)
        for kind in (NoiseKind.NONE, NoiseKind.PER_QUBIT_DEPOLARIZING,
                     NoiseKind.TWO_QUBIT_DEPOLARIZING):
            zero = run_protocol(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q,
                                named.Q, NoiseSpec(kind=kind, p=0.0))
            assert np.abs(zero.distribution.probs - clean.distribution.probs).max() < 1e-12
        cfg = SearchConfig(grid_resolution=16, eps_nash=1e-6)
        runs = [advantage_threshold(PD, EntanglerMode.DEFECT,
                                    NoiseKind.TWO_QUBIT_DEPOLARIZING, cfg)
                for _ in range(2)]
        assert runs[0].found and runs[1].found
        assert runs[0].p_star == runs[1].p_star
        assert abs(runs[0].p_star - 2 / 3) < 1e-12


def test_criterion_10_property_suites():
    with criterion(10, "unitarity, norm, trace/positivity, phase invariance, "
                       "and B>=A dominance: 500 seeded cases each, zero failures"):
        rng = np.random.default_rng(1009)

        # unitarity of parametric strategy gates at 1e-12
        for _ in range(500):
            g = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            assert np.abs(g.matrix.conj().T @ g.matrix - np.eye(2)).max() < 1e-12

        # norm preservation through the full circuit at 1e-10
        for _ in range(500):
            u = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            v = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            mode = MODES[int(rng.integers(2))]
            r = run_protocol(PD, rng.uniform(0, np.pi / 2), mode, u, v)
            assert abs(np.abs(r.final_state.amps ** 2).sum() - 1.0) < 1e-10

        # the library's channels, sum_ab w_ab (P_a x P_b) rho (P_a x P_b)-dagger,
        # preserve trace and positivity at 1e-9
        kinds = (NoiseKind.PER_QUBIT_DEPOLARIZING, NoiseKind.TWO_QUBIT_DEPOLARIZING)
        paulis = [np.kron(a, b) for a in _PAULIS for b in _PAULIS]
        for _ in range(500):
            z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = (z @ z.conj().T) / np.trace(z @ z.conj().T).real
            w = _pauli_weights(NoiseSpec(kind=kinds[int(rng.integers(2))],
                                         p=float(rng.uniform(0, 1))))
            out = sum(wk * op @ rho @ op.conj().T for wk, op in zip(w.ravel(), paulis))
            assert np.abs(out - out.conj().T).max() < 1e-9
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out).min() > -1e-9

        # global phases never change the outcome distribution
        for _ in range(500):
            u = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            v = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            gamma = rng.uniform(0, np.pi / 2)
            mode = MODES[int(rng.integers(2))]
            base = run_protocol(PD, gamma, mode, u, v).distribution.probs
            phased = Gate1Q(np.exp(1j * rng.uniform(-np.pi, np.pi)) * u.matrix)
            got = run_protocol(PD, gamma, mode, phased, v).distribution.probs
            assert np.abs(got - base).max() < 1e-12

        # widening the strategy space never hurts the best response
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

        # sanity for the Kraus set itself: completeness sum is identity
        for p in np.linspace(0, 1, 11):
            ks = depolarizing_kraus_1q(float(p))
            total = sum(k.conj().T @ k for k in ks)
            assert np.abs(total - np.eye(2)).max() < 1e-12


def test_criterion_11_tournament_menu_advantage():
    with criterion(11, "quantum-menu learners beat classical-menu learners "
                       "over the final 1000 of 10000 rounds; rerun identical"):
        game = hft_game()
        cfg = TournamentConfig(rounds=10000, gamma=np.pi / 2,
                               mode=EntanglerMode.DEFECT, seed=0)
        report = menu_advantage_experiment(game, cfg)
        assert report.tail_window == 1000
        c_tail = report.classical_tail_mean
        q_tail = report.quantum_tail_mean
        assert abs(c_tail[0] - 1.0) <= 0.2 and abs(c_tail[1] - 1.0) <= 0.2
        assert q_tail[0] > c_tail[0] and q_tail[1] > c_tail[1]
        rerun = menu_advantage_experiment(game, cfg)
        assert (rerun.quantum.rows, rerun.quantum.log) == (report.quantum.rows, report.quantum.log)
        assert ((rerun.classical.rows, rerun.classical.log)
                == (report.classical.rows, report.classical.log))
