"""Tests for the iterated-play tournament harness.

On the oldest numpy too (numpy_floor): hft._Stream restates numpy's
PCG64 double and bounded-integer rules, and hft.play_tournament's one
round loop must equal the class-per-agent reference
(tests/tournament_ref.py) exactly.
"""
import hashlib
import random

import numpy as np
import pytest

from qgames import (
    AgentKind,
    AgentSpec,
    Bimatrix,
    EntanglerMode,
    NamedGate,
    TournamentConfig,
    canonical_gates,
    hft_game,
    menu_advantage_experiment,
    play_tournament,
)
from qgames import hft
from qgames.errors import RangeError, ValidationError

pytestmark = pytest.mark.numpy_floor

GAME = hft_game()
NAMED = canonical_gates(EntanglerMode.DEFECT)
C, D, Q = (NamedGate("C", NAMED.C), NamedGate("D", NAMED.D), NamedGate("Q", NAMED.Q))


def fixed(gate):
    return AgentSpec(kind=AgentKind.FIXED, menu=(gate,))


def grim(coop, punish, threshold=0.5):
    return AgentSpec(kind=AgentKind.GRIM_TRIGGER, menu=(coop, punish),
                     trigger_threshold=threshold)


def bandit(menu, epsilon=0.1, lr=0.1):
    return AgentSpec(kind=AgentKind.EPSILON_GREEDY_BANDIT, menu=menu,
                     epsilon=epsilon, learning_rate=lr)


def rounds(result):
    """The RoundRow of each round: rows[log[k]] for round k."""
    return [result.rows[code] for code in result.log]


class TestSpecs:
    def test_menu_must_be_nonempty(self):
        with pytest.raises(ValidationError):
            AgentSpec(kind=AgentKind.FIXED, menu=())

    def test_kind_and_menu_entries_are_type_checked(self):
        with pytest.raises(ValidationError) as info:
            AgentSpec(kind="fixed", menu=(C,))
        assert str(info.value) == "kind must be an AgentKind, got 'fixed'"
        with pytest.raises(ValidationError) as info:
            AgentSpec(kind=AgentKind.FIXED, menu=(NAMED.C,))
        assert str(info.value) == f"menu entry must be a NamedGate, got {NAMED.C!r}"

    def test_menu_entry_names_are_str(self):
        # a name is what a round's gate_I or gate_II shows
        with pytest.raises(ValidationError) as info:
            AgentSpec(kind=AgentKind.FIXED, menu=(NamedGate(5, NAMED.C),))
        assert str(info.value) == "menu entry name must be a str, got 5"

    def test_mode_is_an_entangler_mode(self):
        with pytest.raises(ValidationError) as info:
            TournamentConfig(rounds=5, mode="defect")
        assert str(info.value) == "mode must be an EntanglerMode, got 'defect'"

    def test_noise_is_a_noise_spec(self):
        with pytest.raises(ValidationError) as info:
            TournamentConfig(rounds=5, noise="x")
        assert str(info.value) == "noise must be a NoiseSpec, got 'x'"

    @pytest.mark.parametrize("call, message", [
        (lambda: play_tournament("pd", fixed(C), fixed(C), TournamentConfig(rounds=1)),
         "game must be a Bimatrix, got 'pd'"),
        (lambda: play_tournament(GAME, C, fixed(C), TournamentConfig(rounds=1)),
         f"a1 must be an AgentSpec, got {C!r}"),
        (lambda: play_tournament(GAME, fixed(C), None, TournamentConfig(rounds=1)),
         "a2 must be an AgentSpec, got None"),
        (lambda: play_tournament(GAME, fixed(C), fixed(C), {"rounds": 1}),
         "cfg must be a TournamentConfig, got {'rounds': 1}"),
        (lambda: menu_advantage_experiment(np.zeros((2, 2)), TournamentConfig(rounds=1)),
         f"game must be a Bimatrix, got {np.zeros((2, 2))!r}"),
        (lambda: menu_advantage_experiment(GAME, 100),
         "cfg must be a TournamentConfig, got 100"),
    ], ids=["play-game", "play-a1", "play-a2", "play-cfg", "advantage-game", "advantage-cfg"])
    def test_arguments_are_type_checked(self, call, message):
        # each once escaped as a bare AttributeError from the first use
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message

    def test_epsilon_range(self):
        with pytest.raises(RangeError):
            AgentSpec(kind=AgentKind.EPSILON_GREEDY_BANDIT, menu=(C,), epsilon=1.5)

    def test_rounds_validated(self):
        with pytest.raises(RangeError):
            TournamentConfig(rounds=0)

    def test_rounds_and_seed_are_integers(self):
        # a float seed once passed here, and failed only where a draw was made
        for bad in (2.5, 100.0, "100"):
            with pytest.raises(ValidationError, match="rounds must be an integer"):
                TournamentConfig(rounds=bad)
            with pytest.raises(ValidationError, match="seed must be an integer"):
                TournamentConfig(rounds=100, seed=bad)
        cfg = TournamentConfig(rounds=np.int32(100), seed=np.uint64(7))
        assert type(cfg.rounds) is int and type(cfg.seed) is int
        assert play_tournament(GAME, fixed(Q), fixed(Q), cfg).mean_payoff_I == 3.0


class TestFixedAgents:
    def test_two_fixed_q_agents_mean_3(self):
        cfg = TournamentConfig(rounds=100, gamma=np.pi / 2,
                               mode=EntanglerMode.DEFECT, seed=7)
        res = play_tournament(GAME, fixed(Q), fixed(Q), cfg)
        assert len(res.log) == 100
        assert abs(res.mean_payoff_I - 3.0) < 1e-12
        assert abs(res.mean_payoff_II - 3.0) < 1e-12

    def test_zero_variance_without_sampling(self):
        cfg = TournamentConfig(rounds=50, gamma=np.pi / 2,
                               mode=EntanglerMode.DEFECT, seed=1)
        res = play_tournament(GAME, fixed(C), fixed(D), cfg)
        payoffs = {(r.payoff_I, r.payoff_II) for r in rounds(res)}
        assert len(payoffs) == 1

    def test_noisy_tournament_rounds(self):
        from qgames import NoiseKind, NoiseSpec
        cfg = TournamentConfig(rounds=25, gamma=np.pi / 2, mode=EntanglerMode.DEFECT,
                               seed=1, noise=NoiseSpec(
                               kind=NoiseKind.TWO_QUBIT_DEPOLARIZING, p=1.0))
        res = play_tournament(GAME, fixed(Q), fixed(Q), cfg)
        assert abs(res.mean_payoff_I - 2.25) < 1e-12
        for r in rounds(res):
            assert np.abs(np.array(r.distribution) - 0.25).max() < 1e-12

    def test_noisy_menu_table_matches_per_pair_runs(self):
        from qgames import NoiseKind, NoiseSpec, StrategyParamsB, run_protocol
        x = NamedGate("X", StrategyParamsB(0.7, 1.2, -0.4).gate())
        noise = NoiseSpec(kind=NoiseKind.PER_QUBIT_DEPOLARIZING, p=0.2)
        cfg = TournamentConfig(rounds=200, gamma=1.0, mode=EntanglerMode.PAULI_X, seed=5,
                               noise=noise)
        menu = (C, D, Q, x)
        gates = {g.name: g.gate for g in menu}
        res = play_tournament(GAME, bandit(menu, epsilon=0.5), bandit(menu, epsilon=0.5), cfg)
        assert len({(r.gate_I, r.gate_II) for r in rounds(res)}) > 8
        for r in rounds(res):
            want = run_protocol(GAME, 1.0, EntanglerMode.PAULI_X, gates[r.gate_I],
                                gates[r.gate_II], noise)
            assert np.abs(np.array(r.distribution) - want.distribution.probs).max() < 1e-12
            assert abs(r.payoff_I - want.payoff_I) < 1e-12
            assert abs(r.payoff_II - want.payoff_II) < 1e-12

    def test_record_payoffs_match_distribution(self):
        cfg = TournamentConfig(rounds=10, gamma=1.0, mode=EntanglerMode.PAULI_X, seed=3)
        res = play_tournament(GAME, fixed(C), fixed(Q), cfg)
        a, b = GAME.payoff_vectors()
        for r in rounds(res):
            dist = np.array(r.distribution)
            assert abs(r.payoff_I - float(dist @ a)) < 1e-12
            assert abs(r.payoff_II - float(dist @ b)) < 1e-12


class TestTriggerAgents:
    def test_mutual_grim_cooperation_sustained(self):
        cfg = TournamentConfig(rounds=200, gamma=np.pi / 2,
                               mode=EntanglerMode.DEFECT, seed=5)
        res = play_tournament(GAME, grim(NamedGate("Q", NAMED.Q), D),
                              grim(NamedGate("Q", NAMED.Q), D), cfg)
        assert all(r.gate_I == "Q" and r.gate_II == "Q" for r in rounds(res))
        assert abs(res.mean_payoff_I - 3.0) < 1e-12

    def test_grim_vs_defector_triggers_on_first_observation(self):
        cfg = TournamentConfig(rounds=2000, gamma=0.0,
                               mode=EntanglerMode.DEFECT, seed=5)
        res = play_tournament(GAME, grim(C, D), fixed(D), cfg)
        assert rounds(res)[0].gate_I == "C"
        assert all(r.gate_I == "D" for r in rounds(res)[1:])
        # round 1 pays (0,5); every later round (1,1): mean approaches 1
        assert abs(res.mean_payoff_I - (0.0 + (cfg.rounds - 1) * 1.0) / cfg.rounds) < 1e-12
        assert 0.99 < res.mean_payoff_I < 1.0

    def test_grim_never_defects_before_threshold(self):
        cfg = TournamentConfig(rounds=100, gamma=np.pi / 2,
                               mode=EntanglerMode.DEFECT, seed=5)
        res = play_tournament(GAME, grim(C, D), fixed(C), cfg)
        # opponent cooperates forever: the trigger must never fire
        assert all(r.gate_I == "C" for r in rounds(res))
        for r in rounds(res):
            assert r.distribution[1] + r.distribution[3] <= 0.5

    def test_tit_for_tat_forgives(self):
        tft = AgentSpec(kind=AgentKind.TIT_FOR_TAT, menu=(C, D))
        cfg = TournamentConfig(rounds=50, gamma=0.0, mode=EntanglerMode.DEFECT, seed=2)
        res = play_tournament(GAME, tft, fixed(C), cfg)
        assert all(r.gate_I == "C" for r in rounds(res))
        res = play_tournament(GAME, tft, fixed(D), cfg)
        assert rounds(res)[0].gate_I == "C"
        assert all(r.gate_I == "D" for r in rounds(res)[1:])


class TestReproducibility:
    def test_bit_identical_reruns_with_sampling(self):
        cfg = TournamentConfig(rounds=500, gamma=np.pi / 2, mode=EntanglerMode.DEFECT,
                               seed=123, sampled_outcomes=True)
        a = play_tournament(GAME, bandit((C, D, Q)), bandit((C, D, Q)), cfg)
        b = play_tournament(GAME, bandit((C, D, Q)), bandit((C, D, Q)), cfg)
        assert (a.rows, a.log) == (b.rows, b.log)
        assert a.mean_payoff_I == b.mean_payoff_I

    def test_sampled_payoffs_are_cell_values(self):
        cfg = TournamentConfig(rounds=200, gamma=np.pi / 2, mode=EntanglerMode.DEFECT,
                               seed=11, sampled_outcomes=True)
        res = play_tournament(GAME, fixed(Q), fixed(D), cfg)
        cells = {GAME.cell(i, j) for i in range(2) for j in range(2)}
        for r in rounds(res):
            assert r.sampled_outcome in (0, 1, 2, 3)
            assert (r.payoff_I, r.payoff_II) in cells

    def test_mean_payoffs_bounded(self):
        cfg = TournamentConfig(rounds=300, gamma=1.2, mode=EntanglerMode.PAULI_X,
                               seed=9, sampled_outcomes=True)
        res = play_tournament(GAME, bandit((C, D, Q), epsilon=0.5), bandit((C, D)), cfg)
        assert 0.0 <= res.mean_payoff_I <= 5.0
        assert 0.0 <= res.mean_payoff_II <= 5.0

    def test_random_stream_order_pinned(self):
        # agent 1's draws, agent 2's, then the outcome draw, every round
        cfg = TournamentConfig(rounds=2000, gamma=1.2, mode=EntanglerMode.PAULI_X,
                               seed=2024, sampled_outcomes=True)
        res = play_tournament(GAME, bandit((C, D, Q), epsilon=0.3, lr=0.2),
                              bandit((Q, C), epsilon=0.15, lr=0.4), cfg)
        log = "\n".join(f"{r.gate_I},{r.gate_II},{r.sampled_outcome}" for r in rounds(res))
        assert hashlib.sha256(log.encode()).hexdigest() == (
            "3221682533d488935a10f98217ef7df96c4af53bbad3788b2c11375a60908b06")
        assert (res.mean_payoff_I, res.mean_payoff_II) == (2.514, 2.824)


class TestBanditTies:
    def test_equal_values_pick_the_first_menu_entry(self):
        zero = Bimatrix(row_payoffs=np.zeros((2, 2)), col_payoffs=np.zeros((2, 2)))
        cfg = TournamentConfig(rounds=50, gamma=1.0, mode=EntanglerMode.DEFECT, seed=8)
        res = play_tournament(zero, bandit((D, Q, C), epsilon=0.0), fixed(C), cfg)
        assert all(r.gate_I == "D" for r in rounds(res))

    def test_first_of_tied_maxima(self):
        # gamma 0 plays the gates classically: against C, the arm C pays -2
        # and both D arms -1, so with learning rate 1 the values read
        # [-2, 0, 0] after round 1 and [-2, -1, -1] after round 3
        game = Bimatrix(row_payoffs=[[-2.0, 0.0], [-1.0, 0.0]], col_payoffs=np.zeros((2, 2)))
        menu = (C, D, NamedGate("D2", NAMED.D))
        cfg = TournamentConfig(rounds=6, gamma=0.0, mode=EntanglerMode.DEFECT, seed=0)
        res = play_tournament(game, bandit(menu, epsilon=0.0, lr=1.0), fixed(C), cfg)
        assert [r.gate_I for r in rounds(res)] == ["C", "D", "D2", "D", "D", "D"]


class TestMenuAdvantage:
    def test_quantum_menu_beats_classical_menu(self):
        cfg = TournamentConfig(rounds=10000, gamma=np.pi / 2,
                               mode=EntanglerMode.DEFECT, seed=0)
        report = menu_advantage_experiment(GAME, cfg)
        assert report.tail_window == 1000
        q_tail = report.quantum_tail_mean
        c_tail = report.classical_tail_mean
        # defect-dominant learning in the classical condition
        assert abs(c_tail[0] - 1.0) <= 0.2 and abs(c_tail[1] - 1.0) <= 0.2
        assert q_tail[0] > c_tail[0] and q_tail[1] > c_tail[1]

    def test_rerun_is_bit_identical(self):
        cfg = TournamentConfig(rounds=3000, gamma=np.pi / 2,
                               mode=EntanglerMode.DEFECT, seed=0)
        r1 = menu_advantage_experiment(GAME, cfg)
        r2 = menu_advantage_experiment(GAME, cfg)
        assert (r1.quantum.rows, r1.quantum.log) == (r2.quantum.rows, r2.quantum.log)
        assert (r1.classical.rows, r1.classical.log) == (r2.classical.rows, r2.classical.log)
        assert r1.quantum_tail_mean == r2.quantum_tail_mean

    def test_single_round_single_record(self):
        cfg = TournamentConfig(rounds=1, gamma=np.pi / 2,
                               mode=EntanglerMode.DEFECT, seed=4)
        report = menu_advantage_experiment(GAME, cfg)
        assert len(report.quantum.log) == 1
        assert len(report.classical.log) == 1


class TestStream:
    """hft._Stream against numpy itself: default_rng(seed) is the reference."""

    @pytest.mark.parametrize("block_words", [hft._BLOCK_WORDS, 5])
    @pytest.mark.parametrize("plan_seed", range(10))
    def test_draws_match_default_rng(self, monkeypatch, block_words, plan_seed):
        # a small block puts refills mid-plan, between and inside integer draws
        monkeypatch.setattr(hft, "_BLOCK_WORDS", block_words)
        plan = random.Random(plan_seed)
        seed = plan.randrange(2**63)
        ours, ref = hft._Stream(seed), np.random.default_rng(seed)
        for step in range(plan.randrange(5000, 10000)):
            if plan.random() < 0.5:
                assert ours.random() == ref.random(), step
            else:
                # n near 2**32 rejects up to half of the 32-bit draws
                n = (plan.choice((1, 2, 3, 5)) if plan.random() < 0.7
                     else plan.choice((2**31, plan.randrange(2**31, 2**32), 2**32 - 1)))
                assert ours.integers(n) == ref.integers(n), step


def _agent(kind, menu):
    return AgentSpec(kind=kind, menu=menu, epsilon=0.3, trigger_threshold=0.4)


class TestTournamentMatchesDefaultRng:
    """play_tournament on hft._Stream gives the log it gives on
    numpy.random.default_rng itself."""

    @pytest.mark.parametrize("kind_2", list(AgentKind))
    @pytest.mark.parametrize("kind_1", list(AgentKind))
    def test_same_rows_log_and_means(self, monkeypatch, kind_1, kind_2):
        from qgames import NoiseKind, NoiseSpec, StrategyParamsB
        x = NamedGate("B(0.7, 1.2, -0.4)", StrategyParamsB(0.7, 1.2, -0.4).gate())
        gates = (Q, D, C, x)
        monkeypatch.setattr(hft, "_BLOCK_WORDS", 61)  # refills fall mid-tournament
        for sampled in (False, True):
            for noise in (NoiseSpec(), NoiseSpec(kind=NoiseKind.PER_QUBIT_DEPOLARIZING, p=0.3)):
                for size in range(1, 5):
                    a1 = _agent(kind_1, gates[:size])
                    a2 = _agent(kind_2, gates[size - 1:])  # sizes 1..4 against 4..1
                    cfg = TournamentConfig(rounds=400, gamma=1.1, mode=EntanglerMode.PAULI_X,
                                           noise=noise, seed=size, sampled_outcomes=sampled)
                    ours = play_tournament(GAME, a1, a2, cfg)
                    with monkeypatch.context() as m:
                        m.setattr(hft, "_Stream", np.random.default_rng)
                        ref = play_tournament(GAME, a1, a2, cfg)
                    assert ours == ref, (sampled, noise, size)


def _random_agent(plan, kind, menu):
    """An agent with epsilon, learning rate and threshold drawn from plan,
    each taking its end values (epsilon 0 or 1, rate 1, threshold 0 or 1)
    in about a third of the draws."""
    return AgentSpec(kind=kind, menu=menu,
                     epsilon=plan.choice((0.0, 1.0, plan.random())),
                     learning_rate=plan.choice((1.0, 1.0 - plan.random())),
                     trigger_threshold=plan.choice((0.0, 1.0, plan.random())))


class TestLoopMatchesReference:
    """play_tournament against the class-per-agent loop of
    tests/tournament_ref.py, on the same stream."""

    @pytest.mark.parametrize("kind_2", list(AgentKind))
    @pytest.mark.parametrize("kind_1", list(AgentKind))
    def test_same_rows_log_and_means(self, monkeypatch, kind_1, kind_2):
        from qgames import NoiseKind, NoiseSpec, StrategyParamsB
        from tournament_ref import play_tournament_ref

        monkeypatch.setattr(hft, "_BLOCK_WORDS", 37)  # refills fall mid-tournament
        plan = random.Random(f"{kind_1.value}:{kind_2.value}")
        x = NamedGate("X", StrategyParamsB(0.7, 1.2, -0.4).gate())
        gates = [C, D, Q, x]
        for sampled in (False, True):
            for noise in (NoiseSpec(), NoiseSpec(kind=NoiseKind.TWO_QUBIT_DEPOLARIZING,
                                                 p=plan.random())):
                for size in range(1, 5):
                    a1 = _random_agent(plan, kind_1, tuple(plan.sample(gates, size)))
                    a2 = _random_agent(plan, kind_2, tuple(plan.sample(gates, plan.randint(1, 4))))
                    cfg = TournamentConfig(rounds=300, gamma=plan.uniform(0, np.pi / 2),
                                           mode=plan.choice(list(EntanglerMode)), noise=noise,
                                           seed=plan.randrange(2**32), sampled_outcomes=sampled)
                    want = play_tournament_ref(GAME, a1, a2, cfg, hft._Stream(cfg.seed))
                    assert play_tournament(GAME, a1, a2, cfg) == want, (sampled, noise, a1, a2)
