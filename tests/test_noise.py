"""Tests for noisy protocol runs, sweeps, and the advantage threshold."""
import numpy as np
import pytest

from qgames import (
    Bimatrix,
    ChannelLocation,
    EntanglerMode,
    Gate1Q,
    MixedQuantumStrategy,
    NoiseKind,
    NoiseSpec,
    SearchConfig,
    StrategyParamsB,
    advantage_threshold,
    canonical_gates,
    canonical_pd,
    gamma_sweep,
    hft_game,
    outcome_amplitudes,
    run_protocol,
    run_protocol_mixed,
    run_protocol_noisy,
    verify_eps_nash,
)
from qgames.errors import ConvergenceError, RangeError, ValidationError
from qgames.ewl import _PAULIS, _pauli_weights, strategy_matrix
from qgames.search import symmetric_equilibrium_gate

from kraus import apply_channel, kraus_probs

PD = canonical_pd()
MODES = list(EntanglerMode)
SEARCH = SearchConfig(grid_resolution=16, eps_nash=1e-6)


def random_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def pauli_channel(rho, spec):
    """The library's channel on a density matrix: the sum over a, b of
    w_ab (P_a x P_b) rho (P_a x P_b)-dagger, with its own Paulis and weights."""
    ops = [np.kron(a, b) for a in _PAULIS for b in _PAULIS]
    return sum(w * op @ rho @ op.conj().T for w, op in zip(_pauli_weights(spec).ravel(), ops))


def random_gate(rng):
    return StrategyParamsB(rng.uniform(0, np.pi / 2),
                           rng.uniform(-np.pi, np.pi),
                           rng.uniform(-np.pi, np.pi)).gate()


def random_mixture(rng):
    """A mixture of 1 to 3 random gates with random weights."""
    n = int(rng.integers(1, 4))
    return MixedQuantumStrategy(zip(rng.dirichlet(np.ones(n)),
                                    [random_gate(rng) for _ in range(n)]))


class TestNoiseSpec:
    def test_probability_range(self):
        with pytest.raises(RangeError):
            NoiseSpec(kind=NoiseKind.TWO_QUBIT_DEPOLARIZING, p=1.5)
        with pytest.raises(RangeError):
            NoiseSpec(kind=NoiseKind.PER_QUBIT_DEPOLARIZING, p=-0.1)

    def test_kind_type_checked(self):
        with pytest.raises(ValidationError):
            NoiseSpec(kind="two_qubit_depolarizing", p=0.5)

    def test_location_type_checked(self):
        with pytest.raises(ValidationError) as info:
            NoiseSpec(location="return")
        assert str(info.value) == "location must be a ChannelLocation, got 'return'"

    def test_invalid_spec_rejected_by_runner(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        with pytest.raises(ValidationError):
            run_protocol_noisy(PD, 0.0, EntanglerMode.DEFECT, named.C, named.C,
                               {"kind": "none"})


class TestChannels:
    def test_noiseless_matches_pure_protocol_exactly(self):
        rng = np.random.default_rng(50)
        spec = NoiseSpec(kind=NoiseKind.NONE)
        for _ in range(100):
            u, v = random_gate(rng), random_gate(rng)
            gamma = rng.uniform(0, np.pi / 2)
            mode = MODES[int(rng.integers(2))]
            pure = run_protocol(PD, gamma, mode, u, v)
            noisy = run_protocol_noisy(PD, gamma, mode, u, v, spec)
            assert np.abs(noisy.distribution.probs - pure.distribution.probs).max() < 1e-12

    def test_p_zero_of_any_kind_is_noiseless(self):
        rng = np.random.default_rng(51)
        for kind in (NoiseKind.PER_QUBIT_DEPOLARIZING, NoiseKind.TWO_QUBIT_DEPOLARIZING):
            for _ in range(50):
                u, v = random_gate(rng), random_gate(rng)
                gamma = rng.uniform(0, np.pi / 2)
                mode = MODES[int(rng.integers(2))]
                pure = run_protocol(PD, gamma, mode, u, v)
                noisy = run_protocol_noisy(PD, gamma, mode, u, v,
                                           NoiseSpec(kind=kind, p=0.0))
                assert np.abs(noisy.distribution.probs - pure.distribution.probs).max() < 1e-12

    def test_full_two_qubit_depolarizing_is_uniform(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        spec = NoiseSpec(kind=NoiseKind.TWO_QUBIT_DEPOLARIZING, p=1.0)
        r = run_protocol_noisy(PD, np.pi / 2, EntanglerMode.DEFECT,
                               named.Q, named.Q, spec)
        assert np.abs(r.distribution.probs - 0.25).max() < 1e-12
        assert abs(r.payoff_I - 9 / 4) < 1e-12 and abs(r.payoff_II - 9 / 4) < 1e-12

    def test_per_qubit_noisy_qq_pinned_value(self):
        # exact Kraus evaluation gives 211/75 at p=0.1 (between 9/4 and 3)
        spec = NoiseSpec(kind=NoiseKind.PER_QUBIT_DEPOLARIZING, p=0.1)
        for mode in MODES:
            named = canonical_gates(mode)
            r = run_protocol_noisy(PD, np.pi / 2, mode, named.Q, named.Q, spec)
            assert abs(r.payoff_I - 211 / 75) < 1e-9
            assert 9 / 4 < r.payoff_I < 3.0
            assert 9 / 4 < r.payoff_II < 3.0

    def test_trace_and_positivity_preserved_500_cases(self):
        rng = np.random.default_rng(4040)
        kinds = (NoiseKind.PER_QUBIT_DEPOLARIZING, NoiseKind.TWO_QUBIT_DEPOLARIZING)
        for _ in range(500):
            rho = random_density(rng)
            spec = NoiseSpec(kind=kinds[int(rng.integers(2))],
                             p=float(rng.uniform(0, 1)))
            out = pauli_channel(rho, spec)
            assert np.abs(out - apply_channel(rho, spec.kind, spec.p)).max() < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-9
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out).min() >= -1e-9

    def test_positivity_along_protocol_steps(self):
        rng = np.random.default_rng(60)
        for p in np.linspace(0, 1, 11):
            spec = NoiseSpec(kind=NoiseKind.PER_QUBIT_DEPOLARIZING, p=float(p))
            u, v = random_gate(rng), random_gate(rng)
            r = run_protocol_noisy(PD, np.pi / 3, EntanglerMode.DEFECT, u, v, spec)
            assert abs(r.distribution.probs.sum() - 1.0) < 1e-9

    def test_noisy_payoffs_stay_in_cell_range(self):
        rng = np.random.default_rng(61)
        for _ in range(200):
            spec = NoiseSpec(
                kind=(NoiseKind.PER_QUBIT_DEPOLARIZING, NoiseKind.TWO_QUBIT_DEPOLARIZING,
                      NoiseKind.NONE)[int(rng.integers(3))],
                p=float(rng.uniform(0, 1)),
                location=(ChannelLocation.RETURN, ChannelLocation.FORWARD)[int(rng.integers(2))])
            r = run_protocol_noisy(PD, rng.uniform(0, np.pi / 2),
                                   MODES[int(rng.integers(2))],
                                   random_gate(rng), random_gate(rng), spec)
            assert -1e-12 <= r.payoff_I <= 5 + 1e-12
            assert -1e-12 <= r.payoff_II <= 5 + 1e-12

    def test_depolarizing_locations_coincide(self):
        # Depolarizing channels are unitarily covariant, so they commute
        # with the players' local gates: the forward and return insertion
        # points are equivalent for both shipped kinds.
        rng = np.random.default_rng(62)
        for kind in (NoiseKind.PER_QUBIT_DEPOLARIZING, NoiseKind.TWO_QUBIT_DEPOLARIZING):
            for _ in range(25):
                u, v = random_gate(rng), random_gate(rng)
                p = float(rng.uniform(0, 1))
                gamma = rng.uniform(0, np.pi / 2)
                ret = run_protocol_noisy(PD, gamma, EntanglerMode.DEFECT, u, v,
                                         NoiseSpec(kind=kind, p=p))
                fwd = run_protocol_noisy(PD, gamma, EntanglerMode.DEFECT, u, v,
                                         NoiseSpec(kind=kind, p=p,
                                                   location=ChannelLocation.FORWARD))
                assert np.abs(ret.distribution.probs - fwd.distribution.probs).max() < 1e-12


@pytest.mark.numpy_floor
class TestPauliMixtureOracle:
    """run_protocol_noisy and run_protocol_mixed (Pauli mixtures through
    the kernel) against the Kraus density-matrix path, within 1e-12 on
    the oldest numpy too; p = 0 takes ewl.noisy_outcome_probs's
    identity-channel path, the plain kernel, and must agree as well."""

    KINDS = (NoiseKind.PER_QUBIT_DEPOLARIZING, NoiseKind.TWO_QUBIT_DEPOLARIZING)
    LOCATIONS = (ChannelLocation.RETURN, ChannelLocation.FORWARD)

    def test_matches_kraus_path(self):
        rng = np.random.default_rng(63)
        a, b = PD.payoff_vectors()
        for kind in self.KINDS:
            for location in self.LOCATIONS:
                for p in (0.0, 1.0, *rng.uniform(0, 1, 8)):
                    spec = NoiseSpec(kind=kind, p=float(p), location=location)
                    u, v = random_gate(rng), random_gate(rng)
                    gamma = rng.uniform(0, np.pi / 2)
                    mode = MODES[int(rng.integers(2))]
                    want = kraus_probs(gamma, mode, u.matrix, v.matrix, kind, float(p), location)
                    got = run_protocol_noisy(PD, gamma, mode, u, v, spec)
                    assert np.abs(got.distribution.probs - want).max() < 1e-12
                    assert abs(got.payoff_I - want @ a) < 1e-12
                    assert abs(got.payoff_II - want @ b) < 1e-12

    def test_mixtures_match_kraus_mixture(self):
        rng = np.random.default_rng(65)
        a, b = PD.payoff_vectors()
        for kind in self.KINDS:
            for location in self.LOCATIONS:
                for p in (0.0, float(rng.uniform(0, 1)), 1.0):
                    for mode in MODES:
                        spec = NoiseSpec(kind=kind, p=p, location=location)
                        m1, m2 = random_mixture(rng), random_mixture(rng)
                        gamma = rng.uniform(0, np.pi / 2)
                        want = sum(w1 * w2 * kraus_probs(gamma, mode, u.matrix, v.matrix,
                                                         kind, p, location)
                                   for w1, u in m1.support for w2, v in m2.support)
                        got = run_protocol_mixed(PD, gamma, mode, m1, m2, spec)
                        assert np.abs(got.distribution.probs - want).max() < 1e-12
                        assert abs(got.payoff_I - want @ a) < 1e-12
                        assert abs(got.payoff_II - want @ b) < 1e-12

    def test_point_masses_equal_the_noisy_run_bit_for_bit(self):
        rng = np.random.default_rng(66)
        point_mass = MixedQuantumStrategy.point_mass
        for kind in (NoiseKind.NONE, *self.KINDS):
            for location in self.LOCATIONS:
                for p in (0.0, float(rng.uniform(0, 1)), 1.0):
                    for mode in MODES:
                        spec = NoiseSpec(kind=kind, p=p, location=location)
                        u, v = random_gate(rng), random_gate(rng)
                        gamma = rng.uniform(0, np.pi / 2)
                        mixed = run_protocol_mixed(PD, gamma, mode, point_mass(u),
                                                   point_mass(v), spec)
                        noisy = run_protocol_noisy(PD, gamma, mode, u, v, spec)
                        assert (mixed.distribution.probs.tobytes()
                                == noisy.distribution.probs.tobytes())
                        assert mixed.payoff_I == noisy.payoff_I
                        assert mixed.payoff_II == noisy.payoff_II

    def test_kraus_locations_coincide(self):
        # The reference itself shows FORWARD == RETURN: depolarizing
        # channels commute with the players' local unitaries.
        rng = np.random.default_rng(64)
        for kind in self.KINDS:
            for mode in MODES:
                for _ in range(10):
                    u, v = random_gate(rng), random_gate(rng)
                    p, gamma = float(rng.uniform(0, 1)), rng.uniform(0, np.pi / 2)
                    ret, fwd = (kraus_probs(gamma, mode, u.matrix, v.matrix, kind, p, loc)
                                for loc in self.LOCATIONS)
                    assert np.abs(ret - fwd).max() < 1e-12


class TestGammaSweep:
    def test_qq_endpoints(self):
        for mode in MODES:
            named = canonical_gates(mode)
            cols, rows = gamma_sweep(PD, mode, named.Q, named.Q, steps=9)
            assert cols == ("gamma", "payoff_I", "payoff_II")
            assert rows[0, 0] == 0.0 and abs(rows[-1, 0] - np.pi / 2) < 1e-15
            # classically Q acts like C, so gamma=0 lands on (C,C)=(3,3)
            assert abs(rows[0, 1] - 3.0) < 1e-12 and abs(rows[0, 2] - 3.0) < 1e-12
            assert abs(rows[-1, 1] - 3.0) < 1e-9 and abs(rows[-1, 2] - 3.0) < 1e-9

    def test_cc_constant(self):
        for mode in MODES:
            named = canonical_gates(mode)
            _, rows = gamma_sweep(PD, mode, named.C, named.C, steps=25)
            assert np.abs(rows[:, 1] - 3.0).max() < 1e-12
            assert np.abs(rows[:, 2] - 3.0).max() < 1e-12

    def test_cq_profile_varies_with_gamma(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        _, rows = gamma_sweep(PD, EntanglerMode.DEFECT, named.C, named.Q, steps=5)
        assert abs(rows[0, 1] - 3.0) < 1e-12   # classical limit: Q plays like C
        assert abs(rows[2, 1] - 2.0) < 1e-12   # midpoint, oracle-derived
        assert abs(rows[-1, 1] - 1.0) < 1e-12

    def test_two_steps_gives_endpoints_only(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        _, rows = gamma_sweep(PD, EntanglerMode.DEFECT, named.C, named.D, steps=2)
        assert rows.shape == (2, 3)
        assert rows[0, 0] == 0.0 and abs(rows[1, 0] - np.pi / 2) < 1e-15

    def test_steps_validated(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        with pytest.raises(RangeError):
            gamma_sweep(PD, EntanglerMode.DEFECT, named.C, named.C, steps=1)

    def test_steps_is_an_integer(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        for bad in (3.0, 2.5, "3"):
            with pytest.raises(ValidationError, match="steps must be an integer"):
                gamma_sweep(PD, EntanglerMode.DEFECT, named.C, named.Q, steps=bad)
        sweeps = [gamma_sweep(PD, EntanglerMode.DEFECT, named.C, named.Q, steps)[1]
                  for steps in (np.int64(5), 5)]
        assert sweeps[0].tobytes() == sweeps[1].tobytes()


def inline_game(rows):
    """A symmetric game: the column player's payoffs are the transpose."""
    rows = np.array(rows, dtype=float)
    return Bimatrix(row_payoffs=rows, col_payoffs=rows.T)


PER_QUBIT, TWO_QUBIT = NoiseKind.PER_QUBIT_DEPOLARIZING, NoiseKind.TWO_QUBIT_DEPOLARIZING
# the payoff of the located (Q, Q)-like profile crosses (T+S)/2 = 2.5
# at these levels in the PD and the HFT game, in both modes:
# 4/3 p^2 - 2p + 3 per qubit, 3 - 3p/4 for the two-qubit channel
EXACT_P_STAR = {PER_QUBIT: (3 - np.sqrt(3)) / 4, TWO_QUBIT: 2 / 3}
# payoff dips to 2.375 at p = 3/4 and ends at 2.556, against a limit of 2.5
TWO_CROSSING = [[4, 0], [5, 0.5]]
# per-qubit payoffs with a minimum of exactly (T+S)/2, at p = 3/4; under
# the two-qubit channel they reach (T+S)/2 exactly at p = 1
TANGENT = ([[3, 0], [4, 1]], [[3, 0], [5, 2]], [[4, 0], [5, 1]], [[3, 1], [4, 2]])


def ranked_candidates(game, gamma, mode, n):
    """The n x n set-A grid gates, ranked by symmetric payoff with ties
    in grid order, as symmetric_equilibrium_gate ranks them."""
    tt, pp = np.meshgrid(np.linspace(0, np.pi / 2, n), np.linspace(0, np.pi / 2, n),
                         indexing="ij")
    pts = np.stack([tt.ravel(), pp.ravel()], axis=1)
    u = strategy_matrix(pts[:, 0], pts[:, 1], 0.0)
    payoffs = np.abs(outcome_amplitudes(gamma, mode, u, u)) ** 2 @ game.payoff_vectors()[0]
    return [Gate1Q(strategy_matrix(*pts[k], 0.0)) for k in np.argsort(-payoffs, kind="stable")]


def first_verified(game, gamma, mode, cfg):
    """The oracle: verify_eps_nash on every ranked candidate in turn."""
    for gate in ranked_candidates(game, gamma, mode, cfg.grid_resolution):
        if verify_eps_nash(game, gamma, mode, gate, gate, "A", cfg)[0]:
            return gate
    raise ConvergenceError("no grid candidate verifies")


class TestSymmetricEquilibriumGate:
    def test_is_q_in_defect_mode(self):
        gate = symmetric_equilibrium_gate(PD, np.pi / 2, EntanglerMode.DEFECT, SEARCH)
        assert np.abs(gate.matrix - np.diag([1j, -1j])).max() < 1e-9

    @pytest.mark.parametrize("game, cfg", [
        (PD, SEARCH), (hft_game(), SEARCH),
        # player II's regrets doubled and a loose eps: candidates pass at
        # other ranks, and only if both players' regrets are checked
        (Bimatrix(PD.row_payoffs, 2 * PD.col_payoffs + 1),
         SearchConfig(grid_resolution=16, eps_nash=0.3)),
    ], ids=["pd", "hft", "pd-scaled-II"])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_equals_verifying_every_ranked_candidate(self, game, cfg, mode):
        gammas = np.append(np.random.default_rng(909).uniform(0, np.pi / 2, 4),
                           [0.3, 0.55, 0.59, np.pi / 2])
        outcomes = set()
        for gamma in gammas:
            try:
                want = first_verified(game, gamma, mode, cfg)
            except ConvergenceError:
                outcomes.add("none")
                with pytest.raises(ConvergenceError):
                    symmetric_equilibrium_gate(game, gamma, mode, cfg)
                continue
            outcomes.add("found")
            got = symmetric_equilibrium_gate(game, gamma, mode, cfg)
            assert got.matrix.tobytes() == want.matrix.tobytes(), gamma
        assert "found" in outcomes
        assert "none" in outcomes or cfg is not SEARCH

    def test_defection_below_the_twelfth_candidate(self):
        # at gamma = 0.3 (D, D) is the equilibrium, ranked far below the
        # top dozen symmetric payoffs
        gate = symmetric_equilibrium_gate(PD, 0.3, EntanglerMode.DEFECT, SearchConfig())
        named = canonical_gates(EntanglerMode.DEFECT)
        assert np.abs(gate.matrix - named.D.matrix).max() < 1e-12


class TestAdvantageThreshold:

    def test_none_kind_reports_no_threshold(self):
        res = advantage_threshold(PD, EntanglerMode.DEFECT, NoiseKind.NONE, SEARCH)
        assert not res.found and res.p_star is None
        assert abs(res.payoff_noiseless - 3.0) < 1e-9

    def test_two_qubit_threshold_pinned(self):
        res = advantage_threshold(PD, EntanglerMode.DEFECT,
                                  NoiseKind.TWO_QUBIT_DEPOLARIZING, SEARCH)
        assert res.found
        # payoff(p) = 3 - 0.75 p crosses 2.5 at p = 2/3
        assert abs(res.p_star - 2 / 3) < 1e-12
        assert abs(res.payoff_full_noise - 9 / 4) < 1e-12

    def test_per_qubit_threshold_pinned(self):
        res = advantage_threshold(PD, EntanglerMode.DEFECT,
                                  NoiseKind.PER_QUBIT_DEPOLARIZING, SEARCH)
        assert res.found
        assert abs(res.p_star - (3 - np.sqrt(3)) / 4) < 1e-12

    def test_reproducible_to_tolerance(self):
        r1 = advantage_threshold(PD, EntanglerMode.DEFECT,
                                 NoiseKind.TWO_QUBIT_DEPOLARIZING, SEARCH)
        r2 = advantage_threshold(PD, EntanglerMode.DEFECT,
                                 NoiseKind.TWO_QUBIT_DEPOLARIZING, SEARCH)
        assert r1.p_star == r2.p_star  # deterministic closed form

    def test_pauli_x_mode_same_threshold(self):
        # The symmetric set-A equilibrium differs per mode, but the
        # noisy payoff curve of the located profile is identical.
        res = advantage_threshold(PD, EntanglerMode.PAULI_X,
                                  NoiseKind.TWO_QUBIT_DEPOLARIZING, SEARCH)
        assert res.found
        assert abs(res.p_star - 2 / 3) < 1e-12

    @pytest.mark.parametrize("game", [PD, hft_game()], ids=["pd", "hft"])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("kind", [PER_QUBIT, TWO_QUBIT], ids=lambda k: k.value)
    def test_p_star_exact(self, game, mode, kind):
        res = advantage_threshold(game, mode, kind, SEARCH)
        assert res.found and res.limit == 2.5
        assert abs(res.p_star - EXACT_P_STAR[kind]) < 1e-12

    def test_limit_follows_the_game(self):
        # every PD payoff times 10: the limit is 25, not 2.5
        res = advantage_threshold(inline_game([[30, 0], [50, 10]]), EntanglerMode.DEFECT,
                                  TWO_QUBIT, SEARCH)
        assert res.limit == 25.0
        assert res.found and abs(res.p_star - 2 / 3) < 1e-12

    def test_second_crossing_is_not_needed(self):
        # the payoff ends above the limit, but dips below it first
        res = advantage_threshold(inline_game(TWO_CROSSING), EntanglerMode.DEFECT,
                                  PER_QUBIT, SEARCH)
        assert res.payoff_full_noise > res.limit == 2.5
        assert res.found and abs(res.p_star - (39 - 3 * np.sqrt(13)) / 52) < 1e-12

    @pytest.mark.parametrize("rows", TANGENT, ids=str)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_touching_the_limit_counts(self, rows, mode):
        # the float discriminants of these four are 0, +-1e-15: a touch
        # within rounding is found at the same place in every one of them
        res = advantage_threshold(inline_game(rows), mode, PER_QUBIT, SEARCH)
        assert res.found and abs(res.p_star - 0.75) < 1e-6
        res = advantage_threshold(inline_game(rows), mode, TWO_QUBIT, SEARCH)
        assert res.found and res.p_star == 1.0

    @pytest.mark.parametrize("scale, shift", [(0.1, 0.0), (7.0, -3.0), (1e3, 1e4),
                                              (1e-3, -0.2), (3.3, 1e3)])
    def test_affine_payoff_change_keeps_p_star(self, scale, shift):
        for rows, tol in ([[[3, 0], [5, 1]], 1e-12], [TWO_CROSSING, 1e-12],
                          *([r, 1e-6] for r in TANGENT)):
            for kind in (PER_QUBIT, TWO_QUBIT):
                base = advantage_threshold(inline_game(rows), EntanglerMode.DEFECT, kind, SEARCH)
                moved = advantage_threshold(inline_game(np.array(rows) * scale + shift),
                                            EntanglerMode.DEFECT, kind, SEARCH)
                assert moved.found == base.found
                assert abs(moved.p_star - base.p_star) < tol, (rows, kind)
                assert abs(moved.limit - (base.limit * scale + shift)) < 1e-12 * abs(moved.limit)

    @pytest.mark.parametrize("game", [PD, hft_game(), inline_game([[30, 0], [50, 10]]),
                                      inline_game([[4, 1], [7, 2]])],
                             ids=["pd", "hft", "pd-x10", "7421"])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_no_symmetric_equilibrium_inside_the_band(self, game, mode):
        """A PD-type game (T > R > P > S) has no symmetric set-A
        equilibrium for gamma strictly between arcsin sqrt((P-S)/(T-S))
        and arcsin sqrt((T-R)/(T-S)) (Du et al., PRL 88, 137902 (2002)):
        advantage_threshold answers 0.01 outside each edge and raises
        ConvergenceError 0.01 inside it."""
        (r, s), (t, p) = game.row_payoffs
        low, high = np.arcsin(np.sqrt([(p - s) / (t - s), (t - r) / (t - s)]))
        for gamma in (low - 0.01, high + 0.01):
            advantage_threshold(game, mode, TWO_QUBIT, SearchConfig(), gamma=gamma)
        for gamma in (low + 0.01, high - 0.01):
            with pytest.raises(ConvergenceError):
                advantage_threshold(game, mode, TWO_QUBIT, SearchConfig(), gamma=gamma)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_no_band_where_the_edges_meet(self, mode):
        """(T, R, P, S) = (4, 3, 2, 1): both edges are at arcsin sqrt(1/3)
        = 0.6155, so there is no band, and both probes answer."""
        edge = np.arcsin(np.sqrt(1 / 3))
        for gamma in (edge - 0.01, edge + 0.01):
            advantage_threshold(inline_game([[3, 1], [4, 2]]), mode, TWO_QUBIT, SearchConfig(),
                                gamma=gamma)

    def test_dense_grid_oracle(self):
        """Seeded games with T > R > P > S: the threshold is the first
        level of a dense p grid at which the payoff of the located
        profile is at or below (T+S)/2, to the grid's spacing."""
        rng = np.random.default_rng(2024)
        grid = np.linspace(0.0, 1.0, 201)
        seen = {"zero": 0, "inside": 0, "none": 0}
        for _ in range(10):
            s, p, r, t = np.sort(rng.uniform(-2.0, 6.0, 4))
            game = inline_game([[r, s], [t, p]])
            limit = (t + s) / 2
            for mode in MODES:
                try:
                    gate = symmetric_equilibrium_gate(game, np.pi / 2, mode, SEARCH)
                except ConvergenceError:
                    # no threshold without a located profile
                    with pytest.raises(ConvergenceError):
                        advantage_threshold(game, mode, PER_QUBIT, SEARCH)
                    continue
                for kind in (PER_QUBIT, TWO_QUBIT):
                    res = advantage_threshold(game, mode, kind, SEARCH)

                    def payoff(q, kind=kind, gate=gate):
                        return run_protocol_noisy(game, np.pi / 2, mode, gate, gate,
                                                  NoiseSpec(kind=kind, p=q)).payoff_I
                    pays = np.array([payoff(q) for q in grid])
                    below = np.flatnonzero(pays <= limit)
                    if not res.found:
                        seen["none"] += 1
                        assert below.size == 0
                        continue
                    if res.p_star == 0.0:
                        seen["zero"] += 1
                        assert pays[0] <= limit
                        continue
                    seen["inside"] += 1
                    assert abs(payoff(res.p_star) - limit) < 1e-9
                    assert np.all(pays[grid < res.p_star] > limit - 1e-9)
                    if below.size:
                        assert res.p_star <= grid[below[0]]
        assert min(seen.values()) >= 2, seen
