"""Tests for the protocol pipeline and the named strategy families."""
from dataclasses import astuple

import numpy as np
import pytest

from qgames import (
    EntanglerMode,
    Gate1Q,
    MixedQuantumStrategy,
    NoiseKind,
    NoiseSpec,
    StrategyParamsA,
    StrategyParamsB,
    canonical_gates,
    canonical_pd,
    default_menu,
    gamma_sweep,
    outcome_amplitudes,
    run_protocol,
    run_protocol_mixed,
)
from qgames.errors import RangeError, ValidationError
from qgames.ewl import _PAULIS, noisy_outcome_probs, strategy_matrix
from qgames.qcore import DEFECT_GATE, SIGMA_X
from qgames.search import _QUATERNION_BASIS, _induced_tables, phase_canonical_keys

from circuit import GENERATORS, KET00, born_probs, final_amplitudes, haar_gates

PD = canonical_pd()
MODES = list(EntanglerMode)


def reference_kernel(gamma, mode, u1, u2):
    """The two-einsum kernel outcome_amplitudes replaced, kept verbatim
    as its bit-identity reference: J|00> reshaped to the 2x2 matrix m0
    turns the local pair into U1 @ m0 @ U2^T, and right-multiplying its
    flattening by conj(J) = cos(g/2) I - i sin(g/2) G applies J-dagger."""
    gen = GENERATORS[mode.value]
    half = np.asarray(gamma, dtype=np.float64)[..., None] / 2
    c, s = np.cos(half), np.sin(half)
    m0 = (c * KET00 + 1j * s * gen[:, 0]).reshape(half.shape[:-1] + (2, 2))
    # einsum, not matmul: numpy's matmul is slow on stacks of 2x2 matrices
    psi = np.einsum("...ij,...jk->...ik", u1, np.einsum("...jl,...kl->...jk", m0, u2))
    psi = psi.reshape(psi.shape[:-2] + (4,))
    return c * psi - 1j * s * (psi @ gen)


def random_gates(rng, n):
    return strategy_matrix(rng.uniform(0, np.pi / 2, n), rng.uniform(-np.pi, np.pi, n),
                           rng.uniform(-np.pi, np.pi, n))


def kernel_cases(seed, n):
    """n seeded (gamma, mode) cases over both modes; the first four hit
    both ends of [0, pi/2] in both modes."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        gamma = (0.0, np.pi / 2)[k // 2] if k < 4 else rng.uniform(0, np.pi / 2)
        yield rng, gamma, MODES[k % 2]


class TestStrategyGates:
    def test_set_a_identity(self):
        g = StrategyParamsA(0.0, 0.0).gate()
        assert np.abs(g.matrix - np.eye(2)).max() < 1e-15

    def test_set_a_theta_half_pi(self):
        g = StrategyParamsA(np.pi / 2, 0.0).gate()
        assert np.abs(g.matrix - DEFECT_GATE).max() < 1e-12

    def test_set_a_phi_half_pi_is_q(self):
        # substituting theta=0, phi=pi/2: diag(e^{i pi/2}, e^{-i pi/2})
        g = StrategyParamsA(0.0, np.pi / 2).gate()
        assert np.abs(g.matrix - np.diag([1j, -1j])).max() < 1e-12

    def test_set_b_identity(self):
        g = StrategyParamsB(0.0, 0.0, 0.0).gate()
        assert np.abs(g.matrix - np.eye(2)).max() < 1e-15

    def test_set_b_i_sigma_x(self):
        g = StrategyParamsB(np.pi / 2, 0.0, np.pi / 2).gate()
        assert np.abs(g.matrix - 1j * SIGMA_X).max() < 1e-12

    def test_set_b_restricts_to_set_a_at_beta_zero(self):
        for theta in np.linspace(0, np.pi / 2, 9):
            for phi in np.linspace(0, np.pi / 2, 9):
                a = StrategyParamsA(theta, phi).gate().matrix
                b = StrategyParamsB(theta, phi, 0.0).gate().matrix
                assert np.array_equal(a, b)

    def test_parameter_ranges_enforced(self):
        with pytest.raises(RangeError):
            StrategyParamsA(-0.1, 0.0)
        with pytest.raises(RangeError):
            StrategyParamsA(0.0, np.pi)
        with pytest.raises(RangeError):
            StrategyParamsB(np.pi, 0.0, 0.0)
        with pytest.raises(RangeError):
            StrategyParamsB(0.0, 4.0, 0.0)

    def test_a_phase_of_a_vanishing_entry_reads_as_zero(self):
        # U00 = x0 + i x3 and U01 = x2 + i x1, each of modulus 7.1e-13
        tiny = 5e-13
        p = StrategyParamsB._from_quaternion(np.array([tiny, 0.6, 0.8, tiny]))
        assert p.alpha == 0.0 and p.beta == np.arctan2(0.6, 0.8)
        p = StrategyParamsB._from_quaternion(np.array([0.8, tiny, -tiny, 0.6]))
        assert p.beta == 0.0 and p.alpha == np.arctan2(0.6, 0.8)

    @pytest.mark.parametrize("params, name", [
        (StrategyParamsA(0.3, np.pi / 2), "A(0.3,1.57079633)"),
        (StrategyParamsB(1.1, -2.5, 0.4), "B(1.1,-2.5,0.4)"),
    ], ids=["A", "B"])
    def test_the_params_of_a_gate_and_its_name(self, params, name):
        u = params.gate().matrix
        for phase in (1.0, np.exp(0.7j)):  # a global phase leaves the params alone
            back = type(params).of(phase * u)
            assert np.allclose(astuple(back), astuple(params), rtol=0, atol=1e-12)
        assert str(params) == name

    def test_unitary_for_500_random_parameter_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            ga = StrategyParamsA(rng.uniform(0, np.pi / 2),
                                 rng.uniform(0, np.pi / 2)).gate()
            gb = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                 rng.uniform(-np.pi, np.pi),
                                 rng.uniform(-np.pi, np.pi)).gate()
            for g in (ga, gb):
                err = np.abs(g.matrix.conj().T @ g.matrix - np.eye(2)).max()
                assert err < 1e-12


class TestCanonicalGates:
    def test_c_is_identity_q_is_diag(self):
        for mode in MODES:
            named = canonical_gates(mode)
            assert np.allclose(named.C.matrix, np.eye(2))
            assert np.allclose(named.Q.matrix, np.diag([1j, -1j]))

    def test_defect_gate_per_mode(self):
        assert np.allclose(canonical_gates(EntanglerMode.PAULI_X).D.matrix, 1j * SIGMA_X)
        assert np.allclose(canonical_gates(EntanglerMode.DEFECT).D.matrix, DEFECT_GATE)

    def test_closed_form_gates_unitary_to_1e_12(self):
        # tighter than the 1e-9 every Gate1Q is checked against
        def deviation(g):
            return np.abs(g.matrix.conj().T @ g.matrix - np.eye(2)).max()

        for mode in MODES:
            assert max(map(deviation, canonical_gates(mode))) <= 1e-12
        rng = np.random.default_rng(1012)
        thetas = np.append(np.linspace(0, np.pi / 2, 9), rng.uniform(0, np.pi / 2, 8))
        phases = np.append(np.linspace(-np.pi, np.pi, 9), rng.uniform(-np.pi, np.pi, 8))
        for theta in thetas:
            for phi in thetas:
                assert deviation(StrategyParamsA(theta, phi).gate()) <= 1e-12
            for alpha in phases:
                for beta in phases:
                    assert deviation(StrategyParamsB(theta, alpha, beta).gate()) <= 1e-12

    def test_cooperation_pays_3_at_any_gamma(self):
        for mode in MODES:
            named = canonical_gates(mode)
            for gamma in np.linspace(0, np.pi / 2, 7):
                r = run_protocol(PD, gamma, mode, named.C, named.C)
                assert abs(r.payoff_I - 3.0) < 1e-12 and abs(r.payoff_II - 3.0) < 1e-12

    def test_mutual_defection_pays_1_at_max_gamma(self):
        for mode in MODES:
            named = canonical_gates(mode)
            r = run_protocol(PD, np.pi / 2, mode, named.D, named.D)
            assert abs(r.payoff_I - 1.0) < 1e-12
            assert np.abs(r.distribution.probs - np.array([0, 0, 0, 1])).max() < 1e-12

    def test_qq_pays_3_at_max_gamma(self):
        for mode in MODES:
            named = canonical_gates(mode)
            r = run_protocol(PD, np.pi / 2, mode, named.Q, named.Q)
            assert abs(r.payoff_I - 3.0) < 1e-9 and abs(r.payoff_II - 3.0) < 1e-9


class TestRunProtocol:
    def test_zero_gamma_reproduces_classical_game_both_modes(self):
        for mode in MODES:
            named = canonical_gates(mode)
            gates = {"C": named.C, "D": named.D}
            for (n1, u), (n2, v) in [((a, gates[a]), (b, gates[b]))
                                     for a in gates for b in gates]:
                r = run_protocol(PD, 0.0, mode, u, v)
                expected = PD.cell_by_labels(n1, n2)
                assert abs(r.payoff_I - expected[0]) < 1e-12
                assert abs(r.payoff_II - expected[1]) < 1e-12

    def test_classical_embedding_at_every_gamma_in_defect_mode(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        gates = {"C": named.C, "D": named.D}
        for gamma in np.linspace(0, np.pi / 2, 21):
            for n1 in gates:
                for n2 in gates:
                    r = run_protocol(PD, gamma, EntanglerMode.DEFECT, gates[n1], gates[n2])
                    expected = PD.cell_by_labels(n1, n2)
                    assert abs(r.payoff_I - expected[0]) < 1e-12
                    assert abs(r.payoff_II - expected[1]) < 1e-12

    def test_qq_final_state_is_ket00_up_to_sign(self):
        # (Q x Q) J|00> = -J|00>, so the disentangler returns -|00>.
        named = canonical_gates(EntanglerMode.PAULI_X)
        r = run_protocol(PD, np.pi / 2, EntanglerMode.PAULI_X, named.Q, named.Q)
        assert np.abs(r.distribution.probs - np.array([1, 0, 0, 0])).max() < 1e-12
        assert abs(r.final_state.amps[0] + 1.0) < 1e-12

    def test_one_sided_defection_defect_mode(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        r = run_protocol(PD, np.pi / 2, EntanglerMode.DEFECT, named.C, named.D)
        assert np.abs(r.distribution.probs - np.array([0, 1, 0, 0])).max() < 1e-12
        assert (round(r.payoff_I, 12), round(r.payoff_II, 12)) == (0.0, 5.0)

    def test_cross_mode_discrepancy_pinned(self):
        # The set-A defect gate under the PAULI_X generator lands the
        # outcome on |10>, crediting the wrong player.
        named = canonical_gates(EntanglerMode.PAULI_X)
        d_set_a = StrategyParamsA(np.pi / 2, 0.0).gate()
        r = run_protocol(PD, np.pi / 2, EntanglerMode.PAULI_X, named.C, d_set_a)
        assert np.abs(r.distribution.probs - np.array([0, 0, 1, 0])).max() < 1e-12
        assert abs(r.payoff_I - 5.0) < 1e-12 and abs(r.payoff_II) < 1e-12

    def test_payoffs_match_distribution_weighting(self):
        rng = np.random.default_rng(21)
        a, b = PD.payoff_vectors()
        for _ in range(100):
            u = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            v = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            mode = MODES[int(rng.integers(2))]
            r = run_protocol(PD, rng.uniform(0, np.pi / 2), mode, u, v)
            assert abs(r.payoff_I - float(r.distribution.probs @ a)) < 1e-12
            assert abs(r.payoff_II - float(r.distribution.probs @ b)) < 1e-12

    def test_phase_invariance_500_cases(self):
        rng = np.random.default_rng(314)
        for _ in range(500):
            u = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            v = StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()
            gamma = rng.uniform(0, np.pi / 2)
            mode = MODES[int(rng.integers(2))]
            delta = rng.uniform(-np.pi, np.pi)
            base = run_protocol(PD, gamma, mode, u, v).distribution.probs
            phased_u = Gate1Q(np.exp(1j * delta) * u.matrix)
            phased_v = Gate1Q(np.exp(1j * delta) * v.matrix)
            got1 = run_protocol(PD, gamma, mode, phased_u, v).distribution.probs
            got2 = run_protocol(PD, gamma, mode, u, phased_v).distribution.probs
            assert np.abs(got1 - base).max() < 1e-12
            assert np.abs(got2 - base).max() < 1e-12

    def test_payoff_continuous_in_gamma(self):
        rng = np.random.default_rng(8)
        named = canonical_gates(EntanglerMode.DEFECT)
        profiles = [(named.C, named.Q), (named.Q, named.D)]
        for _ in range(3):
            profiles.append((
                StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate(),
                StrategyParamsB(rng.uniform(0, np.pi / 2),
                                rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi)).gate()))
        grid = np.arange(0, np.pi / 2 + 1e-12, np.pi / 200)
        for mode in MODES:
            for u, v in profiles:
                payoffs = [run_protocol(PD, g, mode, u, v).payoff_I for g in grid]
                diffs = np.abs(np.diff(payoffs))
                assert diffs.max() < 0.1


@pytest.mark.numpy_floor
class TestOutcomeAmplitudes:
    """The broadcast kernel against the explicit 4x4 circuit: 200
    seeded cases, 50 per input shape, within 1e-12 on the oldest numpy
    too."""

    def test_scalar_inputs(self):
        for rng, gamma, mode in kernel_cases(3001, 50):
            u, v = random_gates(rng, 2)
            got = outcome_amplitudes(gamma, mode, u, v)
            assert got.shape == (4,)
            assert np.abs(got - final_amplitudes(gamma, mode, u, v)).max() < 1e-12

    def test_stack_against_one_gate(self):
        for rng, gamma, mode in kernel_cases(3002, 50):
            stack, (v,) = random_gates(rng, 5), random_gates(rng, 1)
            left = outcome_amplitudes(gamma, mode, stack, v)
            right = outcome_amplitudes(gamma, mode, v, stack)
            assert left.shape == right.shape == (5, 4)
            for k, u in enumerate(stack):
                assert np.abs(left[k] - final_amplitudes(gamma, mode, u, v)).max() < 1e-12
                assert np.abs(right[k] - final_amplitudes(gamma, mode, v, u)).max() < 1e-12

    def test_outer_broadcast(self):
        for rng, gamma, mode in kernel_cases(3003, 50):
            rows, cols = random_gates(rng, 3), random_gates(rng, 4)
            got = outcome_amplitudes(gamma, mode, rows[:, None], cols[None, :])
            assert got.shape == (3, 4, 4)
            for i, u in enumerate(rows):
                for j, v in enumerate(cols):
                    want = final_amplitudes(gamma, mode, u, v)
                    assert np.abs(got[i, j] - want).max() < 1e-12

    def test_array_gamma(self):
        for rng, gamma, mode in kernel_cases(3004, 50):
            gammas = np.array([0.0, gamma, np.pi / 2])
            u, v = random_gates(rng, 2)
            stack = random_gates(rng, 3)
            one_pair = outcome_amplitudes(gammas, mode, u, v)
            paired = outcome_amplitudes(gammas, mode, stack, v)
            assert one_pair.shape == paired.shape == (3, 4)
            for k, g in enumerate(gammas):
                assert np.abs(one_pair[k] - final_amplitudes(g, mode, u, v)).max() < 1e-12
                assert np.abs(paired[k] - final_amplitudes(g, mode, stack[k], v)).max() < 1e-12

    def test_induced_tables_and_sweep_match_oracle(self):
        a, b = PD.payoff_vectors()
        for rng, gamma, mode in kernel_cases(3005, 8):
            reps = [Gate1Q(u) for u in random_gates(rng, 5)]
            mats = np.array([g.matrix for g in reps])
            pi, pii = _induced_tables(PD, gamma, mode, mats)
            for i, u in enumerate(mats):
                for j, v in enumerate(mats):
                    probs = born_probs(final_amplitudes(gamma, mode, u, v))
                    assert abs(pi[i, j] - probs @ a) < 1e-12
                    assert abs(pii[i, j] - probs @ b) < 1e-12
            _, rows = gamma_sweep(PD, mode, reps[0], reps[1], steps=9)
            for g, pay_i, pay_ii in rows:
                probs = born_probs(final_amplitudes(g, mode, mats[0], mats[1]))
                assert abs(pay_i - probs @ a) < 1e-12 and abs(pay_ii - probs @ b) < 1e-12

    @pytest.mark.parametrize("mode", ["pauli_x", "defect", None, [1]])
    def test_unknown_mode_rejected(self, mode):
        c = np.eye(2, dtype=np.complex128)
        with pytest.raises(ValidationError, match="unknown entangler mode: "):
            outcome_amplitudes(0.5, mode, c, c)
        with pytest.raises(ValidationError, match="unknown entangler mode: "):
            run_protocol(PD, 0.5, mode, c, c)
        with pytest.raises(ValidationError, match="unknown entangler mode: "):
            canonical_gates(mode)

    def test_run_protocol_validates_raw_matrices(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        with pytest.raises(ValidationError):
            run_protocol(PD, 0.5, EntanglerMode.DEFECT, np.array([[1, 1], [0, 1]]), named.C)
        with pytest.raises(ValidationError):
            run_protocol(PD, 0.5, EntanglerMode.DEFECT, named.C, 2 * np.eye(2))
        raw = run_protocol(PD, 0.5, EntanglerMode.DEFECT, named.Q.matrix, named.D.matrix)
        wrapped = run_protocol(PD, 0.5, EntanglerMode.DEFECT, named.Q, named.D)
        assert np.array_equal(raw.final_state.amps, wrapped.final_state.amps)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.numpy_floor
class TestBitIdentity:
    """outcome_amplitudes gives the bytes of reference_kernel, signed
    zeros included, on every input shape the package passes it.  Menu
    tables have exact payoff ties, so a last-ulp difference can change
    which equilibrium is found.  The kernel keeps its one rounding
    product inside einsum, so this holds whichever complex product
    numpy's `*` uses, on the oldest numpy too."""

    @staticmethod
    def assert_same_bytes(gamma, mode, u1, u2):
        out = outcome_amplitudes(gamma, mode, u1, u2)
        ref = reference_kernel(gamma, mode, u1, u2)
        assert out.shape == ref.shape and out.tobytes() == ref.tobytes()

    def test_scalars_and_tables(self, mode):
        for rng, gamma, _ in kernel_cases(3101, 20):
            rows, cols = random_gates(rng, 5), random_gates(rng, 6)
            for u, v in zip(rows, cols):
                self.assert_same_bytes(gamma, mode, u, v)
            self.assert_same_bytes(gamma, mode, rows[:, None], cols[None, :])

    def test_array_gamma(self, mode):
        rng = np.random.default_rng(3102)
        gammas = np.linspace(0, np.pi / 2, 101)
        u, v = random_gates(rng, 2)
        self.assert_same_bytes(gammas, mode, u, v)
        self.assert_same_bytes(gammas, mode, random_gates(rng, 101), v)
        for gamma in (0.0, np.pi / 2):
            self.assert_same_bytes(gamma, mode, u, v)
            self.assert_same_bytes(np.array([gamma]), mode, u, v)

    def test_payoff_form_and_pauli_row_shapes(self, mode):
        rng = np.random.default_rng(3103)
        for gamma in (0.0, 0.9, np.pi / 2):
            opponents = random_gates(rng, 7)[..., None, :, :]
            self.assert_same_bytes(gamma, mode, _QUATERNION_BASIS, opponents)
            self.assert_same_bytes(gamma, mode, opponents, _QUATERNION_BASIS)
            u1 = random_gates(rng, 3)[:, None, None, :, :]
            u2 = random_gates(rng, 2)[None, :, None, :, :]
            for left, right in ((_PAULIS @ u1, _PAULIS @ u2), (u1 @ _PAULIS, u2 @ _PAULIS)):
                self.assert_same_bytes(gamma, mode, left[..., :, None, :, :],
                                       right[..., None, :, :, :])

    def test_named_gates(self, mode):
        named = [g.matrix for g in canonical_gates(mode)]
        for gamma in (0.0, 0.4, 1.1, np.pi / 2):
            for u in named:
                for v in named:
                    self.assert_same_bytes(gamma, mode, u, v)

    def test_set_b_gates_with_signed_zeros(self, mode):
        angles = np.linspace(-np.pi, np.pi, 9)
        grid = np.meshgrid([0.0, np.pi / 2], angles, angles, indexing="ij")
        gates = strategy_matrix(*grid).reshape(-1, 2, 2)
        parts = gates.view(np.float64)
        assert np.any((parts == 0) & np.signbit(parts))
        for gamma in (0.0, 0.7, np.pi / 2):
            self.assert_same_bytes(gamma, mode, gates[:, None], gates[None, :])
            for u in gates[::5]:
                for v in gates[::7]:
                    self.assert_same_bytes(gamma, mode, u, v)

    # The kernel runs einsum with the stack axes last and writes J-dagger
    # through a transposed view of its result: these pin the layout too.

    @classmethod
    def assert_same_bytes_and_layout(cls, gamma, mode, u1, u2):
        cls.assert_same_bytes(gamma, mode, u1, u2)
        out = outcome_amplitudes(gamma, mode, u1, u2)
        assert out.flags.c_contiguous and out.flags.owndata

    def test_every_package_shape_gives_an_owned_c_contiguous_result(self, mode):
        rng = np.random.default_rng(3104)
        gates, opponents = random_gates(rng, 28), random_gates(rng, 7)[..., None, :, :]
        u1, u2 = gates[:3, None, None], gates[3:5][None, :, None]  # two mixtures' supports
        shapes = [  # (gamma, u1, u2) as run_protocol, menu tables, sweeps, forms, Pauli rows
            (0.7, gates[0], gates[1]),
            (0.7, gates[:, None], gates[None, :]),
            (np.linspace(0, np.pi / 2, 101), gates[0], gates[1]),
            (0.7, _QUATERNION_BASIS, opponents),
            (0.7, opponents, _QUATERNION_BASIS),
            (0.7, (_PAULIS @ gates[0])[:, None], (_PAULIS @ gates[1])[None, :]),
            (0.7, (u1 @ _PAULIS)[..., :, None, :, :], (u2 @ _PAULIS)[..., None, :, :, :]),
        ]
        for gamma, left, right in shapes:
            self.assert_same_bytes_and_layout(gamma, mode, left, right)

    def test_gamma_broadcasts_against_the_stack(self, mode):
        rng = np.random.default_rng(3105)
        gammas = np.linspace(0, np.pi / 2, 6)
        u, v = random_gates(rng, 30).reshape(5, 6, 2, 2), random_gates(rng, 30).reshape(5, 6, 2, 2)
        self.assert_same_bytes_and_layout(gammas, mode, u, v)  # fewer dimensions than the stack
        self.assert_same_bytes_and_layout(gammas, mode, u, v[0, 0])
        columns = np.linspace(0, np.pi / 2, 3)[:, None]  # more dimensions than the gates
        rows = random_gates(rng, 4)
        self.assert_same_bytes_and_layout(columns, mode, rows, random_gates(rng, 4))
        self.assert_same_bytes_and_layout(columns, mode, rows, v[0, 0])

    def test_strided_fortran_transposed_and_read_only_inputs(self, mode):
        rng = np.random.default_rng(3106)
        u, v = random_gates(rng, 12), random_gates(rng, 12)
        table = random_gates(rng, 30).reshape(5, 6, 2, 2)
        frozen = v.copy()
        frozen.setflags(write=False)
        for left, right in ((u[::2], v[1::2]),
                            (np.asfortranarray(table), table),
                            (np.asfortranarray(table), np.asfortranarray(table)),
                            (np.swapaxes(table, -1, -2), table),
                            (table.transpose(1, 0, 2, 3), np.swapaxes(table, 0, 1)),
                            (u, frozen), (frozen[:, None], frozen[None, ::3])):
            for gamma in (0.0, 0.8, np.pi / 2):
                self.assert_same_bytes_and_layout(gamma, mode, left, right)
                self.assert_same_bytes_and_layout(gamma, mode, right, left)

    def test_three_dimensional_broadcast_table(self, mode):
        rng = np.random.default_rng(3107)
        rows = random_gates(rng, 3)[:, None, None]
        cols = random_gates(rng, 4)[None, :, None]
        thirds = random_gates(rng, 5)[None, None, :]
        self.assert_same_bytes_and_layout(0.6, mode, rows, cols @ thirds)
        self.assert_same_bytes_and_layout(np.linspace(0, np.pi / 2, 5), mode, rows, cols)
        self.assert_same_bytes_and_layout(np.linspace(0, np.pi / 2, 5)[:, None, None, None],
                                          mode, rows, cols)


# S^dagger U S entrywise, for S = diag(1, i); its conjugate is S U S^dagger
S_DAGGER_U_S = np.array([[1, 1j], [-1j, 1]])
RELABEL = {  # mode -> (the other mode, Player I's factor, Player II's factor)
    EntanglerMode.DEFECT: (EntanglerMode.PAULI_X, S_DAGGER_U_S, S_DAGGER_U_S.conj()),
    EntanglerMode.PAULI_X: (EntanglerMode.DEFECT, S_DAGGER_U_S.conj(), S_DAGGER_U_S),
}


@pytest.mark.numpy_floor
class TestModeRelabeling:
    """The two entangler modes are one game under a fixed relabeling of
    the gates.  Dg (x) Dg = -sy (x) sy, S sx S^dagger = sy and S^dagger sx
    S = -sy, so (S^dagger (x) S) turns the PAULI_X generator into the
    DEFECT one; diagonal gates fix |00> and the measured basis.  So
    (U1, U2) under DEFECT and (S^dagger U1 S, S U2 S^dagger) under PAULI_X
    give the same outcome probabilities, and the inverse map goes back.
    Every multiplication of the map is by 1 or +-i, so the equality is
    exact, and it holds on the oldest numpy too."""

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_probabilities_are_bit_identical(self, mode):
        other, f1, f2 = RELABEL[mode]
        rng = np.random.default_rng(2801)
        u1, u2 = haar_gates(rng, 2500), haar_gates(rng, 2500)
        for gamma in (0.0, np.pi / 2, *rng.uniform(0, np.pi / 2, 6)):
            want = np.abs(outcome_amplitudes(gamma, mode, u1, u2)) ** 2
            got = np.abs(outcome_amplitudes(gamma, other, u1 * f1, u2 * f2)) ** 2
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_named_gates_map_to_the_other_modes_up_to_phase(self, mode):
        other, f1, f2 = RELABEL[mode]
        named = np.array([g.matrix for g in canonical_gates(mode)])
        want = phase_canonical_keys(np.array([g.matrix for g in canonical_gates(other)]))
        assert phase_canonical_keys(named * f1) == phase_canonical_keys(named * f2) == want

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_default_menu_maps_onto_the_other_modes(self, mode):
        other, f1, f2 = RELABEL[mode]
        menu = np.array([g.matrix for g in default_menu(mode)])
        want = set(phase_canonical_keys(np.array([g.matrix for g in default_menu(other)])))
        assert len(want) == 28
        assert set(phase_canonical_keys(menu * f1)) == set(phase_canonical_keys(menu * f2)) == want


class TestMixedStrategies:
    def test_point_mass_reduces_to_pure_protocol(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        m = MixedQuantumStrategy.point_mass(named.Q)
        pure = run_protocol(PD, np.pi / 2, EntanglerMode.DEFECT, named.Q, named.Q)
        mixed = run_protocol_mixed(PD, np.pi / 2, EntanglerMode.DEFECT, m, m)
        assert np.abs(mixed.distribution.probs - pure.distribution.probs).max() < 1e-15
        assert mixed.payoff_I == pure.payoff_I
        assert mixed.final_state is None

    def test_random_mixtures_match_weighted_oracle(self):
        a, b = PD.payoff_vectors()
        for rng, gamma, mode in kernel_cases(3006, 20):
            w1, w2 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4))
            g1, g2 = random_gates(rng, 3), random_gates(rng, 4)
            m1 = MixedQuantumStrategy(list(zip(w1, g1)))
            m2 = MixedQuantumStrategy(list(zip(w2, g2)))
            want = sum(x * y * born_probs(final_amplitudes(gamma, mode, u, v))
                       for x, u in zip(w1, g1) for y, v in zip(w2, g2))
            r = run_protocol_mixed(PD, gamma, mode, m1, m2)
            assert np.abs(r.distribution.probs - want).max() < 1e-12
            assert abs(r.payoff_I - want @ a) < 1e-12 and abs(r.payoff_II - want @ b) < 1e-12

    def test_uniform_over_c_and_d_at_gamma_zero(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        m = MixedQuantumStrategy([(0.5, named.C), (0.5, named.D)])
        r = run_protocol_mixed(PD, 0.0, EntanglerMode.DEFECT, m, m)
        assert abs(r.payoff_I - 9 / 4) < 1e-12 and abs(r.payoff_II - 9 / 4) < 1e-12
        assert np.abs(r.distribution.probs - 0.25).max() < 1e-12

    def test_stacked_arrays_are_built_once_and_read_only(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        m = MixedQuantumStrategy([(0.25, named.C), (0.75, np.diag([1j, -1j]))])
        w, u = m.stacked()
        assert all(a is b for a, b in zip(m.stacked(), (w, u)))
        assert not w.flags.writeable and not u.flags.writeable
        assert w.tolist() == [0.25, 0.75]
        assert u.tobytes() == np.array([g.matrix for _, g in m.support]).tobytes()
        with pytest.raises(ValueError):
            u[0, 0, 0] = 0.0

    def test_mixed_runs_equal_the_mixture_of_fresh_arrays_bit_for_bit(self):
        # the weighted sum over arrays built from the support on each call
        kinds = [NoiseSpec(), NoiseSpec(kind=NoiseKind.TWO_QUBIT_DEPOLARIZING, p=0.3),
                 NoiseSpec(kind=NoiseKind.PER_QUBIT_DEPOLARIZING, p=0.7)]
        for k, (rng, gamma, mode) in enumerate(kernel_cases(3008, 12)):
            m1 = MixedQuantumStrategy(list(zip(rng.dirichlet(np.ones(3)), random_gates(rng, 3))))
            m2 = MixedQuantumStrategy(list(zip(rng.dirichlet(np.ones(2)), random_gates(rng, 2))))
            noise = kinds[k % 3]
            (w1, u1), (w2, u2) = ((np.array([w for w, _ in m.support]),
                                   np.array([g.matrix for _, g in m.support])) for m in (m1, m2))
            want = np.einsum("i,j,ijk->k", w1, w2,
                             noisy_outcome_probs(gamma, mode, u1[:, None], u2[None, :], noise))
            for _ in range(2):
                r = run_protocol_mixed(PD, gamma, mode, m1, m2, noise=noise)
                assert r.distribution.probs.tobytes() == want.tobytes()

    def test_empty_support_rejected(self):
        with pytest.raises(ValidationError):
            MixedQuantumStrategy([])

    def test_weights_must_sum_to_one(self):
        named = canonical_gates(EntanglerMode.DEFECT)
        with pytest.raises(ValidationError):
            MixedQuantumStrategy([(0.5, named.C), (0.4, named.D)])

    def test_five_entry_mixture_matches_the_explicit_sum(self):
        a, b = PD.payoff_vectors()
        for rng, gamma, mode in kernel_cases(3007, 5):
            w1, g1 = rng.dirichlet(np.ones(5)), random_gates(rng, 5)
            w2, g2 = rng.dirichlet(np.ones(2)), random_gates(rng, 2)
            m1 = MixedQuantumStrategy(list(zip(w1, g1)))
            assert len(m1) == 5
            r = run_protocol_mixed(PD, gamma, mode, m1, MixedQuantumStrategy(list(zip(w2, g2))))
            want = sum(x * y * run_protocol(PD, gamma, mode, u, v).distribution.probs
                       for x, u in zip(w1, g1) for y, v in zip(w2, g2))
            assert np.abs(r.distribution.probs - want).max() < 1e-12
            assert abs(r.payoff_I - want @ a) < 1e-12 and abs(r.payoff_II - want @ b) < 1e-12
