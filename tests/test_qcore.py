"""Unit and property tests for the two-qubit linear-algebra core."""
import numpy as np
import pytest

from qgames import (
    Bimatrix,
    DensityMatrix2Q,
    EntanglerMode,
    Gate1Q,
    Gate2Q,
    JointDistribution,
    MixedQuantumStrategy,
    OutcomeDistribution,
    PureState2Q,
    apply,
    dagger,
    entangler,
    measure,
    tensor,
)
from qgames.errors import RangeError, ValidationError
from qgames.qcore import DEFECT_GATE, I2, SIGMA_X, clamp_gamma

S2 = 1.0 / np.sqrt(2.0)


def random_unitary_2x2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary_4x4(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng):
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    return a / np.linalg.norm(a)


class TestTensor:
    def test_identity_tensor_identity(self):
        assert np.allclose(tensor(Gate1Q(I2), Gate1Q(I2)).matrix, np.eye(4), atol=1e-12)

    def test_sigma_x_tensor_sigma_x_is_antidiagonal(self):
        got = tensor(Gate1Q(SIGMA_X), Gate1Q(SIGMA_X)).matrix
        assert np.allclose(got, np.fliplr(np.eye(4)), atol=1e-12)

    def test_left_factor_acts_on_first_qubit(self):
        # (i sx (x) I)|00> = i|10>, checked against an explicit
        # matrix-vector product with no kron shortcut.
        g = tensor(Gate1Q(1j * SIGMA_X), Gate1Q(I2))
        out = apply(g, PureState2Q.ket00())
        by_hand = np.zeros(4, dtype=complex)
        m = g.matrix
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        for a in range(4):
            by_hand[a] = sum(m[a, b] * e0[b] for b in range(4))
        assert np.allclose(out.amps, by_hand, atol=1e-15)
        assert np.allclose(out.amps, [0, 0, 1j, 0], atol=1e-12)

    def test_non_unitary_left_operand_named(self):
        with pytest.raises(ValidationError, match="left operand"):
            tensor(np.array([[1, 1], [0, 1]]), I2)

    def test_non_unitary_right_operand_named(self):
        with pytest.raises(ValidationError, match="right operand"):
            tensor(I2, np.array([[2, 0], [0, 1]]))

    def test_mixed_product_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = random_unitary_2x2(rng), random_unitary_2x2(rng)
            up, vp = random_unitary_2x2(rng), random_unitary_2x2(rng)
            left = tensor(Gate1Q(u), Gate1Q(v)) @ tensor(Gate1Q(up), Gate1Q(vp))
            right = tensor(Gate1Q(u @ up), Gate1Q(v @ vp))
            assert np.abs(left.matrix - right.matrix).max() < 1e-10


class TestEntangler:
    def test_zero_gamma_is_identity(self):
        for mode in EntanglerMode:
            got = entangler(0.0, mode).matrix
            assert np.abs(got - np.eye(4)).max() < 1e-15

    def test_max_entanglement_matrix_corners(self):
        j = entangler(np.pi / 2, EntanglerMode.PAULI_X).matrix
        expected = np.array([
            [S2, 0, 0, 1j * S2],
            [0, S2, 1j * S2, 0],
            [0, 1j * S2, S2, 0],
            [1j * S2, 0, 0, S2],
        ])
        assert np.abs(j - expected).max() < 1e-12

    def test_max_entanglement_on_ket00(self):
        for mode in EntanglerMode:
            out = apply(entangler(np.pi / 2, mode), PureState2Q.ket00())
            assert np.abs(out.amps - np.array([S2, 0, 0, 1j * S2])).max() < 1e-12

    def test_unitary_on_gamma_grid_both_modes(self):
        for mode in EntanglerMode:
            for g in np.linspace(0, np.pi / 2, 100):
                m = entangler(g, mode).matrix
                assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-10

    def test_gamma_out_of_range(self):
        with pytest.raises(RangeError):
            entangler(-0.1)
        with pytest.raises(RangeError):
            entangler(np.pi / 2 + 1e-6)

    def test_gamma_clamp_absorbs_rounding(self):
        assert clamp_gamma(-1e-13) == 0.0
        assert clamp_gamma(np.pi / 2 + 1e-13) == np.pi / 2

    def test_defect_mode_generator(self):
        j = entangler(np.pi / 2, EntanglerMode.DEFECT).matrix
        expected = S2 * np.eye(4) + 1j * S2 * np.kron(DEFECT_GATE, DEFECT_GATE)
        assert np.abs(j - expected).max() < 1e-12


class TestDagger:
    def test_identity(self):
        g = Gate2Q(np.eye(4))
        assert np.allclose(dagger(g).matrix, np.eye(4))

    def test_involution_exact(self):
        rng = np.random.default_rng(11)
        m = random_unitary_4x4(rng)
        g = Gate2Q(m)
        assert np.array_equal(dagger(dagger(g)).matrix, g.matrix)

    def test_inverse_of_entangler(self):
        j = entangler(np.pi / 2, EntanglerMode.PAULI_X)
        prod = dagger(j) @ j
        assert np.abs(prod.matrix - np.eye(4)).max() < 1e-12

    def test_corner_entries_conjugated(self):
        j = entangler(np.pi / 2, EntanglerMode.PAULI_X)
        jd = dagger(j).matrix
        # conjugate transpose by hand: corners flip the sign of i/sqrt(2)
        assert abs(jd[0, 0] - S2) < 1e-12
        assert abs(jd[3, 0] - (-1j * S2)) < 1e-12
        assert abs(jd[0, 3] - (-1j * S2)) < 1e-12


class TestApply:
    def test_identity_apply(self):
        rng = np.random.default_rng(3)
        s = PureState2Q(random_state(rng))
        out = apply(Gate2Q(np.eye(4)), s)
        assert np.abs(out.amps - s.amps).max() < 1e-15

    def test_defect_pair_on_entangled_state(self):
        # D = [[0,1],[-1,0]]: D|0> = -|1>, D|1> = |0>, so
        # (D(x)D)(|00>+i|11>)/sqrt2 = (|11>+i|00>)/sqrt2.
        d = Gate1Q(DEFECT_GATE)
        s = PureState2Q(np.array([S2, 0, 0, 1j * S2]))
        out = apply(tensor(d, d), s)
        assert np.abs(out.amps - np.array([1j * S2, 0, 0, S2])).max() < 1e-12

    def test_norm_preserved_many_seeds(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            g = Gate2Q(random_unitary_4x4(rng))
            s = PureState2Q(random_state(rng))
            out = apply(g, s)
            assert abs(np.sum(np.abs(out.amps) ** 2) - 1.0) < 1e-10


class TestMeasure:
    def test_basis_state(self):
        assert np.allclose(measure(PureState2Q.ket00()).probs, [1, 0, 0, 0])

    def test_entangled_state(self):
        s = PureState2Q(np.array([S2, 0, 0, 1j * S2]))
        assert np.abs(measure(s).probs - np.array([0.5, 0, 0, 0.5])).max() < 1e-12

    def test_superposition_middle(self):
        s = PureState2Q(np.array([0, -S2, 1j * S2, 0]))
        expected = [abs(a) ** 2 for a in [0, -S2, 1j * S2, 0]]
        assert np.abs(measure(s).probs - np.array(expected)).max() < 1e-12
        assert np.abs(measure(s).probs - np.array([0, 0.5, 0.5, 0])).max() < 1e-12

    def test_sums_to_one_for_reachable_states(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            s = PureState2Q(random_state(rng))
            g = entangler(rng.uniform(0, np.pi / 2),
                          EntanglerMode.DEFECT if rng.random() < 0.5 else EntanglerMode.PAULI_X)
            p = measure(apply(g, s)).probs
            assert abs(p.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("build, field", [
    (OutcomeDistribution, "probs"),
    (JointDistribution, "mu"),
    (lambda m: Bimatrix(m.reshape(2, 2), np.eye(2)), "row_payoffs"),
    (lambda m: Bimatrix(np.eye(2), m.reshape(2, 2)), "col_payoffs"),
], ids=["OutcomeDistribution", "JointDistribution", "Bimatrix.row", "Bimatrix.col"])
def test_validated_types_copy_their_input(build, field):
    mine = np.full(4, 0.25)
    stored = getattr(build(mine), field)
    mine[0] = 1.0  # the caller's array stays writable
    assert stored.ravel()[0] == 0.25
    with pytest.raises(ValueError):
        stored[(0,) * stored.ndim] = 1.0


class TestValidation:
    def test_gate_requires_unitary(self):
        with pytest.raises(ValidationError):
            Gate1Q([[1, 0], [0, 2]])
        with pytest.raises(ValidationError):
            Gate2Q(np.diag([1, 1, 1, 0.5]))

    def test_gate_rejects_nan(self):
        with pytest.raises(ValidationError):
            Gate1Q([[np.nan, 0], [0, 1]])

    def test_state_requires_normalization(self):
        with pytest.raises(ValidationError):
            PureState2Q([1, 1, 0, 0])

    def test_distribution_bounds(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution([0.5, 0.6, 0, 0])
        with pytest.raises(ValidationError):
            OutcomeDistribution([-0.1, 0.6, 0.5, 0])

    @pytest.mark.parametrize("amps, message", [
        ([np.nan, 0, 0, 0], "PureState2Q: amplitudes must be finite"),
        ([1, 0, np.inf, 0], "PureState2Q: amplitudes must be finite"),
        ([1, 0, 0, -np.inf], "PureState2Q: amplitudes must be finite"),
        ([complex(0, -np.inf), 0, 0, 0], "PureState2Q: amplitudes must be finite"),
        ([1e200, 0, 0, 0], "PureState2Q is not normalized (|norm^2 - 1| = inf)"),
        ([np.sqrt(1 + 2e-9), 0, 0, 0],
         "PureState2Q is not normalized (|norm^2 - 1| = 2.000e-09)"),
        ([0, S2, 0, S2 * np.sqrt(1 - 4e-9)],
         "PureState2Q is not normalized (|norm^2 - 1| = 2.000e-09)"),
        ([1, 0, 0], "PureState2Q: expected 4 amplitudes, got shape (3,)"),
        ([[1, 0], [0, 0]], "PureState2Q: expected 4 amplitudes, got shape (2, 2)"),
    ])
    def test_state_rejection_messages(self, amps, message):
        with pytest.raises(ValidationError) as err:
            PureState2Q(amps)
        assert type(err.value) is ValidationError and str(err.value) == message

    def test_state_accepts_norm_within_tolerance(self):
        for amps in ([np.sqrt(1 + 5e-10), 0, 0, 0], [0, 0, 1j * np.sqrt(1 - 5e-10), 0]):
            assert PureState2Q(amps).amps.tolist() == np.array(amps, dtype=complex).tolist()

    @pytest.mark.parametrize("probs, message", [
        ([np.nan, 0, 0, 1], "OutcomeDistribution: probabilities must be finite"),
        ([0, np.inf, 0, 1], "OutcomeDistribution: probabilities must be finite"),
        ([-2e-9, 0.5, 0.5, 2e-9],
         "OutcomeDistribution: probabilities outside [0,1]: [-2e-09, 0.5, 0.5, 2e-09]"),
        ([1 + 2e-9, 0, 0, 0],
         "OutcomeDistribution: probabilities outside [0,1]: [1.000000002, 0.0, 0.0, 0.0]"),
        ([0.5, 0.5 + 2e-9, 0, 0], "OutcomeDistribution does not sum to 1 "
         f"(sum={np.float64(0.5 + (0.5 + 2e-9))!r})"),
        ([0.25, 0.25, 0.25, 0.25 - 2e-9], "OutcomeDistribution does not sum to 1 "
         f"(sum={np.float64(0.75 + (0.25 - 2e-9))!r})"),
        ([0.5, 0.5], "OutcomeDistribution: expected 4 probabilities, got (2,)"),
    ])
    def test_distribution_rejection_messages(self, probs, message):
        with pytest.raises(ValidationError) as err:
            OutcomeDistribution(probs)
        assert type(err.value) is ValidationError and str(err.value) == message

    def test_distribution_accepts_the_tolerance_edges(self):
        for probs in ([-1e-9, 0.5, 0.5, 1e-9], [1 + 1e-9, 0, 0, -1e-9],
                      [0.5, 0.5 + 5e-10, 0, 0], [0.25, 0.25, 0.25, 0.25 - 5e-10]):
            assert OutcomeDistribution(probs).probs.tolist() == probs

    def test_values_immutable(self):
        ket = PureState2Q([S2, 0, 0, 1j * S2])
        mixed = MixedQuantumStrategy([(0.5, Gate1Q(I2)), (0.5, Gate1Q(SIGMA_X))])
        values = [
            (Gate1Q(I2), "matrix", "Gate1Q([[(1+0j), 0j], [0j, (1+0j)]])"),
            (Gate2Q(np.eye(4)), "matrix",
             "Gate2Q([[(1+0j), 0j, 0j, 0j], [0j, (1+0j), 0j, 0j], "
             "[0j, 0j, (1+0j), 0j], [0j, 0j, 0j, (1+0j)]])"),
            (ket, "amps", "PureState2Q([(0.7071067811865475+0j), 0j, 0j, 0.7071067811865475j])"),
            (OutcomeDistribution([0.5, 0, 0, 0.5]), "probs",
             "OutcomeDistribution([0.5, 0.0, 0.0, 0.5])"),
            (JointDistribution([0.25, 0.25, 0.5, 0]), "mu",
             "JointDistribution([0.25, 0.25, 0.5, 0.0])"),
            (DensityMatrix2Q.from_pure(ket), "entries", None),
            (mixed, "support", None),
        ]
        for value, field, want_repr in values:
            name = type(value).__name__
            for attr in (field, "other"):
                with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                    setattr(value, attr, getattr(value, field))
            arrays = [getattr(value, field)]
            if value is mixed:
                arrays = [g.matrix for _, g in mixed.support]
            for a in arrays:
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 5
            text = repr(value)
            assert text.startswith(f"{name}(")
            if want_repr is not None:
                assert text == want_repr
