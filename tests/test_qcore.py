"""Unit and property tests for the validated values of qgames.qcore,
their value equality, and the dense 4x4 circuit reference
(tests/circuit.py) that the kernel tests compare against: its
conventions are pinned here.

On the oldest numpy too (numpy_floor): the value types store read-only
arrays, print them through tolist() and hash them by bytes, with -0.0
and 0.0 alike.
"""
import numpy as np
import pytest

import qgames
from qgames import (
    Bimatrix,
    EntanglerMode,
    Gate1Q,
    MixedQuantumStrategy,
    OutcomeDistribution,
    Player,
    PureState2Q,
    best_correlated,
    best_response,
    canonical_gates,
    canonical_pd,
    hft_game,
    run_protocol,
)
from qgames.errors import RangeError, ValidationError
from qgames.qcore import DEFECT_GATE, I2, SIGMA_X, clamp_gamma

from circuit import KET00, entangled_ket, entangler, local_pair

pytestmark = pytest.mark.numpy_floor

S2 = 1.0 / np.sqrt(2.0)


def random_unitary_2x2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLocalPair:
    def test_identity_tensor_identity(self):
        assert np.allclose(local_pair(I2, I2), np.eye(4), atol=1e-12)

    def test_sigma_x_tensor_sigma_x_is_antidiagonal(self):
        got = local_pair(SIGMA_X, SIGMA_X)
        assert np.allclose(got, np.fliplr(np.eye(4)), atol=1e-12)

    def test_left_factor_acts_on_first_qubit(self):
        # (i sx (x) I)|00> = i|10>, checked against an explicit
        # matrix-vector product with no kron shortcut.
        m = local_pair(1j * SIGMA_X, I2)
        out = m @ KET00
        by_hand = np.zeros(4, dtype=complex)
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        for a in range(4):
            by_hand[a] = sum(m[a, b] * e0[b] for b in range(4))
        assert np.allclose(out, by_hand, atol=1e-15)
        assert np.allclose(out, [0, 0, 1j, 0], atol=1e-12)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = random_unitary_2x2(rng), random_unitary_2x2(rng)
            up, vp = random_unitary_2x2(rng), random_unitary_2x2(rng)
            left = local_pair(u, v) @ local_pair(up, vp)
            right = local_pair(u @ up, v @ vp)
            assert np.abs(left - right).max() < 1e-10


class TestEntangler:
    def test_zero_gamma_is_identity(self):
        for mode in EntanglerMode:
            got = entangler(0.0, mode)
            assert np.abs(got - np.eye(4)).max() < 1e-15

    def test_max_entanglement_matrix_corners(self):
        j = entangler(np.pi / 2, EntanglerMode.PAULI_X)
        expected = np.array([
            [S2, 0, 0, 1j * S2],
            [0, S2, 1j * S2, 0],
            [0, 1j * S2, S2, 0],
            [1j * S2, 0, 0, S2],
        ])
        assert np.abs(j - expected).max() < 1e-12

    def test_max_entanglement_on_ket00(self):
        for mode in EntanglerMode:
            out = entangled_ket(np.pi / 2, mode)
            assert np.abs(out - np.array([S2, 0, 0, 1j * S2])).max() < 1e-12

    def test_unitary_on_gamma_grid_both_modes(self):
        for mode in EntanglerMode:
            for g in np.linspace(0, np.pi / 2, 100):
                m = entangler(g, mode)
                assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-10

    def test_gamma_out_of_range(self):
        with pytest.raises(RangeError):
            clamp_gamma(-0.1)
        with pytest.raises(RangeError):
            clamp_gamma(np.pi / 2 + 1e-6)

    def test_gamma_clamp_absorbs_rounding(self):
        assert clamp_gamma(-1e-13) == 0.0
        assert clamp_gamma(np.pi / 2 + 1e-13) == np.pi / 2

    def test_defect_mode_generator(self):
        j = entangler(np.pi / 2, EntanglerMode.DEFECT)
        expected = S2 * np.eye(4) + 1j * S2 * np.kron(DEFECT_GATE, DEFECT_GATE)
        assert np.abs(j - expected).max() < 1e-12

    def test_inverse_of_entangler(self):
        j = entangler(np.pi / 2, EntanglerMode.PAULI_X)
        assert np.abs(j.conj().T @ j - np.eye(4)).max() < 1e-12

    def test_corner_entries_conjugated(self):
        jd = entangler(np.pi / 2, EntanglerMode.PAULI_X).conj().T
        # conjugate transpose by hand: corners flip the sign of i/sqrt(2)
        assert abs(jd[0, 0] - S2) < 1e-12
        assert abs(jd[3, 0] - (-1j * S2)) < 1e-12
        assert abs(jd[0, 3] - (-1j * S2)) < 1e-12

    def test_defect_pair_on_entangled_state(self):
        # D = [[0,1],[-1,0]]: D|0> = -|1>, D|1> = |0>, so
        # (D(x)D)(|00>+i|11>)/sqrt2 = (|11>+i|00>)/sqrt2.
        out = local_pair(DEFECT_GATE, DEFECT_GATE) @ np.array([S2, 0, 0, 1j * S2])
        assert np.abs(out - np.array([1j * S2, 0, 0, S2])).max() < 1e-12


def test_dense_circuit_api_is_not_in_the_library():
    for name in ("Gate2Q", "tensor", "entangler", "dagger", "apply", "measure"):
        assert not hasattr(qgames, name) and not hasattr(qgames.qcore, name)
    assert not hasattr(PureState2Q, "ket00") and not hasattr(Gate1Q, "dagger")


@pytest.mark.parametrize("build, field", [
    (OutcomeDistribution, "probs"),
    (lambda m: Bimatrix(m.reshape(2, 2), np.eye(2)), "row_payoffs"),
    (lambda m: Bimatrix(np.eye(2), m.reshape(2, 2)), "col_payoffs"),
], ids=["OutcomeDistribution", "Bimatrix.row", "Bimatrix.col"])
def test_validated_types_copy_their_input(build, field):
    mine = np.full(4, 0.25)
    stored = getattr(build(mine), field)
    mine[0] = 1.0  # the caller's array stays writable
    assert stored.ravel()[0] == 0.25
    with pytest.raises(ValueError):
        stored[(0,) * stored.ndim] = 1.0


ARRAY_TYPES = {  # each array value type: a valid input and one of numpy scalars, and its dtype
    "Gate1Q": (Gate1Q, [[1, 0], [0, 1]],
               [[np.complex64(1j), np.int8(0)], [0.0, np.float32(-1)]], np.complex128),
    "PureState2Q": (PureState2Q, [1, 0, 0, 0],
                    [np.float32(0.5), 0.5j, np.float64(-0.5), np.int64(0) + 0.5], np.complex128),
    "OutcomeDistribution": (OutcomeDistribution, [0.25, 0.25, 0.25, 0.25],
                            [np.float32(0.25), 0.25, np.int64(0), 0.5], np.float64),
}


class TestArrayEntries:
    """The array value types read numbers only: numpy would parse a
    string entry as a number and take a bool for 0 or 1."""

    @staticmethod
    def with_entry(valid, entry):
        """valid with its first entry replaced."""
        rows = [list(r) if isinstance(r, list) else r for r in valid]
        if isinstance(rows[0], list):
            rows[0][0] = entry
        else:
            rows[0] = entry
        return rows

    @pytest.mark.parametrize("name", ARRAY_TYPES)
    def test_str_bytes_and_bool_entries_are_refused(self, name):
        build, valid = ARRAY_TYPES[name][:2]
        text = np.array(valid).astype(str)
        bad = [self.with_entry(valid, e) for e in ("1", b"1", True, np.True_, np.str_("1"))]
        bad += [text, text.tolist(), text.astype(object), np.array(valid, dtype=bool)]
        for value in bad:
            with pytest.raises(ValidationError, match=f"^{name}: entries must be numbers"):
                build(value)

    @pytest.mark.parametrize("name", ARRAY_TYPES)
    def test_unreadable_entries_are_a_validation_error(self, name):
        build, valid = ARRAY_TYPES[name][:2]
        for entry in (None, {}, [1, 2], object()):
            with pytest.raises(ValidationError):
                build(self.with_entry(valid, entry))

    @pytest.mark.parametrize("name", ARRAY_TYPES)
    def test_numbers_keep_their_bits(self, name):
        build, valid, numbers, dtype = ARRAY_TYPES[name]
        for value in (valid, numbers, np.array(valid, dtype=object),
                      np.array(valid, dtype=np.float32), np.array(numbers)):
            want = np.array(value, dtype=dtype)
            assert getattr(build(value), build.__slots__[0]).tobytes() == want.tobytes()


class TestValueEquality:
    """Validated values, and the frozen dataclasses holding them, compare
    by value: two answers to the same question are equal."""

    def test_equal_answers_compare_equal(self):
        pd, mode = canonical_pd(), EntanglerMode.PAULI_X
        named = canonical_gates(mode)
        assert run_protocol(pd, 1.0, mode, named.Q, named.D) == run_protocol(
            pd, 1.0, mode, named.Q, named.D)
        assert best_response(pd, 1.0, mode, named.Q, Player.I, "B") == best_response(
            pd, 1.0, mode, named.Q.matrix, Player.I, "B")
        assert canonical_gates(mode) == named
        assert hash(canonical_gates(mode)) == hash(named)
        half = [(0.5, named.C), (0.5, named.Q)]
        assert MixedQuantumStrategy(half) == MixedQuantumStrategy(
            [(0.5, Gate1Q(I2)), (0.5, named.Q.matrix)])
        assert MixedQuantumStrategy(half) != MixedQuantumStrategy(half[::-1])

    def test_signed_zeros_hash_alike(self):
        plus = Gate1Q([[1.0, 0.0], [0.0, 1.0]])
        minus = Gate1Q([[1.0, -0.0], [complex(-0.0, -0.0), 1.0]])
        assert np.signbit(minus.matrix.view(np.float64)).any()
        assert plus == minus and hash(plus) == hash(minus)
        probs = OutcomeDistribution([0.5, 0.0, 0.0, 0.5]), OutcomeDistribution([0.5, -0.0, 0.0, 0.5])
        assert probs[0] == probs[1] and hash(probs[0]) == hash(probs[1])
        assert len({plus, minus, Gate1Q(I2)}) == 1

    def test_games_compare_by_tables_and_labels(self):
        assert canonical_pd() == canonical_pd() and hash(canonical_pd()) == hash(canonical_pd())
        assert canonical_pd() != hft_game()  # the same payoffs, other labels
        assert canonical_pd() != Bimatrix(np.eye(2), np.eye(2))
        assert {canonical_pd(): "pd"}[canonical_pd()] == "pd"
        plus = Bimatrix([[0.0, 1.0], [2.0, 3.0]], np.eye(2))
        minus = Bimatrix([[-0.0, 1.0], [2.0, 3.0]], np.eye(2))
        assert np.signbit(minus.row_payoffs[0, 0])
        assert plus == minus and hash(plus) == hash(minus)

    def test_types_and_entries_tell_values_apart(self):
        probs = [0.25, 0.25, 0.5, 0.0]
        assert OutcomeDistribution(probs) != OutcomeDistribution(probs[::-1])
        assert Gate1Q(I2) != Gate1Q(-I2)  # a global phase is a different gate
        assert PureState2Q([1, 0, 0, 0]) != PureState2Q([0, 0, 0, 1])
        assert Gate1Q(I2).__eq__(I2) is NotImplemented  # numpy's == decides then


class TestValidation:
    def test_gate_requires_unitary(self):
        with pytest.raises(ValidationError):
            Gate1Q([[1, 0], [0, 2]])

    def test_gate_rejects_nan(self):
        with pytest.raises(ValidationError):
            Gate1Q([[np.nan, 0], [0, 1]])

    def test_gate_is_2x2(self):
        with pytest.raises(ValidationError) as info:
            Gate1Q(np.eye(3))
        assert str(info.value) == "Gate1Q: expected a 2x2 matrix, got shape (3, 3)"

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
            (ket, "amps", "PureState2Q([(0.7071067811865475+0j), 0j, 0j, 0.7071067811865475j])"),
            (OutcomeDistribution([0.5, 0, 0, 0.5]), "probs",
             "OutcomeDistribution([0.5, 0.0, 0.0, 0.5])"),
            (best_correlated(Bimatrix([[6, 2], [7, 0]], [[6, 7], [2, 0]])), "probs",
             "OutcomeDistribution([0.5, 0.25, 0.25, 0.0])"),
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
