"""Dense 4x4 reference for the protocol J-dagger (U1 x U2) J |00>.

The library computes the outcome amplitudes without a 4x4 matrix
(qgames.ewl.outcome_amplitudes).  This module builds the textbook
circuit in plain numpy, so the tests can compare the two (Eisert,
Wilkens & Lewenstein, PRL 83, 3077 (1999)).  Gates are plain 2x2
arrays, and the entangler generators G are built here from their own
literals, independent of the library: a wrong G in the kernel fails
the kernel-versus-circuit tests.  haar_gates samples the unitaries
that tests feed to both.
"""
import numpy as np

KET00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)

_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_DG = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
# G by EntanglerMode value: sx (x) sx and Dg (x) Dg
GENERATORS = {"pauli_x": np.kron(_SX, _SX), "defect": np.kron(_DG, _DG)}


def entangler(gamma, mode):
    """J(gamma) = cos(gamma/2) I4 + i sin(gamma/2) G(mode), a 4x4 array."""
    return (np.cos(gamma / 2) * np.eye(4, dtype=np.complex128)
            + 1j * np.sin(gamma / 2) * GENERATORS[mode.value])


def local_pair(u1, u2):
    """U1 (x) U2; the left factor acts on Player I's qubit."""
    return np.kron(u1, u2)


def entangled_ket(gamma, mode):
    """J(gamma) |00>."""
    return entangler(gamma, mode) @ KET00


def final_amplitudes(gamma, mode, u1, u2):
    """J-dagger (U1 x U2) J |00>."""
    j = entangler(gamma, mode)
    return j.conj().T @ (local_pair(u1, u2) @ (j @ KET00))


def born_probs(amps):
    """Probabilities of the four outcomes, basis order."""
    return np.abs(amps) ** 2


def haar_gates(rng, n):
    """n Haar-random 2x2 unitaries (QR of complex Gaussian matrices with
    the phases of R's diagonal moved into Q; Mezzadri, Notices AMS 54,
    592 (2007))."""
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]
