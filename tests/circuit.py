"""Dense 4x4 reference for the protocol J-dagger (U1 x U2) J |00>.

The library computes the outcome amplitudes without a 4x4 matrix
(qgames.ewl.outcome_amplitudes).  This module builds the textbook
circuit in plain numpy, so the tests can compare the two (Eisert,
Wilkens & Lewenstein, PRL 83, 3077 (1999)).  Gates are plain 2x2
arrays; G is read from qgames.qcore, the one definition of the
entangler generator.
"""
import numpy as np

from qgames.qcore import entangler_generator

KET00 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)


def entangler(gamma, mode):
    """J(gamma) = cos(gamma/2) I4 + i sin(gamma/2) G(mode), a 4x4 array."""
    return (np.cos(gamma / 2) * np.eye(4, dtype=np.complex128)
            + 1j * np.sin(gamma / 2) * entangler_generator(mode))


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
