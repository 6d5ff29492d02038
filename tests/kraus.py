"""Kraus density-matrix reference for the depolarizing channels.

The library evaluates noise only as an exact Pauli mixture of protocol
runs (qgames.ewl.run_protocol).  This module computes the same answers
the textbook way, on 4x4 density matrices in plain numpy, so the tests
can compare the two (Nielsen & Chuang 8.3).
"""
import numpy as np

from qgames import ChannelLocation, NoiseKind
from qgames.qcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z

from circuit import entangler, local_pair


def depolarizing_kraus_1q(p):
    """Kraus set {sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z}."""
    w = np.sqrt(p / 3.0)
    return [np.sqrt(1.0 - p) * I2, w * SIGMA_X, w * SIGMA_Y, w * SIGMA_Z]


def apply_channel(rho, kind, p):
    """The channel of the given NoiseKind and level p applied to the 4x4
    density matrix rho, as a Kraus sum (per-qubit: on each qubit in turn)."""
    if kind == NoiseKind.NONE or p == 0.0:
        return rho
    if kind == NoiseKind.TWO_QUBIT_DEPOLARIZING:
        return (1.0 - p) * rho + p * np.trace(rho).real * np.eye(4) / 4.0
    for position in (0, 1):
        acc = np.zeros_like(rho)
        for k in depolarizing_kraus_1q(p):
            full = np.kron(k, I2) if position == 0 else np.kron(I2, k)
            acc += full @ rho @ full.conj().T
        rho = acc
    return rho


def kraus_probs(gamma, mode, u1, u2, kind, p, location):
    """Outcome probabilities of the protocol J-dagger (U1 x U2) J |00>,
    run on a density matrix, with the channel inserted after the players'
    gates (RETURN) or after the entangler (FORWARD)."""
    j = entangler(gamma, mode)
    u = local_pair(u1, u2)
    rho = np.outer(j[:, 0], j[:, 0].conj())  # J|00>
    if location == ChannelLocation.FORWARD:
        rho = apply_channel(rho, kind, p)
    rho = u @ rho @ u.conj().T
    if location == ChannelLocation.RETURN:
        rho = apply_channel(rho, kind, p)
    return np.real(np.diag(j.conj().T @ rho @ j))
