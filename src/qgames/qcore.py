"""Validated values and constants of the two-qubit protocol.

Conventions used throughout the package:
  * State vectors are length-4 complex128 arrays over the computational
    basis in the fixed order |00>, |01>, |10>, |11>.
  * The left bit belongs to Player I (row player), the right bit to
    Player II (column player).
  * 1-qubit gates are 2x2 complex128 matrices; in U1 (x) U2 the left
    factor acts on Player I's qubit.
  * The entangler is J(g) = cos(g/2) I + i sin(g/2) G; _GENERATORS
    holds the one definition of G per EntanglerMode.
  * Everything is evaluated exactly (no sampling); an
    OutcomeDistribution is the full Born-rule distribution.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import RangeError, ValidationError


# the bound of every state, distribution and unitary check
_ATOL = 1e-9

GAMMA_MIN = 0.0
GAMMA_MAX = np.pi / 2
_GAMMA_CLAMP = 1e-12


class EntanglerMode(Enum):
    """Generator choice for the entangling gate.

    PAULI_X builds cos(g/2) I(x)I + i sin(g/2) sx(x)sx.  DEFECT swaps the
    sx(x)sx generator for Dg(x)Dg, where Dg = [[0,1],[-1,0]] is the
    canonical defect gate; that generator commutes with Dg on either
    qubit, so classical play embeds correctly at every entanglement
    level (PAULI_X only embeds the i*sx defect correctly).
    """

    PAULI_X = "pauli_x"
    DEFECT = "defect"


I2 = np.eye(2, dtype=np.complex128)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
DEFECT_GATE = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
for _m in (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, DEFECT_GATE):
    _m.setflags(write=False)


class _Value:
    """Base of the validated value types.  Each stores one field, named
    first in its __slots__, set once by __init__ through
    object.__setattr__; an array field is stored read-only."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        value = getattr(self, self.__slots__[0])
        if isinstance(value, np.ndarray):
            value = value.tolist()
        return f"{type(self).__name__}({value!r})"


class Gate1Q(_Value):
    """A validated 2x2 unitary; the carrier for player strategies."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValidationError(f"Gate1Q: expected a 2x2 matrix, got shape {m.shape}")
        if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
            raise ValidationError("Gate1Q: entries must be finite")
        err = np.abs(m.conj().T @ m - I2).max()
        if err > _ATOL:
            raise ValidationError(
                f"Gate1Q is not unitary (max deviation {err:.3e} > {_ATOL:.1e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def gate_matrix(u) -> np.ndarray:
    """The matrix of a Gate1Q, or of a raw 2x2 matrix validated as one."""
    return (u if isinstance(u, Gate1Q) else Gate1Q(u)).matrix


class PureState2Q(_Value):
    """A normalized two-qubit state vector."""

    __slots__ = ("amps",)

    def __init__(self, amps):
        a = np.array(amps, dtype=np.complex128)
        if a.shape != (4,):
            raise ValidationError(f"PureState2Q: expected 4 amplitudes, got shape {a.shape}")
        norm = float(np.vdot(a, a).real)
        # a finite norm implies finite amplitudes; an overflowing norm
        # of finite ones (1e200) is reported as not normalized below
        if not math.isfinite(norm) and not (
                np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
            raise ValidationError("PureState2Q: amplitudes must be finite")
        norm_err = abs(norm - 1.0)
        if not norm_err <= _ATOL:
            raise ValidationError(
                f"PureState2Q is not normalized (|norm^2 - 1| = {norm_err:.3e})")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)


class OutcomeDistribution(_Value):
    """Probabilities over the four measurement outcomes, basis order."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = np.array(probs, dtype=np.float64)
        if p.shape != (4,):
            raise ValidationError(f"OutcomeDistribution: expected 4 probabilities, got {p.shape}")
        p0, p1, p2, p3 = values = p.tolist()
        if not all(map(math.isfinite, values)):
            raise ValidationError("OutcomeDistribution: probabilities must be finite")
        if min(values) < -_ATOL or max(values) > 1.0 + _ATOL:
            raise ValidationError(f"OutcomeDistribution: probabilities outside [0,1]: {values}")
        # summed in the order numpy's p.sum() adds four values
        if abs(p0 + p1 + p2 + p3 - 1.0) > _ATOL:
            raise ValidationError(f"OutcomeDistribution does not sum to 1 (sum={p.sum()!r})")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def clamp_gamma(gamma: float) -> float:
    """Validate the entanglement angle, absorbing <1e-12 rounding spill."""
    g = float(gamma)
    if not math.isfinite(g):
        raise RangeError("gamma must be finite")
    if g < GAMMA_MIN:
        if GAMMA_MIN - g >= _GAMMA_CLAMP:
            raise RangeError(f"gamma={g!r} below allowed range [0, pi/2]")
        g = GAMMA_MIN
    elif g > GAMMA_MAX:
        if g - GAMMA_MAX >= _GAMMA_CLAMP:
            raise RangeError(f"gamma={g!r} above allowed range [0, pi/2]")
        g = GAMMA_MAX
    return g


_MAX_FLOATS = np.iinfo(np.intp).max // 8


def check_array_size(count: int, what: str) -> None:
    """RangeError where `count` float64 values are more bytes than numpy
    can index: it would refuse them with a ValueError, allocating nothing."""
    if count > _MAX_FLOATS:
        raise RangeError(f"{what}: more values than a numpy array can hold")


_GENERATORS = {
    EntanglerMode.PAULI_X: np.kron(SIGMA_X, SIGMA_X),
    EntanglerMode.DEFECT: np.kron(DEFECT_GATE, DEFECT_GATE),
}
for _m in _GENERATORS.values():
    _m.setflags(write=False)


def entangler_generator(mode: EntanglerMode) -> np.ndarray:
    try:
        return _GENERATORS[mode]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown entangler mode: {mode!r}") from None
