"""Validated values and constants of the two-qubit protocol.

Conventions used throughout the package:
  * State vectors are length-4 complex128 arrays over the computational
    basis in the fixed order |00>, |01>, |10>, |11>.
  * The left bit belongs to Player I (row player), the right bit to
    Player II (column player).
  * 1-qubit gates are 2x2 complex128 matrices; in U1 (x) U2 the left
    factor acts on Player I's qubit.
  * The entangler is J(g) = cos(g/2) I + i sin(g/2) G, G per
    EntanglerMode; ewl applies G as a signed reversal of the basis.
  * Everything is evaluated exactly (no sampling); an
    OutcomeDistribution is the full Born-rule distribution over the
    game's cells, and the type of a correlated equilibrium's too.
  * Every count and real field is read by check_integer (counts, seeds)
    or check_real (reals, stored as floats), every flag by check_bool and
    every array field by check_numeric (its shape, entries and finiteness):
    a wrong type or a bad array is a ValidationError, a value out of
    range a RangeError.  check_instance, check_choice and check_sequence
    refuse every other argument.
  * A value is checked once, where it enters.  A run's distribution and
    final state are the kernel's arrays for checked inputs, stored by
    _Value._of without __init__'s checks: two inputs each inside the
    1e-9 bound may put their norm or sum about 2e-9 from 1.

The value types of a run configuration live here too, so that reading
a config loads no solver: the search settings (Player, SearchConfig),
the noise channel (NoiseKind, ChannelLocation, NoiseSpec) and the
tournament set-up (NamedGate, AgentKind, AgentSpec, TournamentConfig).
"""
from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import RangeError, ValidationError


# the bound of every state, distribution and unitary check
_ATOL = 1e-9

GAMMA_MIN = 0.0
GAMMA_MAX = np.pi / 2


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
    """Base of the validated value types.  Each stores its fields, the
    first named first in its __slots__, set once by __init__ through
    object.__setattr__; an array field is stored read-only.  Values
    compare by type and public fields (arrays by entries), and equal
    values hash alike."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _of(cls, array: np.ndarray):
        """The value of array, which the package computed from checked
        values: stored read-only, with none of __init__'s checks."""
        value = object.__new__(cls)
        array.setflags(write=False)
        object.__setattr__(value, cls.__slots__[0], array)
        return value

    def _public(self) -> list:
        return [getattr(self, name) for name in self.__slots__ if name[0] != "_"]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(self._public(), other._public()))

    def __hash__(self):  # + 0.0 turns -0.0 into 0.0
        return hash((type(self), *((v + 0.0).tobytes() if isinstance(v, np.ndarray) else v
                                   for v in self._public())))

    def __repr__(self):
        value = getattr(self, self.__slots__[0])
        if isinstance(value, np.ndarray):
            value = value.tolist()
        return f"{type(self).__name__}({value!r})"


class Gate1Q(_Value):
    """A validated 2x2 unitary; the carrier for player strategies."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = check_numeric("Gate1Q", matrix, np.complex128, (2, 2))
        err = np.abs(m.conj().T @ m - I2).max()
        if err > _ATOL:
            raise ValidationError(
                f"Gate1Q is not unitary (max deviation {err:.3e} > {_ATOL:.1e})")
        object.__setattr__(self, "matrix", m)


def gate_matrix(u) -> np.ndarray:
    """The matrix of a Gate1Q, or of a raw 2x2 matrix validated as one."""
    return (u if isinstance(u, Gate1Q) else Gate1Q(u)).matrix


class PureState2Q(_Value):
    """A normalized two-qubit state vector."""

    __slots__ = ("amps",)

    def __init__(self, amps):
        a = check_numeric("PureState2Q", amps, np.complex128, (4,))
        # finite amplitudes whose norm overflows (1e200) are not normalized
        norm_err = abs(float(np.vdot(a, a).real) - 1.0)
        if not norm_err <= _ATOL:
            raise ValidationError(
                f"PureState2Q is not normalized (|norm^2 - 1| = {norm_err:.3e})")
        object.__setattr__(self, "amps", a)


class OutcomeDistribution(_Value):
    """Probabilities over the four measurement outcomes, basis order:
    the game cells (0,0), (0,1), (1,0), (1,1)."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        p = check_numeric("OutcomeDistribution", probs, np.float64, (4,))
        p0, p1, p2, p3 = values = p.tolist()
        if min(values) < -_ATOL or max(values) > 1.0 + _ATOL:
            raise ValidationError(f"OutcomeDistribution: probabilities outside [0,1]: {values}")
        total = p0 + p1 + p2 + p3
        if abs(total - 1.0) > _ATOL:
            raise ValidationError(f"OutcomeDistribution does not sum to 1 (sum={total!r})")
        object.__setattr__(self, "probs", p)

    def prob(self, row: int, col: int) -> float:
        """The probability of the game cell (row, col), outcome |row col>."""
        return float(self.probs[2 * row + col])


def check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf,
               spill: float = 0.0) -> float:
    """A bounded real as a float: numpy scalars and Fractions pass, a
    bool or any other non-real is a ValidationError, and a NaN, an
    infinity or a value more than `spill` outside [lo, hi] a RangeError;
    a value less than `spill` outside is clamped onto the range."""
    if type(value) is not float:  # a float, the common case, needs no conversion
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int or Fraction beyond the float range
            value = math.inf
    if lo <= value <= hi and math.isfinite(value):
        return value
    if not (lo - spill <= value <= hi + spill and math.isfinite(value)):
        raise RangeError(f"{name}={value!r} outside [{lo:.6g}, {hi:.6g}]")
    return min(max(value, lo), hi)


def check_bool(name: str, value) -> bool:
    """A flag as a bool: a bool or numpy bool passes, anything else is a
    ValidationError."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def check_instance(name: str, value, cls) -> None:
    """A ValidationError where value is not a cls."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValidationError(f"{name} must be {article} {cls.__name__}, got {value!r}")


def check_choice(name: str, value, table: dict):
    """table[value], or a ValidationError naming table's keys."""
    try:
        return table[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValidationError(f"{name} must be {' or '.join(map(repr, table))}, "
                              f"got {value!r}") from None


def check_sequence(name: str, value, what: str, length: int = 0) -> tuple:
    """value's entries as a tuple, or a ValidationError saying that name
    must be what: value is not iterable, empty or not of a given length."""
    try:
        entries = tuple(value)
    except TypeError:  # not iterable
        entries = ()
    if not entries or length and len(entries) != length:
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    return entries


def check_numeric(what: str, value, dtype, shape: tuple) -> np.ndarray:
    """value's numbers as a new read-only array of shape and of dtype, a
    numpy scalar type.  An int, float or (for a complex dtype) complex
    ndarray is read by its dtype alone, any other value entry by entry.
    A ValidationError refuses another shape, a bool, a complex entry for
    a real dtype, any other non-number (a Decimal is a number) and an
    entry with no finite float value (NaN, 10**400).  Numbers keep their
    bits: numpy converts."""
    real = issubclass(dtype, np.floating)
    array = value
    if not (type(value) is np.ndarray and value.dtype.kind in ("iuf" if real else "iufc")):
        try:
            array = np.array(value, dtype=object)
        except ValueError:  # nested arrays of unequal shapes
            raise ValidationError(f"{what}: expected shape {shape}, got a ragged value") from None
    if array.shape != shape:
        raise ValidationError(f"{what}: expected shape {shape}, got {array.shape}")
    if array.dtype == object:
        number = (numbers.Real if real else numbers.Complex, Decimal)
        for x in array.flat:
            if isinstance(x, bool) or not isinstance(x, number):
                raise ValidationError(f"{what}: entries must be {'real ' * real}numbers, got {x!r}")
    try:
        array = array.astype(dtype)
    except (TypeError, ValueError, OverflowError):  # no float value: 10**400, Decimal("sNaN")
        array = np.array(math.nan)
    if not all(map(cmath.isfinite, array.ravel().tolist())):  # np.isfinite costs 3x on 4 entries
        raise ValidationError(f"{what}: entries must be finite")
    array.setflags(write=False)
    return array


def clamp_gamma(gamma: float) -> float:
    """Validate the entanglement angle, absorbing <1e-12 rounding spill."""
    return check_real("gamma", gamma, GAMMA_MIN, GAMMA_MAX, 1e-12)


def check_integer(name: str, value, least: int) -> int:
    """A count or seed as an int: numpy integers pass, a bool or any other
    non-integer is a ValidationError, and a value below `least` a RangeError."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if n < least:
        raise RangeError(f"{name} must be >= {least}, got {value}")
    return n


_MAX_FLOATS = np.iinfo(np.intp).max // 8


def check_array_size(count: int, what: str) -> None:
    """RangeError where `count` float64 values are more bytes than numpy
    can index: it would refuse them with a ValueError, allocating nothing."""
    if count > _MAX_FLOATS:
        raise RangeError(f"{what}: more values than a numpy array can hold")


class Player(Enum):
    I = 1
    II = 2


@dataclass(frozen=True)
class SearchConfig:
    """Grid points per axis (landscapes, candidate grids) and the
    epsilon-Nash tolerance; best responses are exact and use no grid."""

    grid_resolution: int = 64
    eps_nash: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "grid_resolution",
                           check_integer("grid_resolution", self.grid_resolution, 2))
        object.__setattr__(self, "eps_nash", check_real("eps_nash", self.eps_nash, 0.0))
        if self.eps_nash == 0.0:
            raise RangeError(f"eps_nash must be positive and finite, got {self.eps_nash}")


class NoiseKind(Enum):
    NONE = "none"
    PER_QUBIT_DEPOLARIZING = "per_qubit_depolarizing"
    TWO_QUBIT_DEPOLARIZING = "two_qubit_depolarizing"


class ChannelLocation(Enum):
    RETURN = "return"    # after player gates, before the disentangler
    FORWARD = "forward"  # after the entangler, before player gates


@dataclass(frozen=True)
class NoiseSpec:
    kind: NoiseKind = NoiseKind.NONE
    p: float = 0.0
    location: ChannelLocation = ChannelLocation.RETURN

    def __post_init__(self):
        check_instance("kind", self.kind, NoiseKind)
        check_instance("location", self.location, ChannelLocation)
        object.__setattr__(self, "p", check_real("noise probability p", self.p, 0.0, 1.0))


class NamedGate(NamedTuple):
    name: str
    gate: Gate1Q


class AgentKind(Enum):
    FIXED = "fixed"
    GRIM_TRIGGER = "grim_trigger"
    TIT_FOR_TAT = "tit_for_tat"
    EPSILON_GREEDY_BANDIT = "epsilon_greedy_bandit"


@dataclass(frozen=True)
class AgentSpec:
    """A tournament agent: its kind, gate menu and parameters, and the
    rule each kind plays by.

    A trigger plays menu[0], the cooperative gate, until it fires, and
    then menu[-1], the punishment.  It fires in a round where the
    opponent's defect mass (the outcome mass on the opponent's
    defect-labeled states, or the sampled outcome's 0 or 1 when outcomes
    are sampled) exceeds trigger_threshold.  fixed never fires;
    grim_trigger punishes in every round after the first firing, and
    tit_for_tat in each round right after one where it fires.
    epsilon_greedy_bandit learns: it keeps one value per menu entry,
    starting at 0, explores a uniformly drawn entry when a random() draw
    falls below epsilon, and otherwise plays the first entry of greatest
    value; the played entry's value then moves learning_rate of the way
    to the round's payoff.
    """

    kind: AgentKind
    menu: tuple
    epsilon: float = 0.1
    learning_rate: float = 0.1
    trigger_threshold: float = 0.5

    def __post_init__(self):
        check_instance("kind", self.kind, AgentKind)
        menu = check_sequence("menu", self.menu, "a nonempty sequence of NamedGate")
        for entry in menu:
            check_instance("menu entry", entry, NamedGate)
            check_instance("menu entry gate", entry.gate, Gate1Q)
            check_instance("menu entry name", entry.name, str)
        object.__setattr__(self, "menu", menu)
        for name in ("epsilon", "learning_rate", "trigger_threshold"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0, 1.0))
        if self.learning_rate == 0.0:
            raise RangeError(f"learning_rate={self.learning_rate!r} outside (0,1]")


@dataclass(frozen=True)
class TournamentConfig:
    rounds: int
    gamma: float = GAMMA_MAX
    mode: EntanglerMode = EntanglerMode.DEFECT
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    sampled_outcomes: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rounds", check_integer("rounds", self.rounds, 1))
        object.__setattr__(self, "seed", check_integer("seed", self.seed, 0))
        object.__setattr__(self, "gamma", clamp_gamma(self.gamma))
        check_instance("mode", self.mode, EntanglerMode)
        check_instance("noise", self.noise, NoiseSpec)
        object.__setattr__(self, "sampled_outcomes",
                           check_bool("sampled_outcomes", self.sampled_outcomes))
