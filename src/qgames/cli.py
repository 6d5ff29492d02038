"""Command-line surface: JSON config in, CSV data + JSON summaries out.

Angles in configs may be given as radians or as exact "pi" fractions
("pi/2", "3pi/4", "-pi/3", "0.5pi").  Strategies are named ("C", "D",
"Q"), parametric ("A(theta,phi)", "B(theta,alpha,beta)"), or mixtures
("mixed:[[0.5,\"C\"],[0.5,\"Q\"]]").  Identical configs produce
byte-identical report files.

A command scores no profile itself: `payoff` and `sweep` call `ewl`'s
evaluators (`noise` is `payoff`'s answer for pure players, with the
channel echoed), and the other commands import what they call from
`search` and `hft` when they run, so a `qgames` process loads only its
own command's code; every config is still read and validated in full,
through `qgames.qcore`'s config types, which hold the schema's defaults.
"""
from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, QGamesError, RangeError, ValidationError
from .ewl import (
    SPACES,
    CanonicalGates,
    MixedQuantumStrategy,
    StrategyParamsB,
    canonical_gates,
    gamma_sweep,
    run_protocol,
)
from .games import (
    OBJECTIVES,
    Bimatrix,
    best_correlated,
    canonical_pd,
    expected_payoff,
    hft_game,
    is_correlated_equilibrium,
    mixed_nash,
    pareto_optimal,
    pure_nash,
)
from .qcore import (
    AgentKind,
    AgentSpec,
    ChannelLocation,
    EntanglerMode,
    Gate1Q,
    NamedGate,
    NoiseKind,
    NoiseSpec,
    Player,
    SearchConfig,
    TournamentConfig,
    check_real,
    clamp_gamma,
)

ENV_OUT_DIR = "QGAMES_OUT"
DEFAULT_OUT_DIR = "reports"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

FORMATS = ("csv", "json")  # the report formats, the default first

# One ASCII grammar for every number in an angle string: sign, digits,
# optional fraction and exponent (what repr() writes for a finite float).
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(rf"^\s*({_NUMBER})\s*$", re.ASCII)
_PI_RE = re.compile(rf"^\s*({_NUMBER}|[+-]?)\s*\*?\s*pi\s*(?:/\s*({_NUMBER}))?\s*$",
                    re.ASCII | re.IGNORECASE)


def parse_angle(value, field: str = "angle") -> float:
    """Accept a finite radian number or an exact pi-fraction string."""
    if not isinstance(value, str):
        return _number(value, field)
    if m := _NUMBER_RE.fullmatch(value):
        angle = float(m.group(1))
    elif (m := _PI_RE.fullmatch(value)) and float(m.group(2) or 1) != 0:
        coef, div = m.groups()
        angle = float(coef + "1" if coef in ("", "+", "-") else coef) * math.pi / float(div or 1)
    else:
        raise ConfigError(f"{field}: cannot parse angle {value!r}")
    if not math.isfinite(angle):
        raise ConfigError(f"{field}: must be finite, got {value!r}")
    return angle


_PARAM_STRATEGY_RE = re.compile(rf"^\s*({'|'.join(SPACES)})\s*\(([^)]*)\)\s*$", re.ASCII)


def parse_strategy(spec, mode: EntanglerMode, field: str = "strategy"
                   ) -> Union[Gate1Q, MixedQuantumStrategy]:
    """Resolve a strategy spec string to a gate or a mixture."""
    if isinstance(spec, str):
        text = spec.strip()
        named = canonical_gates(mode)
        if text in CanonicalGates._fields:
            return getattr(named, text)
        m = _PARAM_STRATEGY_RE.match(text)
        if m:
            family, args_txt = m.group(1), m.group(2)
            args = [parse_angle(a, field=f"{field}:{family}")
                    for a in args_txt.split(",") if a.strip() != ""]
            n = len(SPACES[family].BOUNDS)
            if len(args) != n:
                raise ConfigError(f"{field}: {family}(...) takes {n} angles, got {len(args)}")
            try:
                return SPACES[family](*args).gate()
            except ValidationError as exc:
                raise ConfigError(f"{field}: {exc}") from exc
        if text.startswith("mixed:"):
            try:
                entries = json.loads(text[len("mixed:"):])
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{field}: malformed mixed strategy: {exc}") from None
            if not isinstance(entries, list) or not entries:
                raise ConfigError(f"{field}: mixed strategy needs a nonempty list")
            support = []
            for entry in entries:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise ConfigError(f"{field}: mixed entries are [weight, strategy] pairs")
                weight, inner = entry
                gate = parse_strategy(inner, mode, field=f"{field}:mixed")
                if isinstance(gate, MixedQuantumStrategy):
                    raise ConfigError(f"{field}: nested mixed strategies are not supported")
                support.append((_number(weight, f"{field}:mixed weight"), gate))
            try:
                return MixedQuantumStrategy(support)
            except ValidationError as exc:
                raise ConfigError(f"{field}: {exc}") from exc
        raise ConfigError(f"{field}: unknown strategy spec {spec!r}")
    raise ConfigError(f"{field}: expected a strategy string, got {type(spec).__name__}")


# The config schema.  A reader takes a raw JSON value and the key path it
# sits at, and returns the canonical JSON value or raises ConfigError.  A
# table maps each key to (default, reader), or to a nested table for a
# section; an absent key reads its default.

def _shown(value) -> str:
    """value for an error message; containers by size only."""
    if isinstance(value, list):
        return f"a list of {len(value)}"
    return "an object" if isinstance(value, dict) else repr(value)


def _integer(value, where: str) -> int:
    """A JSON integer; an integral float such as 1e4 reads as an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {_shown(value)}")
    return value


def _number(value, where: str) -> float:
    """A finite JSON number, as a float."""
    try:
        return check_real(where, value)
    except ValidationError:
        raise ConfigError(f"{where}: expected a finite number, got {_shown(value)}") from None


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {_shown(value)}")
    return value


def _text(value, where: str) -> str:
    """A string that a file name and a UTF-8 report can hold."""
    if isinstance(value, str) and "\0" not in value:
        try:
            value.encode("utf-8")
            return value
        except UnicodeEncodeError:
            pass
    raise ConfigError(f"{where}: expected a string without NUL or lone surrogates, "
                      f"got {_shown(value)}")


def _one_of(*choices):
    def read(value, where):
        if value not in choices:
            raise ConfigError(f"{where}: expected one of {list(choices)}, got {_shown(value)}")
        return value
    return read


def _list_of(item, length: Optional[int] = None):
    """A nonempty JSON array of items; of exactly `length` when given."""
    def read(value, where):
        if not (isinstance(value, list) and value and length in (None, len(value))):
            want = f"a list of {length}" if length else "a nonempty list"
            raise ConfigError(f"{where}: expected {want}, got {_shown(value)}")
        return [item(v, f"{where}[{k}]") for k, v in enumerate(value)]
    return read


def _section(table: dict):
    """A JSON object read key by key through `table`."""
    entries = {key: ({}, _section(entry)) if isinstance(entry, dict) else entry
               for key, entry in table.items()}

    def read(value, where):
        name = where or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{name}: expected a JSON object, got {_shown(value)}")
        unknown = sorted(set(value) - set(entries))
        if unknown:
            raise ConfigError(f"{name}: unknown keys {unknown}; allowed keys are {sorted(entries)}")
        return {key: reader(value.get(key, default), f"{where}.{key}" if where else key)
                for key, (default, reader) in entries.items()}
    return read


def _gamma(value, where: str) -> float:
    try:
        return clamp_gamma(parse_angle(value, where))
    except RangeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _strategy(value, where: str) -> str:
    """A strategy spec; parse_strategy resolves it once the mode is known."""
    return _text(value, where).strip()


_GAMES = {"pd": canonical_pd, "hft": hft_game}
_INLINE_GAME = _section({
    "row_payoffs": (None, _list_of(_list_of(_number, 2), 2)),
    "col_payoffs": (None, _list_of(_list_of(_number, 2), 2)),
    "row_labels": (["C", "D"], _list_of(_text, 2)),
    "col_labels": (["C", "D"], _list_of(_text, 2)),
})


def _game(value, where: str):
    """A named game or an inline payoff table."""
    return (_one_of(*_GAMES) if isinstance(value, str) else _INLINE_GAME)(value, where)


_AGENT = _section({
    "kind": ("epsilon_greedy_bandit", _one_of(*(k.value for k in AgentKind))),
    "menu": (["C", "D", "Q"], _list_of(_strategy)),
    "epsilon": (AgentSpec.epsilon, _number),
    "learning_rate": (AgentSpec.learning_rate, _number),
    "trigger_threshold": (AgentSpec.trigger_threshold, _number),
})

_SCHEMA = _section({
    "game": ("pd", _game),
    "gamma": (TournamentConfig.gamma, _gamma),
    "entangler_mode": (TournamentConfig.mode.value, _one_of(*(m.value for m in EntanglerMode))),
    "players": (["C", "C"], _list_of(_strategy, 2)),
    "noise": {
        "kind": (NoiseSpec.kind.value, _one_of(*(k.value for k in NoiseKind))),
        "p": (NoiseSpec.p, _number),
        "location": (NoiseSpec.location.value, _one_of(*(c.value for c in ChannelLocation))),
    },
    "search": {
        "grid_resolution": (SearchConfig.grid_resolution, _integer),
        "eps_nash": (SearchConfig.eps_nash, _number),
        "space": ("A", _one_of(*SPACES)),
    },
    "tournament": {
        "rounds": (10000, _integer),
        "seed": (TournamentConfig.seed, _integer),
        "sampled_outcomes": (TournamentConfig.sampled_outcomes, _boolean),
        "experiment": (None, _one_of(None, "menu_advantage")),
        "agents": ([{}, {}], _list_of(_AGENT, 2)),
    },
    "sweep": {"steps": (50, _integer)},
    "objective": (OBJECTIVES[0], _one_of(*OBJECTIVES)),
    "out": (None, lambda value, where: None if value is None else _text(value, where)),
    "format": (FORMATS[0], _one_of(*FORMATS)),
})


@dataclasses.dataclass(eq=False)
class RunConfig:
    """The canonical settings read through the schema, and the domain
    objects built from them."""

    settings: dict
    game: Bimatrix
    gamma: float
    mode: EntanglerMode
    players: tuple
    noise: NoiseSpec
    search: SearchConfig
    tournament: TournamentConfig
    agents: tuple

    @property
    def player_specs(self) -> tuple:
        return tuple(self.settings["players"])


def _make(where: str, cls, **fields):
    """cls(**fields), with a failed domain check reported as a ConfigError."""
    try:
        return cls(**fields)
    except QGamesError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _menu(specs: list, mode: EntanglerMode, where: str) -> tuple:
    menu = []
    for spec in specs:
        gate = parse_strategy(spec, mode, field=where)
        if isinstance(gate, MixedQuantumStrategy):
            raise ConfigError(f"{where}: menu entries must be pure strategies")
        menu.append(NamedGate(spec, gate))
    return tuple(menu)


def _build(s: dict) -> RunConfig:
    """The RunConfig of canonical settings."""
    mode = EntanglerMode(s["entangler_mode"])
    game = (_GAMES[s["game"]]() if isinstance(s["game"], str)
            else _make("game", Bimatrix, **s["game"]))
    noise = _make("noise", NoiseSpec, kind=NoiseKind(s["noise"]["kind"]), p=s["noise"]["p"],
                  location=ChannelLocation(s["noise"]["location"]))
    t = s["tournament"]
    agents = tuple(
        _make(f"tournament.agents[{k}]", AgentSpec, **{
            **a, "kind": AgentKind(a["kind"]),
            "menu": _menu(a["menu"], mode, f"tournament.agents[{k}].menu")})
        for k, a in enumerate(t["agents"]))
    if s["sweep"]["steps"] < 2:
        raise ConfigError(f"sweep.steps: must be >= 2, got {s['sweep']['steps']}")
    return RunConfig(
        settings=s, game=game, gamma=s["gamma"], mode=mode,
        players=tuple(parse_strategy(spec, mode, field=f"players[{k}]")
                      for k, spec in enumerate(s["players"])),
        noise=noise,
        search=_make("search", SearchConfig, grid_resolution=s["search"]["grid_resolution"],
                     eps_nash=s["search"]["eps_nash"]),
        tournament=_make("tournament", TournamentConfig, rounds=t["rounds"], gamma=s["gamma"],
                         mode=mode, noise=noise, seed=t["seed"],
                         sampled_outcomes=t["sampled_outcomes"]),
        agents=agents)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration, applying defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep a nesting
        raise ConfigError(f"unreadable JSON: {exc}") from None
    return _build(_SCHEMA(raw, ""))


def serialize_config(cfg: RunConfig) -> dict:
    """Canonical dict form of a config: what parse_config read, with every
    default filled in; parsing its JSON gives the same settings."""
    return copy.deepcopy(cfg.settings)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    if x is None:
        return ""
    return str(x)


def _csv_record(cells) -> str:
    """The text csv.writer writes for one row, line terminator included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(cells)
    return buf.getvalue()


class _Rows(list):
    """A report table of cell tuples.  Every table checks and writes
    itself: `finite()`, `csv_chunks()` (the records after the header) and
    `json_chunks()` (the text json.dump(indent=2) writes for its rows as
    the value of a top-level key)."""

    def finite(self) -> bool:
        return _finite(self)

    def csv_chunks(self):
        return (_csv_record([_fmt(x) for x in row]) for row in self)

    def json_chunks(self):
        # one level deeper than on its own: JSON escapes a string's newlines
        yield json.dumps([[_fmt(x) for x in row] for row in self], indent=2).replace("\n", "\n  ")


_CHUNK_ROUNDS = 4096  # rounds per write: about a MB at most, never the whole file


class _RoundLog:
    """Tournament rows: for each (head, result) block, one row per round
    made of the `head` cells, the round index and the cells `tail(row)`
    of the round's RoundRow.  Each distinct row is formatted, and quoted
    for CSV or JSON, once; a round adds only its index."""

    def __init__(self, blocks, tail):
        self.blocks = blocks
        self.tail = tail

    def _blocks(self):
        """Per block: the formatted head cells, the formatted tail cells of
        each of the result's rows, and the result's round log."""
        for head, result in self.blocks:
            yield ([_fmt(x) for x in head],
                   [[_fmt(x) for x in self.tail(row)] for row in result.rows], result.log)

    def finite(self) -> bool:
        return _finite([self.tail(row) for _, result in self.blocks for row in result.rows])

    def json_chunks(self):
        sep = "[\n"
        for head, tails, log in self._blocks():
            prefix = "    [\n" + "".join(f"      {json.dumps(x)},\n" for x in head) + '      "'
            tails = ['"' + "".join(f",\n      {json.dumps(x)}" for x in cells) + "\n    ]"
                     for cells in tails]
            for start in range(0, len(log), _CHUNK_ROUNDS):
                yield sep + ",\n".join([f"{prefix}{k}{tails[code]}" for k, code in
                                        enumerate(log[start:start + _CHUNK_ROUNDS], start)])
                sep = ",\n"
        yield "[]" if sep == "[\n" else "\n  ]"

    def csv_chunks(self):
        for head, tails, log in self._blocks():
            prefix = _csv_record(head).removesuffix(csv.excel.lineterminator) + "," if head else ""
            tails = ["," + _csv_record(cells) for cells in tails]
            for start in range(0, len(log), _CHUNK_ROUNDS):
                yield "".join([f"{prefix}{k}{tails[code]}" for k, code in
                               enumerate(log[start:start + _CHUNK_ROUNDS], start)])


def _finite(value) -> bool:
    """Whether every float in a report value (dicts, lists and tuples of
    cells) is finite; JSON has no Infinity or NaN."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return True
    return all(_finite(x) for x in value)


def _write_reports(out_dir: Path, command: str, fmt: str, quiet: bool,
                   summary: dict, columns, table) -> list:
    """Write the summary JSON and the table's rows as CSV, or embedded in
    the JSON with fmt "json"."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary = {**summary, "command": command}
    if fmt == "json":
        summary.update(columns=list(columns), rows=[])
    else:
        csv_path = out_dir / f"{command}.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(_csv_record(columns))
            fh.writelines(table.csv_chunks())
        written.append(csv_path)
    text = json.dumps(summary, indent=2, sort_keys=True)
    json_path = out_dir / f"{command}.json"
    with open(json_path, "w") as fh:
        if fmt == "json":
            # a top-level key is the only place a newline and two spaces
            # precede a key, so this splits the text at the rows' place
            before, text = text.split('\n  "rows": []', 1)
            fh.write(before + '\n  "rows": ')
            fh.writelines(table.json_chunks())
        fh.write(text + "\n")
    written.append(json_path)
    if not quiet:
        for path in written:
            print(f"wrote {path}")
    return written


def _pure_gates(cfg: RunConfig, command: str) -> tuple:
    for k, player in enumerate(cfg.players):
        if isinstance(player, MixedQuantumStrategy):
            raise ConfigError(
                f"{command}: players[{k}] must be a pure strategy for this command")
    return cfg.players


def _cmd_payoff(cfg: RunConfig):
    result = run_protocol(cfg.game, cfg.gamma, cfg.mode, *cfg.players, cfg.noise)
    dist = [float(x) for x in result.distribution.probs]
    summary = {
        "game": cfg.settings["game"] if isinstance(cfg.settings["game"], str) else "inline",
        "gamma": cfg.gamma,
        "entangler_mode": cfg.mode.value,
        "players": list(cfg.player_specs),
        "noise_kind": cfg.noise.kind.value,
        "payoffs": [result.payoff_I, result.payoff_II],
        "distribution": dist,
    }
    columns = ("payoff_I", "payoff_II", "p00", "p01", "p10", "p11")
    return summary, columns, _Rows([(result.payoff_I, result.payoff_II, *dist)])


def describe_gate(gate: Gate1Q, mode: EntanglerMode) -> str:
    """Readable name for a gate: C/D/Q or its set-B name B(theta,alpha,beta).

    parse_strategy reads the name back as the gate up to a global phase,
    which never affects outcomes.
    """
    from .search import phase_canonical_keys

    named = canonical_gates(mode)
    key, *named_keys = phase_canonical_keys(np.array([gate.matrix, *(g.matrix for g in named)]))
    for name, named_key in zip(CanonicalGates._fields, named_keys):
        if named_key == key:
            return name
    return str(StrategyParamsB.of(gate.matrix))


def _cmd_equilibria(cfg: RunConfig):
    from .search import default_menu, mixed_quantum_equilibrium, verify_eps_nash

    game = cfg.game
    pure = pure_nash(game)
    pareto = pareto_optimal(game)
    mixed = mixed_nash(game)
    columns = ("type", "label_I", "label_II", "p", "q",
               "payoff_I", "payoff_II", "flag")
    rows = _Rows()
    for kind, profiles in (("pure_nash", pure), ("pareto_optimal", pareto)):
        for prof in profiles:
            a, b = game.cell(*prof)
            rows.append((kind, game.row_labels[prof.row], game.col_labels[prof.col],
                         1.0 - prof.row, 1.0 - prof.col, a, b, False))
    for m in mixed:
        a, b = expected_payoff(game, m)
        rows.append(("mixed_nash", "", "", m.p, m.q, a, b, m.degenerate))

    # quantum sections: profile stability in the configured space, plus
    # the finite-menu equilibrium over the default strategy menu
    profile_check = None
    space = cfg.settings["search"]["space"]
    if all(not isinstance(p, MixedQuantumStrategy) for p in cfg.players):
        u1, u2 = cfg.players
        is_eq, improvement = verify_eps_nash(
            game, cfg.gamma, cfg.mode, u1, u2, space, cfg.search)
        base = run_protocol(game, cfg.gamma, cfg.mode, u1, u2)
        profile_check = {
            "players": list(cfg.player_specs),
            "space": space,
            "payoffs": [base.payoff_I, base.payoff_II],
            "is_epsilon_nash": is_eq,
            "max_improvement": improvement,
        }
        rows.append(("quantum_profile", cfg.player_specs[0], cfg.player_specs[1],
                     "", "", base.payoff_I, base.payoff_II, is_eq))

    menu = default_menu(cfg.mode)
    eq = mixed_quantum_equilibrium(game, cfg.gamma, cfg.mode, menu, cfg.search)
    support_i = [[w, describe_gate(g, cfg.mode)] for w, g in eq.strategy_I.support]
    support_ii = [[w, describe_gate(g, cfg.mode)] for w, g in eq.strategy_II.support]
    for w, name in support_i:
        rows.append(("menu_equilibrium_I", name, "", w, "",
                     eq.payoff_I, eq.payoff_II, False))
    for w, name in support_ii:
        rows.append(("menu_equilibrium_II", "", name, "", w,
                     eq.payoff_I, eq.payoff_II, False))

    summary = {
        "pure_nash": [[game.row_labels[p.row], game.col_labels[p.col]] for p in pure],
        "pareto_optimal": [[game.row_labels[p.row], game.col_labels[p.col]] for p in pareto],
        "mixed_nash": [{"p": m.p, "q": m.q, "degenerate": m.degenerate} for m in mixed],
        "quantum": {
            "gamma": cfg.gamma,
            "entangler_mode": cfg.mode.value,
            "profile_check": profile_check,
            "menu_equilibrium": {
                "method": eq.method,
                "payoffs": [eq.payoff_I, eq.payoff_II],
                "support_I": support_i,
                "support_II": support_ii,
            },
        },
    }
    return summary, columns, rows


def _cmd_landscape(cfg: RunConfig):
    from .search import payoff_landscape

    gates = _pure_gates(cfg, "landscape")
    space = cfg.settings["search"]["space"]
    columns, data = payoff_landscape(
        cfg.game, cfg.gamma, cfg.mode, space, gates[1], cfg.search, responder=Player.I)
    best = int(np.argmax(data[:, -1]))
    summary = {
        "space": space,
        "opponent": cfg.player_specs[1],
        "gamma": cfg.gamma,
        "entangler_mode": cfg.mode.value,
        "grid_resolution": cfg.search.grid_resolution,
        "max_payoff": float(data[best, -1]),
        "argmax": [float(x) for x in data[best, :-1]],
    }
    return summary, columns, _Rows(data.tolist())


def _cmd_sweep(cfg: RunConfig):
    gates = _pure_gates(cfg, "sweep")
    steps = cfg.settings["sweep"]["steps"]
    columns, data = gamma_sweep(cfg.game, cfg.mode, gates[0], gates[1], steps)
    summary = {
        "players": list(cfg.player_specs),
        "entangler_mode": cfg.mode.value,
        "steps": steps,
        "first_row": [float(x) for x in data[0]],
        "last_row": [float(x) for x in data[-1]],
    }
    return summary, columns, _Rows(data.tolist())


def _cmd_noise(cfg: RunConfig):
    _pure_gates(cfg, "noise")
    payoff, _, rows = _cmd_payoff(cfg)
    summary = dict(payoff, noise=cfg.settings["noise"])  # kind, p and location as resolved
    del summary["game"], summary["noise_kind"]
    columns = ("kind", "p", "location", "payoff_I", "payoff_II", "p00", "p01", "p10", "p11")
    return summary, columns, _Rows([(*summary["noise"].values(), *row) for row in rows])


def _cmd_correlated(cfg: RunConfig):
    game = cfg.game
    objective = cfg.settings["objective"]
    mu = best_correlated(game, objective)
    a, b = game.payoff_vectors()
    value_i = float(mu.probs @ a)
    value_ii = float(mu.probs @ b)
    summary = {
        "objective": objective,
        "mu": [float(x) for x in mu.probs],
        "payoffs": [value_i, value_ii],
        "welfare": value_i + value_ii,
        "is_correlated_equilibrium": is_correlated_equilibrium(game, mu),
    }
    columns = ("row_label", "col_label", "mu", "payoff_I", "payoff_II")
    return summary, columns, _Rows((game.row_labels[i], game.col_labels[j], mu.prob(i, j),
                                    *game.cell(i, j)) for i in range(2) for j in range(2))


def _cmd_tournament(cfg: RunConfig):
    from .hft import menu_advantage_experiment, play_tournament

    if cfg.settings["tournament"]["experiment"] == "menu_advantage":
        report = menu_advantage_experiment(cfg.game, cfg.tournament)
        columns = ("condition", "round", "gate_I", "gate_II", "payoff_I", "payoff_II",
                   "sampled_outcome")
        rows = _RoundLog([(("quantum",), report.quantum), (("classical",), report.classical)],
                         lambda r: (r.gate_I, r.gate_II, r.payoff_I, r.payoff_II,
                                    r.sampled_outcome))
        summary = {
            "experiment": "menu_advantage",
            "rounds": cfg.tournament.rounds,
            "seed": cfg.tournament.seed,
            "tail_window": report.tail_window,
            "quantum_mean": [report.quantum.mean_payoff_I, report.quantum.mean_payoff_II],
            "classical_mean": [report.classical.mean_payoff_I, report.classical.mean_payoff_II],
            "quantum_tail_mean": list(report.quantum_tail_mean),
            "classical_tail_mean": list(report.classical_tail_mean),
        }
        return summary, columns, rows
    result = play_tournament(cfg.game, cfg.agents[0], cfg.agents[1], cfg.tournament)
    columns = ("round", "gate_I", "gate_II", "p00", "p01", "p10", "p11",
               "sampled_outcome", "payoff_I", "payoff_II")
    rows = _RoundLog([((), result)], lambda r: (r.gate_I, r.gate_II, *r.distribution,
                                                r.sampled_outcome, r.payoff_I, r.payoff_II))
    summary = {
        "rounds": cfg.tournament.rounds,
        "seed": cfg.tournament.seed,
        "sampled_outcomes": cfg.tournament.sampled_outcomes,
        "agents": cfg.settings["tournament"]["agents"],
        "mean_payoffs": [result.mean_payoff_I, result.mean_payoff_II],
    }
    return summary, columns, rows


def _cmd_advantage(cfg: RunConfig):
    from .search import advantage_threshold

    result = advantage_threshold(cfg.game, cfg.mode, cfg.noise.kind, cfg.search, gamma=cfg.gamma)
    summary = {
        "noise_kind": cfg.noise.kind.value,
        "gamma": cfg.gamma,
        "entangler_mode": cfg.mode.value,
        "limit": result.limit,
        "found": result.found,
        "p_star": result.p_star,
        "payoff_noiseless": result.payoff_noiseless,
        "payoff_full_noise": result.payoff_full_noise,
    }
    columns = ("noise_kind", "found", "p_star", "payoff_noiseless", "payoff_full_noise",
               "limit")
    return summary, columns, _Rows([(cfg.noise.kind.value, result.found, result.p_star,
                                     result.payoff_noiseless, result.payoff_full_noise,
                                     result.limit)])


_COMMAND_IMPLS = {
    "payoff": _cmd_payoff,
    "equilibria": _cmd_equilibria,
    "landscape": _cmd_landscape,
    "sweep": _cmd_sweep,
    "noise": _cmd_noise,
    "correlated": _cmd_correlated,
    "tournament": _cmd_tournament,
    "advantage": _cmd_advantage,
}
COMMANDS = tuple(_COMMAND_IMPLS)


def dispatch(command: str, cfg: RunConfig, out_dir=None, fmt=None, quiet=False) -> int:
    """Run one command and write its report files; returns an exit code."""
    if command not in _COMMAND_IMPLS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return EXIT_CONFIG
    resolved_out = Path(out_dir or cfg.settings["out"]
                        or os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR))
    resolved_fmt = fmt or cfg.settings["format"]
    try:
        # an overflow surfaces as a non-finite number, which the checks
        # below turn into a RangeError, so numpy need not warn about it
        with np.errstate(over="ignore", invalid="ignore"):
            summary, columns, table = _COMMAND_IMPLS[command](cfg)
        if not (_finite(summary) and table.finite()):
            raise RangeError("the result overflows the float range: a report would hold "
                             "a non-finite number")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QGamesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: the result is too large to allocate: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        _write_reports(resolved_out, command, resolved_fmt, quiet, summary, columns, table)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgames",
        description="Exact simulation and equilibrium analysis of quantized 2x2 games.")
    parser.add_argument("command", choices=COMMANDS, help="analysis to run")
    parser.add_argument("--config", type=str, default=None,
                        help="path to a JSON run configuration (defaults apply without it)")
    parser.add_argument("--out", type=str, default=None,
                        help=f"output directory (default: ${ENV_OUT_DIR} or ./{DEFAULT_OUT_DIR})")
    parser.add_argument("--format", choices=FORMATS, default=None,
                        help="data file format (default csv; json embeds rows in the summary)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the tournament seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    text = "{}"
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"i/o error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except UnicodeDecodeError as exc:
            print(f"config error: config is not UTF-8 text: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            settings = serialize_config(cfg)
            settings["tournament"]["seed"] = args.seed
            cfg = _build(settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return dispatch(args.command, cfg, out_dir=args.out, fmt=args.format, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
