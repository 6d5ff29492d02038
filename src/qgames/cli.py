"""Command-line surface: JSON config in, CSV data + JSON summaries out.

Angles in configs may be given as radians or as exact "pi" fractions
("pi/2", "3pi/4", "-pi/3", "0.5pi").  Strategies are named ("C", "D",
"Q"), parametric ("A(theta,phi)", "B(theta,alpha,beta)"), or mixtures
("mixed:[[0.5,\"C\"],[0.5,\"Q\"]]").  Identical configs produce
byte-identical report files.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import hft as hft_mod
from . import noise as noise_mod
from . import search as search_mod
from .errors import ConfigError, QGamesError, ValidationError
from .ewl import (
    MixedQuantumStrategy,
    ProtocolResult,
    StrategyParamsA,
    StrategyParamsB,
    canonical_gates,
    gate_from_A,
    gate_from_B,
    run_protocol,
)
from .games import (
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
from .hft import AgentKind, AgentSpec, NamedGate, TournamentConfig
from .noise import ChannelLocation, NoiseKind, NoiseSpec
from .qcore import EntanglerMode, Gate1Q, clamp_gamma
from .search import Player, SearchConfig

ENV_OUT_DIR = "QGAMES_OUT"
DEFAULT_OUT_DIR = "reports"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

COMMANDS = ("payoff", "equilibria", "landscape", "sweep", "noise",
            "correlated", "tournament", "advantage")

_PI_RE = re.compile(r"^\s*([+-]?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*([+-]?\d*\.?\d+))?\s*$",
                    re.IGNORECASE)


def parse_angle(value, field: str = "angle") -> float:
    """Accept a radian number or an exact pi-fraction string."""
    if isinstance(value, bool):
        raise ConfigError(f"{field}: expected a number or pi-fraction, got {value!r}")
    if isinstance(value, (int, float)):
        v = _convert(float, value, field)
        if not math.isfinite(v):
            raise ConfigError(f"{field}: must be finite, got {value!r}")
        return v
    if isinstance(value, str):
        m = _PI_RE.match(value)
        if m:
            coef_txt, div_txt = m.group(1), m.group(2)
            coef = float(coef_txt) if coef_txt not in ("", "+", "-") else float(coef_txt + "1")
            angle = coef * math.pi
            if div_txt is not None:
                div = float(div_txt)
                if div == 0:
                    raise ConfigError(f"{field}: division by zero in {value!r}")
                angle /= div
            return angle
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{field}: cannot parse angle {value!r}") from None
    raise ConfigError(f"{field}: expected a number or string, got {type(value).__name__}")


_PARAM_STRATEGY_RE = re.compile(r"^\s*([AB])\s*\(([^)]*)\)\s*$")


def parse_strategy(spec, mode: EntanglerMode, field: str = "strategy"
                   ) -> Union[Gate1Q, MixedQuantumStrategy]:
    """Resolve a strategy spec string to a gate or a mixture."""
    if isinstance(spec, str):
        text = spec.strip()
        named = canonical_gates(mode)
        if text in ("C", "D", "Q"):
            return getattr(named, text)
        m = _PARAM_STRATEGY_RE.match(text)
        if m:
            family, args_txt = m.group(1), m.group(2)
            args = [parse_angle(a.strip(), field=f"{field}:{family}")
                    for a in args_txt.split(",") if a.strip() != ""]
            try:
                if family == "A":
                    if len(args) != 2:
                        raise ConfigError(f"{field}: A(...) takes 2 angles, got {len(args)}")
                    return gate_from_A(StrategyParamsA(theta=args[0], phi=args[1]))
                if len(args) != 3:
                    raise ConfigError(f"{field}: B(...) takes 3 angles, got {len(args)}")
                return gate_from_B(StrategyParamsB(theta=args[0], alpha=args[1], beta=args[2]))
            except ValidationError as exc:
                raise ConfigError(f"{field}: {exc}") from exc
        if text.startswith("mixed:"):
            try:
                entries = json.loads(text[len("mixed:"):])
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{field}: malformed mixed strategy: {exc}") from exc
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
                support.append((_convert(float, weight, f"{field}:mixed weight"), gate))
            try:
                return MixedQuantumStrategy(support, max_support=len(support))
            except ValidationError as exc:
                raise ConfigError(f"{field}: {exc}") from exc
        raise ConfigError(f"{field}: unknown strategy spec {spec!r}")
    raise ConfigError(f"{field}: expected a strategy string, got {type(spec).__name__}")


def _convert(kind, value, field: str):
    """kind(value), with a failed conversion reported as a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field}: cannot read {value!r} as {kind.__name__}") from None


def _object(value, where: str) -> dict:
    """value, checked to be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


def _choice(names: dict, value, field: str):
    """names[value] for a known name string."""
    if not isinstance(value, str) or value not in names:
        raise ConfigError(f"{field}: unknown value {value!r}; expected one of {sorted(names)}")
    return names[value]


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _parse_game(source) -> Bimatrix:
    if isinstance(source, str):
        if source == "pd":
            return canonical_pd()
        if source == "hft":
            return hft_game()
        raise ConfigError(f"game: unknown named game {source!r} (expected 'pd' or 'hft')")
    if isinstance(source, dict):
        _require_keys(source, {"row_payoffs", "col_payoffs", "row_labels", "col_labels"},
                      "game")
        try:
            return Bimatrix(
                row_payoffs=np.asarray(source.get("row_payoffs"), dtype=float),
                col_payoffs=np.asarray(source.get("col_payoffs"), dtype=float),
                row_labels=tuple(source.get("row_labels", ("C", "D"))),
                col_labels=tuple(source.get("col_labels", ("C", "D"))),
            )
        except (ValidationError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"game: {exc}") from exc
    raise ConfigError("game: expected a name ('pd'/'hft') or an inline payoff table")


_MODE_NAMES = {m.value: m for m in EntanglerMode}
_NOISE_NAMES = {k.value: k for k in NoiseKind}
_LOCATION_NAMES = {c.value: c for c in ChannelLocation}
_AGENT_NAMES = {a.value: a for a in AgentKind}


def _parse_noise(section: dict) -> NoiseSpec:
    _require_keys(section, {"kind", "p", "location"}, "noise")
    kind = _choice(_NOISE_NAMES, section.get("kind", "none"), "noise.kind")
    location = _choice(_LOCATION_NAMES, section.get("location", "return"), "noise.location")
    try:
        return NoiseSpec(kind=kind, p=float(section.get("p", 0.0)), location=location)
    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _parse_search(section: dict) -> tuple:
    _require_keys(section, {"grid_resolution", "eps_nash", "space"}, "search")
    space = section.get("space", "A")
    if space not in ("A", "B"):
        raise ConfigError(f"search.space: expected 'A' or 'B', got {space!r}")
    try:
        cfg = SearchConfig(
            grid_resolution=int(section.get("grid_resolution", 64)),
            eps_nash=float(section.get("eps_nash", 1e-6)),
        )
    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"search: {exc}") from exc
    return cfg, space


_AGENT_KEYS = {"kind", "menu", "epsilon", "learning_rate", "trigger_threshold"}


def _parse_agent(section, mode: EntanglerMode, where: str) -> tuple:
    _require_keys(_object(section, where), _AGENT_KEYS, where)
    kind_txt = section.get("kind", "epsilon_greedy_bandit")
    kind = _choice(_AGENT_NAMES, kind_txt, f"{where}.kind")
    menu_specs = section.get("menu", ["C", "D", "Q"])
    if not isinstance(menu_specs, list) or not menu_specs:
        raise ConfigError(f"{where}.menu: expected a nonempty list of strategy strings")
    menu = []
    for entry in menu_specs:
        gate = parse_strategy(entry, mode, field=f"{where}.menu")
        if isinstance(gate, MixedQuantumStrategy):
            raise ConfigError(f"{where}.menu: menu entries must be pure strategies")
        menu.append(NamedGate(str(entry).strip(), gate))
    normalized = {
        "kind": kind_txt,
        "menu": [str(e).strip() for e in menu_specs],
        "epsilon": _convert(float, section.get("epsilon", 0.1), f"{where}.epsilon"),
        "learning_rate": _convert(float, section.get("learning_rate", 0.1),
                                  f"{where}.learning_rate"),
        "trigger_threshold": _convert(float, section.get("trigger_threshold", 0.5),
                                      f"{where}.trigger_threshold"),
    }
    try:
        spec = AgentSpec(kind=kind, menu=tuple(menu),
                         epsilon=normalized["epsilon"],
                         learning_rate=normalized["learning_rate"],
                         trigger_threshold=normalized["trigger_threshold"])
    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return spec, normalized


@dataclasses.dataclass(eq=False)
class RunConfig:
    game: Bimatrix
    game_source: Union[str, dict]
    gamma: float
    mode: EntanglerMode
    player_specs: tuple
    players: tuple
    noise: NoiseSpec
    search: SearchConfig
    search_space: str
    tournament: TournamentConfig
    agents: tuple
    agent_dicts: tuple
    experiment: Optional[str]
    sweep_steps: int
    objective: str
    out: Optional[str]
    format: str


_TOP_KEYS = {"game", "gamma", "entangler_mode", "players", "noise", "search",
             "tournament", "sweep", "objective", "out", "format"}
_TOURNAMENT_KEYS = {"rounds", "seed", "sampled_outcomes", "experiment", "agents"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration, applying defaults."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, _TOP_KEYS, "config")

    game_source = raw.get("game", "pd")
    game = _parse_game(game_source)

    gamma = parse_angle(raw.get("gamma", math.pi / 2), field="gamma")
    try:
        gamma = clamp_gamma(gamma)
    except QGamesError as exc:
        raise ConfigError(f"gamma: {exc}") from exc

    mode = _choice(_MODE_NAMES, raw.get("entangler_mode", EntanglerMode.DEFECT.value),
                   "entangler_mode")

    player_specs = raw.get("players", ["C", "C"])
    if not (isinstance(player_specs, list) and len(player_specs) == 2):
        raise ConfigError("players: expected exactly two strategy specs")
    player_specs = tuple(str(s).strip() for s in player_specs)
    players = tuple(parse_strategy(s, mode, field=f"players[{k}]")
                    for k, s in enumerate(player_specs))

    noise = _parse_noise(_object(raw.get("noise", {}), "noise"))
    search_cfg, search_space = _parse_search(_object(raw.get("search", {}), "search"))

    tsec = _object(raw.get("tournament", {}), "tournament")
    _require_keys(tsec, _TOURNAMENT_KEYS, "tournament")
    experiment = tsec.get("experiment")
    if experiment not in (None, "menu_advantage"):
        raise ConfigError(f"tournament.experiment: unknown experiment {experiment!r}")
    agents_raw = tsec.get("agents", [{}, {}])
    if not (isinstance(agents_raw, list) and len(agents_raw) == 2):
        raise ConfigError("tournament.agents: expected exactly two agent specs")
    parsed_agents = [_parse_agent(a, mode, f"tournament.agents[{k}]")
                     for k, a in enumerate(agents_raw)]
    try:
        tournament = TournamentConfig(
            rounds=int(tsec.get("rounds", 10000)),
            gamma=gamma, mode=mode, noise=noise,
            seed=int(tsec.get("seed", 0)),
            sampled_outcomes=bool(tsec.get("sampled_outcomes", False)),
        )
    except (QGamesError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"tournament: {exc}") from exc

    ssec = _object(raw.get("sweep", {}), "sweep")
    _require_keys(ssec, {"steps"}, "sweep")
    sweep_steps = _convert(int, ssec.get("steps", 50), "sweep.steps")
    if sweep_steps < 2:
        raise ConfigError(f"sweep.steps: must be >= 2, got {sweep_steps}")

    objective = raw.get("objective", "welfare")
    if objective not in ("welfare", "player_I", "player_II"):
        raise ConfigError(f"objective: unknown objective {objective!r}")

    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format: expected 'csv' or 'json', got {fmt!r}")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out: expected a directory path string")

    return RunConfig(
        game=game, game_source=game_source, gamma=gamma, mode=mode,
        player_specs=player_specs, players=players, noise=noise,
        search=search_cfg, search_space=search_space,
        tournament=tournament, agents=tuple(a for a, _ in parsed_agents),
        agent_dicts=tuple(d for _, d in parsed_agents),
        experiment=experiment, sweep_steps=sweep_steps, objective=objective,
        out=out, format=fmt,
    )


def serialize_config(cfg: RunConfig) -> dict:
    """Canonical dict form of a config; stable across round trips."""
    if isinstance(cfg.game_source, str):
        game = cfg.game_source
    else:
        game = {
            "row_payoffs": [[float(x) for x in row] for row in cfg.game.row_payoffs],
            "col_payoffs": [[float(x) for x in row] for row in cfg.game.col_payoffs],
            "row_labels": list(cfg.game.row_labels),
            "col_labels": list(cfg.game.col_labels),
        }
    return {
        "game": game,
        "gamma": cfg.gamma,
        "entangler_mode": cfg.mode.value,
        "players": list(cfg.player_specs),
        "noise": {"kind": cfg.noise.kind.value, "p": cfg.noise.p,
                  "location": cfg.noise.location.value},
        "search": {"grid_resolution": cfg.search.grid_resolution,
                   "eps_nash": cfg.search.eps_nash, "space": cfg.search_space},
        "tournament": {"rounds": cfg.tournament.rounds, "seed": cfg.tournament.seed,
                       "sampled_outcomes": cfg.tournament.sampled_outcomes,
                       "experiment": cfg.experiment,
                       "agents": [dict(d) for d in cfg.agent_dicts]},
        "sweep": {"steps": cfg.sweep_steps},
        "objective": cfg.objective,
        "out": cfg.out,
        "format": cfg.format,
    }


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    if x is None:
        return ""
    return str(x)


def _write_reports(out_dir: Path, command: str, fmt: str, quiet: bool,
                   summary: dict, columns, rows) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary = dict(summary)
    summary["command"] = command
    if fmt == "json":
        summary["columns"] = list(columns)
        summary["rows"] = [[_fmt(x) for x in row] for row in rows]
    else:
        csv_path = out_dir / f"{command}.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
        written.append(csv_path)
    json_path = out_dir / f"{command}.json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(json_path)
    if not quiet:
        for path in written:
            print(f"wrote {path}")
    return written


def _pure_gates(cfg: RunConfig, command: str) -> tuple:
    gates = []
    for k, player in enumerate(cfg.players):
        if isinstance(player, MixedQuantumStrategy):
            raise ConfigError(
                f"{command}: players[{k}] must be a pure strategy for this command")
        gates.append(player)
    return tuple(gates)


def _profile_distribution(cfg: RunConfig) -> ProtocolResult:
    """Distribution/payoffs for the configured profile, handling noise
    and mixtures uniformly: one noisy table over both supports (a pure
    strategy is a point mass), averaged exactly."""
    as_mixed = [p if isinstance(p, MixedQuantumStrategy) else MixedQuantumStrategy.point_mass(p)
                for p in cfg.players]
    (w1, u1), (w2, u2) = (m.stacked() for m in as_mixed)
    probs = noise_mod.noisy_outcome_probs(cfg.gamma, cfg.mode, u1[:, None], u2[None, :],
                                          cfg.noise)
    return ProtocolResult.score(cfg.game, np.einsum("i,j,ijk->k", w1, w2, probs))


def _cmd_payoff(cfg: RunConfig):
    result = _profile_distribution(cfg)
    dist = [float(x) for x in result.distribution.probs]
    summary = {
        "game": cfg.game_source if isinstance(cfg.game_source, str) else "inline",
        "gamma": cfg.gamma,
        "entangler_mode": cfg.mode.value,
        "players": list(cfg.player_specs),
        "noise_kind": cfg.noise.kind.value,
        "payoffs": [result.payoff_I, result.payoff_II],
        "distribution": dist,
    }
    columns = ("payoff_I", "payoff_II", "p00", "p01", "p10", "p11")
    rows = [(result.payoff_I, result.payoff_II, *dist)]
    return summary, columns, rows


def describe_gate(gate: Gate1Q, mode: EntanglerMode) -> str:
    """Readable name for a gate: C/D/Q or recovered B(...) parameters.

    The description identifies the gate up to a global phase, which
    never affects outcomes.
    """
    named = canonical_gates(mode)
    flat = gate.matrix.ravel()
    k = int(np.argmax(np.abs(flat)))
    for name in ("C", "D", "Q"):
        ref = getattr(named, name).matrix
        anchor = ref.ravel()[k]
        if abs(anchor) > 1e-9:
            phase = flat[k] / anchor
            if abs(abs(phase) - 1.0) < 1e-9 and np.abs(gate.matrix - phase * ref).max() < 1e-9:
                return name
    m = gate.matrix
    theta = float(np.arctan2(abs(m[0, 1]), abs(m[0, 0])))
    alpha = float(np.angle(m[0, 0])) if abs(m[0, 0]) > 1e-12 else 0.0
    beta = float(np.angle(m[0, 1])) if abs(m[0, 1]) > 1e-12 else 0.0
    return f"B({theta:.9g},{alpha:.9g},{beta:.9g})"


def _cmd_equilibria(cfg: RunConfig):
    game = cfg.game
    pure = pure_nash(game)
    pareto = pareto_optimal(game)
    mixed = mixed_nash(game)
    columns = ("type", "label_I", "label_II", "p", "q",
               "payoff_I", "payoff_II", "flag")
    rows = []
    for prof in pure:
        a, b = game.cell(*prof)
        rows.append(("pure_nash", game.row_labels[prof.row], game.col_labels[prof.col],
                     1.0 - prof.row, 1.0 - prof.col, a, b, False))
    for prof in pareto:
        a, b = game.cell(*prof)
        rows.append(("pareto_optimal", game.row_labels[prof.row], game.col_labels[prof.col],
                     1.0 - prof.row, 1.0 - prof.col, a, b, False))
    for m in mixed:
        a, b = expected_payoff(game, m)
        rows.append(("mixed_nash", "", "", m.p, m.q, a, b, m.degenerate))

    # quantum sections: profile stability in the configured space, plus
    # the finite-menu equilibrium over the default strategy menu
    profile_check = None
    if all(not isinstance(p, MixedQuantumStrategy) for p in cfg.players):
        u1, u2 = cfg.players
        is_eq, improvement = search_mod.verify_eps_nash(
            game, cfg.gamma, cfg.mode, u1, u2, cfg.search_space, cfg.search)
        base = run_protocol(game, cfg.gamma, cfg.mode, u1, u2)
        profile_check = {
            "players": list(cfg.player_specs),
            "space": cfg.search_space,
            "payoffs": [base.payoff_I, base.payoff_II],
            "is_epsilon_nash": is_eq,
            "max_improvement": improvement,
        }
        rows.append(("quantum_profile", cfg.player_specs[0], cfg.player_specs[1],
                     "", "", base.payoff_I, base.payoff_II, is_eq))

    menu = search_mod.default_menu(cfg.mode)
    eq = search_mod.mixed_quantum_equilibrium(game, cfg.gamma, cfg.mode, menu, cfg.search)
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
    gates = _pure_gates(cfg, "landscape")
    columns, data = search_mod.payoff_landscape(
        cfg.game, cfg.gamma, cfg.mode, cfg.search_space, gates[1], cfg.search,
        responder=Player.I)
    best = int(np.argmax(data[:, -1]))
    summary = {
        "space": cfg.search_space,
        "opponent": cfg.player_specs[1],
        "gamma": cfg.gamma,
        "entangler_mode": cfg.mode.value,
        "grid_resolution": cfg.search.grid_resolution,
        "max_payoff": float(data[best, -1]),
        "argmax": [float(x) for x in data[best, :-1]],
    }
    return summary, columns, [tuple(row) for row in data]


def _cmd_sweep(cfg: RunConfig):
    gates = _pure_gates(cfg, "sweep")
    columns, data = noise_mod.gamma_sweep(cfg.game, cfg.mode, gates[0], gates[1],
                                          cfg.sweep_steps)
    summary = {
        "players": list(cfg.player_specs),
        "entangler_mode": cfg.mode.value,
        "steps": cfg.sweep_steps,
        "first_row": [float(x) for x in data[0]],
        "last_row": [float(x) for x in data[-1]],
    }
    return summary, columns, [tuple(row) for row in data]


def _cmd_noise(cfg: RunConfig):
    gates = _pure_gates(cfg, "noise")
    result = noise_mod.run_protocol_noisy(cfg.game, cfg.gamma, cfg.mode,
                                          gates[0], gates[1], cfg.noise)
    dist = [float(x) for x in result.distribution.probs]
    summary = {
        "players": list(cfg.player_specs),
        "gamma": cfg.gamma,
        "entangler_mode": cfg.mode.value,
        "noise": {"kind": cfg.noise.kind.value, "p": cfg.noise.p,
                  "location": cfg.noise.location.value},
        "payoffs": [result.payoff_I, result.payoff_II],
        "distribution": dist,
    }
    columns = ("kind", "p", "location", "payoff_I", "payoff_II", "p00", "p01", "p10", "p11")
    rows = [(cfg.noise.kind.value, cfg.noise.p, cfg.noise.location.value,
             result.payoff_I, result.payoff_II, *dist)]
    return summary, columns, rows


def _cmd_correlated(cfg: RunConfig):
    game = cfg.game
    mu = best_correlated(game, cfg.objective)
    a, b = game.payoff_vectors()
    value_i = float(mu.mu @ a)
    value_ii = float(mu.mu @ b)
    summary = {
        "objective": cfg.objective,
        "mu": [float(x) for x in mu.mu],
        "payoffs": [value_i, value_ii],
        "welfare": value_i + value_ii,
        "is_correlated_equilibrium": is_correlated_equilibrium(game, mu),
    }
    columns = ("row_label", "col_label", "mu", "payoff_I", "payoff_II")
    rows = []
    for i in range(2):
        for j in range(2):
            pa, pb = game.cell(i, j)
            rows.append((game.row_labels[i], game.col_labels[j], mu.prob(i, j), pa, pb))
    return summary, columns, rows


def _cmd_tournament(cfg: RunConfig):
    if cfg.experiment == "menu_advantage":
        report = hft_mod.menu_advantage_experiment(cfg.game, cfg.tournament)
        columns = ("condition", "round", "gate_I", "gate_II", "payoff_I", "payoff_II",
                   "sampled_outcome")
        rows = []
        for condition, result in (("quantum", report.quantum), ("classical", report.classical)):
            for r in result.records:
                rows.append((condition, r.index, r.gate_I, r.gate_II,
                             r.payoff_I, r.payoff_II, r.sampled_outcome))
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
    result = hft_mod.play_tournament(cfg.game, cfg.agents[0], cfg.agents[1], cfg.tournament)
    columns = ("round", "gate_I", "gate_II", "p00", "p01", "p10", "p11",
               "sampled_outcome", "payoff_I", "payoff_II")
    rows = [(r.index, r.gate_I, r.gate_II, *r.distribution, r.sampled_outcome,
             r.payoff_I, r.payoff_II) for r in result.records]
    summary = {
        "rounds": cfg.tournament.rounds,
        "seed": cfg.tournament.seed,
        "sampled_outcomes": cfg.tournament.sampled_outcomes,
        "agents": [dict(d) for d in cfg.agent_dicts],
        "mean_payoffs": [result.mean_payoff_I, result.mean_payoff_II],
    }
    return summary, columns, rows


def _cmd_advantage(cfg: RunConfig):
    result = noise_mod.advantage_threshold(cfg.game, cfg.mode, cfg.noise.kind,
                                           cfg.search, gamma=cfg.gamma)
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
    rows = [(cfg.noise.kind.value, result.found, result.p_star,
             result.payoff_noiseless, result.payoff_full_noise, result.limit)]
    return summary, columns, rows


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


def dispatch(command: str, cfg: RunConfig, out_dir=None, fmt=None, quiet=False) -> int:
    """Run one command and write its report files; returns an exit code."""
    if command not in _COMMAND_IMPLS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return EXIT_CONFIG
    resolved_out = Path(out_dir or cfg.out or os.environ.get(ENV_OUT_DIR, DEFAULT_OUT_DIR))
    resolved_fmt = fmt or cfg.format
    try:
        summary, columns, rows = _COMMAND_IMPLS[command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QGamesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        _write_reports(resolved_out, command, resolved_fmt, quiet, summary, columns, rows)
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
    parser.add_argument("--format", choices=("csv", "json"), default=None,
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
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"i/o error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        cfg.tournament = dataclasses.replace(cfg.tournament, seed=args.seed)
    return dispatch(args.command, cfg, out_dir=args.out, fmt=args.format, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
