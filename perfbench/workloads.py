"""Seeded op lists for the four workloads.

An op list is drawn from `random.Random(f"{workload}:{seed}")` alone,
so a seed fixes every config and input.  Categorical factors are
stratified (each list holds the same count of every command, game,
entangler mode, agent kind, noise kind and location); continuous ones
(gamma, angles, noise levels, weights) are drawn uniformly.  That keeps
the work per list nearly the same across seeds without choosing
inputs: nothing is filtered or redrawn, so configs on which qgames
fails stay in the list.

Each op carries `expect`: what the oracle needs to check its output.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

import oracle

HALF_PI = math.pi / 2
MODES = ("pauli_x", "defect")
GAMES = ("pd", "hft")
DEPOLARIZING = ("per_qubit_depolarizing", "two_qubit_depolarizing")
LOCATIONS = ("return", "forward")
TOURNAMENT_ROUNDS = 100_000


@dataclass
class CliOp:
    id: str
    command: str
    config: dict
    expect: dict = field(default_factory=dict)


@dataclass
class LibOp:
    id: str
    kind: str
    call: object  # (qgames package) -> result
    check: object  # (result) -> list of failure messages


def pure(rng: random.Random, mode: str) -> tuple:
    """(spec, matrix) for a named, set-A or set-B strategy."""
    kind = rng.choice("CDQAB")
    if kind in "CDQ":
        return kind, oracle.named(kind, mode)
    theta = rng.uniform(0, HALF_PI)
    if kind == "A":
        phi = rng.uniform(0, HALF_PI)
        return f"A({theta!r},{phi!r})", oracle.strategy(theta, phi, 0.0)
    alpha, beta = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    return f"B({theta!r},{alpha!r},{beta!r})", oracle.strategy(theta, alpha, beta)


def mixture(rng: random.Random, mode: str, min_support: int, max_support: int) -> list:
    """[(weight, spec, matrix)] with weights summing to 1."""
    entries = [pure(rng, mode) for _ in range(rng.randint(min_support, max_support))]
    raw = [rng.uniform(0.1, 1.0) for _ in entries]
    weights = [w / sum(raw) for w in raw]
    return [(w, spec, m) for w, (spec, m) in zip(weights, entries)]


def stratified_gammas(rng: random.Random, n: int) -> list:
    """One uniform draw from each of n equal bins of [0, pi/2], shuffled."""
    bins = list(range(n))
    rng.shuffle(bins)
    return [(b + rng.random()) / n * HALF_PI for b in bins]


def noise_draw(rng: random.Random, kind: str) -> tuple:
    return kind, rng.random(), rng.choice(LOCATIONS)


def noise_config(noise: tuple) -> dict:
    kind, p, location = noise
    return {"kind": kind, "p": p, "location": location}


# -- equilibria-B ------------------------------------------------------------

def equilibria_b(seed: int, tiny: bool = False) -> list:
    """12 `qgames equilibria` configs in space B: every (game, mode) pair
    three times, gamma stratified over 12 bins of [0, pi/2]."""
    rng = random.Random(f"equilibria-B:{seed}")
    cells = [(g, m) for g in GAMES for m in MODES] * 3
    gammas = stratified_gammas(rng, len(cells))
    ops = []
    for k, ((game, mode), gamma) in enumerate(zip(cells, gammas)):
        (s1, u1), (s2, u2) = pure(rng, mode), pure(rng, mode)
        config = {"game": game, "gamma": gamma, "entangler_mode": mode,
                  "players": [s1, s2], "search": {"space": "B"}}
        ops.append(CliOp(f"eq{k}", "equilibria", config,
                         {"game": game, "gamma": gamma, "mode": mode, "u1": u1, "u2": u2,
                          "eps": 1e-6}))
    return ops[:1] if tiny else ops


# -- tournament-100k ---------------------------------------------------------

def _agent(rng: random.Random, kind: str, mode: str) -> tuple:
    menu = [pure(rng, mode) for _ in range(rng.randint(2, 3))]
    spec = {"kind": kind, "menu": [s for s, _ in menu],
            "epsilon": rng.uniform(0.05, 0.3), "learning_rate": rng.uniform(0.05, 0.5),
            "trigger_threshold": rng.uniform(0.2, 0.8)}
    return spec, {s: m for s, m in menu}


def tournament_100k(seed: int, tiny: bool = False) -> list:
    """5 `qgames tournament` configs at 100 000 rounds: bandit vs
    grim_trigger and fixed vs tit_for_tat, each with outcome sampling off
    and on (seats drawn; noise on in two of the four), and one
    menu_advantage experiment with noise on or off.  Fixing which kinds
    share an op keeps the per-op cost, and so the median op, comparable
    across seeds."""
    rng = random.Random(f"tournament-100k:{seed}")
    rounds = 1000 if tiny else TOURNAMENT_ROUNDS
    noisy = rng.sample(range(4), 2)
    pairings = (["epsilon_greedy_bandit", "grim_trigger"], ["fixed", "tit_for_tat"])
    ops = []
    for k, (sampled, kinds) in enumerate((s, list(p)) for s in (False, True) for p in pairings):
        rng.shuffle(kinds)
        game, mode, gamma = rng.choice(GAMES), rng.choice(MODES), rng.uniform(0, HALF_PI)
        noise = noise_draw(rng, rng.choice(DEPOLARIZING)) if k in noisy else ("none", 0.0, "return")
        (a1, g1), (a2, g2) = _agent(rng, kinds[0], mode), _agent(rng, kinds[1], mode)
        config = {"game": game, "gamma": gamma, "entangler_mode": mode, "noise": noise_config(noise),
                  "tournament": {"rounds": rounds, "seed": rng.randrange(2**31),
                                 "sampled_outcomes": sampled, "agents": [a1, a2]}}
        ops.append(CliOp(f"tour{k}", "tournament", config,
                         {"game": game, "gamma": gamma, "mode": mode, "noise": noise,
                          "sampled": sampled, "rounds": rounds, "gates_I": g1, "gates_II": g2}))
    game, mode, gamma = rng.choice(GAMES), rng.choice(MODES), rng.uniform(0, HALF_PI)
    noise = noise_draw(rng, rng.choice(DEPOLARIZING)) if rng.random() < 0.5 else ("none", 0.0, "return")
    config = {"game": game, "gamma": gamma, "entangler_mode": mode, "noise": noise_config(noise),
              "tournament": {"rounds": rounds, "seed": rng.randrange(2**31),
                             "experiment": "menu_advantage"}}
    quantum = {n: oracle.named(n, mode) for n in "CDQ"}
    menus = {"quantum": quantum, "classical": {n: quantum[n] for n in "CD"}}
    ops.append(CliOp("tour4", "tournament", config,
                     {"game": game, "gamma": gamma, "mode": mode, "noise": noise, "sampled": False,
                      "rounds": rounds, "experiment": "menu_advantage", "menus": menus}))
    return ops


# -- quick-mix ---------------------------------------------------------------

def quick_mix(seed: int, tiny: bool = False) -> list:
    """18 short commands: payoff x4 (mixtures + noise), noise x2 (one per
    depolarizing kind), sweep x3 (101 steps), correlated x2, landscape x3
    (space A, resolution 64), advantage x4 (two per depolarizing kind)."""
    rng = random.Random(f"quick-mix:{seed}")
    plan = (["payoff"] * 4 + [("noise", k) for k in DEPOLARIZING] + ["sweep"] * 3
            + ["correlated"] * 2 + ["landscape"] * 3 + [("advantage", k) for k in DEPOLARIZING * 2])
    ops = []
    for k, item in enumerate(plan):
        command, kind = item if isinstance(item, tuple) else (item, rng.choice(DEPOLARIZING))
        game, mode, gamma = rng.choice(GAMES), rng.choice(MODES), rng.uniform(0, HALF_PI)
        config = {"game": game, "gamma": gamma, "entangler_mode": mode}
        expect = {"game": game, "gamma": gamma, "mode": mode}
        if command == "payoff":
            mixes = [mixture(rng, mode, 1, 3) for _ in range(2)]
            noise = noise_draw(rng, kind)
            config["players"] = ["mixed:" + json.dumps([[w, s] for w, s, _ in mix]) for mix in mixes]
            config["noise"] = noise_config(noise)
            expect.update(noise=noise, mix_I=[(w, m) for w, _, m in mixes[0]],
                          mix_II=[(w, m) for w, _, m in mixes[1]])
        elif command == "noise":
            (s1, u1), (s2, u2) = pure(rng, mode), pure(rng, mode)
            noise = noise_draw(rng, kind)
            config.update(players=[s1, s2], noise=noise_config(noise))
            expect.update(noise=noise, mix_I=[(1.0, u1)], mix_II=[(1.0, u2)])
        elif command == "sweep":
            (s1, u1), (s2, u2) = pure(rng, mode), pure(rng, mode)
            config.update(players=[s1, s2], sweep={"steps": 101})
            expect.update(u1=u1, u2=u2, steps=101)
        elif command == "correlated":
            config["objective"] = rng.choice(("welfare", "player_I", "player_II"))
        elif command == "landscape":
            s2, u2 = pure(rng, mode)
            config.update(players=["C", s2], search={"space": "A", "grid_resolution": 64})
            expect.update(u2=u2, resolution=64)
        else:  # advantage: the documented question, at maximal entanglement
            del config["gamma"]
            config["noise"] = {"kind": kind, "p": 0.0}
            expect.update(kind=kind, gamma=HALF_PI)
        ops.append(CliOp(f"{command}{k}", command, config, expect))
    if tiny:  # first op of each command
        return [op for k, op in enumerate(ops) if op.command not in {o.command for o in ops[:k]}]
    return ops


# -- library-kernel ----------------------------------------------------------

def _close_result(label, result, dist, row, col, amps=None) -> list:
    errs = oracle.close(f"{label} distribution", result.distribution.probs, dist)
    errs += oracle.close(f"{label} payoffs", [result.payoff_I, result.payoff_II],
                         [dist @ row.ravel(), dist @ col.ravel()])
    if amps is not None:
        errs += oracle.close(f"{label} final state", result.final_state.amps.real, amps.real)
        errs += oracle.close(f"{label} final state", result.final_state.amps.imag, amps.imag)
    return errs


def library_kernel(seed: int, qg, tiny: bool = False) -> list:
    """One pass of library questions: 24 gate-pair grids (4x4
    run_protocol), 24 run_protocol_mixed (4 x 4 supports), 24
    run_protocol_noisy (6 per kind x location), 12 gamma_sweep (101
    steps) and 12 mixed_quantum_equilibrium on default_menu (gamma
    stratified).  Grids and mixtures both cost 16 protocol runs, so the
    median op falls inside one block of equal-cost questions."""
    rng = random.Random(f"library-kernel:{seed}")
    counts = {"grid": 24, "mixed": 24, "noisy": 24, "sweep": 12, "menu_eq": 12}
    if tiny:
        counts = dict.fromkeys(counts, 1)
    tables = {name: (row, col, getattr(qg, "canonical_pd" if name == "pd" else "hft_game")())
              for name, (row, col, _) in oracle.GAMES.items()}
    modes = {m.value: m for m in qg.EntanglerMode}
    eq_gammas = stratified_gammas(rng, counts["menu_eq"])
    noisy_cells = [(k, loc) for k in DEPOLARIZING for loc in LOCATIONS]
    ops = []

    def gate(m):
        return qg.Gate1Q(m)

    for kind, n in counts.items():
        for k in range(n):
            name, mode = rng.choice(GAMES), rng.choice(MODES)
            row, col, game = tables[name]
            gamma = eq_gammas[k] if kind == "menu_eq" else rng.uniform(0, HALF_PI)
            qmode = modes[mode]
            label = f"{kind}{k}"
            if kind == "grid":
                g1 = [pure(rng, mode)[1] for _ in range(4)]
                g2 = [pure(rng, mode)[1] for _ in range(4)]
                q1, q2 = [gate(m) for m in g1], [gate(m) for m in g2]

                def call(qg, game=game, gamma=gamma, qmode=qmode, q1=q1, q2=q2):
                    return [qg.run_protocol(game, gamma, qmode, a, b) for a in q1 for b in q2]

                def check(res, gamma=gamma, mode=mode, g1=g1, g2=g2, row=row, col=col, label=label):
                    amps = oracle.final_amps(gamma, mode, np.array(g1)[:, None], np.array(g2)[None, :])
                    amps = amps.reshape(-1, 4)
                    return [e for r, a in zip(res, amps)
                            for e in _close_result(label, r, np.abs(a) ** 2, row, col, a)]
            elif kind == "mixed":
                m1, m2 = mixture(rng, mode, 4, 4), mixture(rng, mode, 4, 4)
                x1 = qg.MixedQuantumStrategy([(w, gate(m)) for w, _, m in m1])
                x2 = qg.MixedQuantumStrategy([(w, gate(m)) for w, _, m in m2])

                def call(qg, game=game, gamma=gamma, qmode=qmode, x1=x1, x2=x2):
                    return qg.run_protocol_mixed(game, gamma, qmode, x1, x2)

                def check(res, gamma=gamma, mode=mode, m1=m1, m2=m2, row=row, col=col, label=label):
                    dist = sum(w1 * w2 * oracle.probs(gamma, mode, a, b)
                               for w1, _, a in m1 for w2, _, b in m2)
                    return _close_result(label, res, dist, row, col)
            elif kind == "noisy":
                (_, a), (_, b) = pure(rng, mode), pure(rng, mode)
                nkind, loc = noisy_cells[k % len(noisy_cells)]
                noise = (nkind, rng.random(), loc)
                spec = qg.NoiseSpec(kind=qg.NoiseKind(nkind), p=noise[1],
                                    location=qg.ChannelLocation(loc))
                qa, qb = gate(a), gate(b)

                def call(qg, game=game, gamma=gamma, qmode=qmode, qa=qa, qb=qb, spec=spec):
                    return qg.run_protocol_noisy(game, gamma, qmode, qa, qb, spec)

                def check(res, gamma=gamma, mode=mode, a=a, b=b, noise=noise, row=row, col=col,
                          label=label):
                    dist = oracle.noisy_probs(gamma, mode, a, b, *noise)
                    return _close_result(label, res, dist, row, col)
            elif kind == "sweep":
                (_, a), (_, b) = pure(rng, mode), pure(rng, mode)
                qa, qb = gate(a), gate(b)

                def call(qg, game=game, qmode=qmode, qa=qa, qb=qb):
                    return qg.gamma_sweep(game, qmode, qa, qb, 101)

                def check(res, mode=mode, a=a, b=b, row=row, col=col, label=label):
                    gammas = np.linspace(0, HALF_PI, 101)
                    d = np.array([oracle.probs(g, mode, a, b) for g in gammas])
                    want = np.column_stack([gammas, d @ row.ravel(), d @ col.ravel()])
                    return oracle.close(f"{label} rows", res[1], want)
            else:
                def call(qg, game=game, gamma=gamma, qmode=qmode):
                    return qg.mixed_quantum_equilibrium(game, gamma, qmode, qg.default_menu(qmode),
                                                        qg.SearchConfig())

                def check(res, gamma=gamma, mode=mode, row=row, col=col, label=label):
                    supports = [[(w, g.matrix) for w, g in s.support]
                                for s in (res.strategy_I, res.strategy_II)]
                    return oracle.menu_equilibrium(label, gamma, mode, row, col, *supports,
                                                   [res.payoff_I, res.payoff_II], 1e-6)
            ops.append(LibOp(label, kind, call, check))
    return ops


CLI_WORKLOADS = {"equilibria-B": equilibria_b, "tournament-100k": tournament_100k,
                 "quick-mix": quick_mix}
WORKLOADS = (*CLI_WORKLOADS, "library-kernel")

# Nominal wall time (s) of one pass of each op list (2-core x86-64 host,
# Python 3.11).  A run makes round(seconds / PASS_S) passes, at least one,
# so the ops attempted, and the documented failures among them, depend on
# the seed and --seconds only, never on how fast this run happens to be.
PASS_S = {"equilibria-B": 20.0, "tournament-100k": 20.0, "quick-mix": 14.0, "library-kernel": 3.5}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))
