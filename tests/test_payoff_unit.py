"""Answers do not depend on the payoff unit.

Scaling every payoff of a game by a > 0, and eps_nash with it, scales
every payoff in every answer by a and changes nothing else.  For a power
of two the scaling is exact in floating point, so the property holds bit
for bit.  The one exception is the menu equilibrium's mixed support
solve: its bordered linear system mixes payoffs with the unscaled
constants +-1, so it pivots and rounds differently at another scale;
its payoffs and weights are compared within MENU_BOUND.
"""
import itertools
import json

import numpy as np
import pytest

import qgames.cli as cli
from qgames import (
    Bimatrix,
    EntanglerMode,
    SearchConfig,
    canonical_pd,
    default_menu,
    mixed_quantum_equilibrium,
)
from qgames.errors import QGamesError

SCALES = (2.0 ** -40, 2.0 ** 40)
MENU_SCALES = (2.0 ** -40, 2.0 ** -20, 2.0 ** 20, 2.0 ** 40)
# relative to the largest |payoff| for payoffs, absolute for weights
MENU_BOUND = 1e-14
PD = canonical_pd()
EPS = 1e-6


def seeded_games(seed, n, integer=False, symmetric=False):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = rng.integers(-5, 6, 8).astype(float) if integer else rng.uniform(-5, 5, 8)
        row = x[:4].reshape(2, 2)
        yield Bimatrix(row_payoffs=row, col_payoffs=row.T if symmetric else x[4:].reshape(2, 2))


def scaled(game, a):
    return Bimatrix(row_payoffs=a * game.row_payoffs, col_payoffs=a * game.col_payoffs)


def inline(game):
    return {"row_payoffs": game.row_payoffs.tolist(), "col_payoffs": game.col_payoffs.tolist()}


# -- the menu solver ----------------------------------------------------------

def solve(game, gamma, mode, menu, eps):
    try:
        return mixed_quantum_equilibrium(game, gamma, mode, menu, SearchConfig(eps_nash=eps))
    except QGamesError as exc:
        return type(exc)


MENU_GAMES = [PD, *seeded_games(1010, 4, integer=True)]


@pytest.mark.parametrize("mode", list(EntanglerMode))
@pytest.mark.parametrize("k", range(len(MENU_GAMES)))
def test_menu_equilibrium_scales_with_the_payoffs(k, mode):
    game, menu = MENU_GAMES[k], default_menu(mode)
    bound = MENU_BOUND * max(np.abs(game.row_payoffs).max(), np.abs(game.col_payoffs).max())
    for gamma in np.linspace(0.0, np.pi / 2, 9):
        base = solve(game, gamma, mode, menu, EPS)
        for a in MENU_SCALES:
            got = solve(scaled(game, a), gamma, mode, menu, EPS * a)
            if isinstance(base, type):
                assert got is base, (gamma, a)
                continue
            assert not isinstance(got, type), (gamma, a, got)
            assert got.method == base.method
            assert abs(got.payoff_I - a * base.payoff_I) <= a * bound
            assert abs(got.payoff_II - a * base.payoff_II) <= a * bound
            for mine, theirs in ((got.strategy_I, base.strategy_I),
                                 (got.strategy_II, base.strategy_II)):
                assert [g for _, g in mine.support] == [g for _, g in theirs.support]
                assert all(abs(w - v) <= MENU_BOUND
                           for (w, _), (v, _) in zip(mine.support, theirs.support))


def test_scaled_pd_reproducer_is_the_pure_fixed_point(tmp_path):
    # the PD times 2^-30 at gamma 0.0403: an absolute tie bound of 1e-10
    # once made the best-response dynamics cycle here (exit 3)
    a = 2.0 ** -30
    summaries = []
    for k, game in enumerate((PD, scaled(PD, a))):
        cfg = tmp_path / f"pd{k}.json"
        cfg.write_text(json.dumps({"game": inline(game), "gamma": 0.0403,
                                   "search": {"eps_nash": EPS * (a if k else 1.0)}}))
        assert cli.main(["equilibria", "--config", str(cfg), "--out", str(tmp_path / f"o{k}"),
                         "--quiet"]) == 0
        summaries.append(json.loads((tmp_path / f"o{k}" / "equilibria.json").read_text()))
    base, got = (s["quantum"]["menu_equilibrium"] for s in summaries)
    assert got["method"] == base["method"] == "pure_fixed_point"
    assert got["support_I"] == base["support_I"] == [[1.0, "D"]]
    assert got["support_II"] == base["support_II"] == [[1.0, "B(1.57079633,0,-1.57079633)"]]
    assert got["payoffs"] == [a * x for x in base["payoffs"]]
    assert base["payoffs"] == [1.0032464219351869, 1.0032464219351869]


def run_equilibria(tmp_path, capsys, config) -> tuple:
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    rc = cli.main(["equilibria", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--quiet"])
    return rc, capsys.readouterr().err


def test_eps_below_the_table_rounding_is_named(tmp_path, capsys):
    # the PD times 1e12 at gamma 1.1: the default eps_nash 1e-6 lies below
    # the rounding of the menu table, 4 * 2^-52 * 5e12 = 0.00444, and no
    # equilibrium passes it; eps_nash scaled with the payoffs finds one
    config = {"game": inline(scaled(PD, 1e12)), "gamma": 1.1}
    rc, err = run_equilibria(tmp_path, capsys, config)
    assert rc == 3
    assert err == ("error: no menu equilibrium was found at eps_nash=1e-06, which is below "
                   "the rounding of the menu payoff table (4 * 2^-52 * max|payoff| = "
                   "0.00444); scale eps_nash with the payoffs\n")
    rc, err = run_equilibria(tmp_path, capsys, {**config, "search": {"eps_nash": EPS * 1e12}})
    assert (rc, err) == (0, "")


def test_a_cycle_above_the_table_rounding_keeps_its_message(tmp_path, capsys):
    # the unscaled PD at gamma 0.8: eps_nash is far above the rounding
    rc, err = run_equilibria(tmp_path, capsys, {"gamma": 0.8})
    assert rc == 3
    assert err.startswith("error: best-response dynamics cycled and no equilibrium was found "
                          "on the visited supports; trace=")
    assert "rounding" not in err


# -- every command ------------------------------------------------------------

# the summary keys whose numbers are payoffs
PAYOFF_KEYS = {"payoffs", "max_improvement", "max_payoff", "welfare", "mean_payoffs",
               "quantum_mean", "classical_mean", "quantum_tail_mean", "classical_tail_mean",
               "limit", "payoff_noiseless", "payoff_full_noise"}


def times(value, a):
    if isinstance(value, list):
        return [times(x, a) for x in value]
    return a * value if isinstance(value, float) else value


def expected_summary(summary, a):
    """The summary of the scaled game: every payoff times a."""
    if isinstance(summary, list):
        return [expected_summary(x, a) for x in summary]
    if not isinstance(summary, dict):
        return summary
    out = {}
    for key, value in summary.items():
        if key in PAYOFF_KEYS:
            out[key] = times(value, a)
        elif key in ("first_row", "last_row"):  # sweep: gamma, then the two payoffs
            out[key] = value[:1] + times(value[1:], a)
        elif key == "game":
            out[key] = value
        else:
            out[key] = expected_summary(value, a)
    return out


COMMAND_CASES = [(c, {}) for c in cli.COMMANDS] + [
    ("tournament", {"tournament": {"rounds": 40, "sampled_outcomes": True}}),
    ("tournament", {"tournament": {"rounds": 40, "experiment": "menu_advantage"}}),
]
# a symmetric game has the symmetric equilibrium that advantage asks for
UNIT_GAMES = [PD, *seeded_games(2020, 1), *seeded_games(2020, 1, symmetric=True)]


def run_summary(tmp_path, name, command, game, gamma, a, extra):
    settings = {
        "game": inline(scaled(game, a)), "gamma": gamma, "entangler_mode": "defect",
        "players": ["Q", "B(pi/3,0.4,-1.1)"],
        "noise": {"kind": "per_qubit_depolarizing", "p": 0.2},
        "search": {"grid_resolution": 8, "eps_nash": EPS * a, "space": "B"},
        "tournament": {"rounds": 40}, "sweep": {"steps": 5}, **extra}
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(settings))
    out = tmp_path / name
    code = cli.main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    summary = json.loads((out / f"{command}.json").read_text()) if code == 0 else None
    return code, summary


@pytest.mark.parametrize("command, extra", COMMAND_CASES,
                         ids=[f"{c}-{k}" for k, (c, _) in enumerate(COMMAND_CASES)])
def test_every_summary_scales_with_the_payoffs(tmp_path, command, extra):
    for (k, game), gamma in itertools.product(enumerate(UNIT_GAMES), (0.3, 0.7)):
        base_code, base = run_summary(tmp_path, f"g{k}_{gamma}", command, game, gamma, 1.0, extra)
        for a in SCALES:
            code, got = run_summary(tmp_path, f"g{k}_{gamma}_{a}", command, game, gamma, a, extra)
            assert code == base_code, (k, gamma, a)
            if base is None:
                continue
            want = expected_summary(base, a)
            if command == "equilibria":
                menu, base_menu = (s["quantum"].pop("menu_equilibrium") for s in (got, want))
                bound = a * MENU_BOUND * max(np.abs(game.row_payoffs).max(),
                                             np.abs(game.col_payoffs).max())
                assert menu["method"] == base_menu["method"]
                assert np.abs(np.subtract(menu["payoffs"], base_menu["payoffs"])).max() <= bound
                for side in ("support_I", "support_II"):
                    assert [n for _, n in menu[side]] == [n for _, n in base_menu[side]]
                    assert np.abs(np.subtract([w for w, _ in menu[side]],
                                              [w for w, _ in base_menu[side]])).max() \
                        <= MENU_BOUND
            assert got == want, (k, gamma, a)
