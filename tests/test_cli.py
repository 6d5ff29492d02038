"""Tests for config parsing, dispatch, and report emission."""
import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qgames.cli as cli
import qgames.hft as hft_mod
from qgames import (EntanglerMode, Gate1Q, MixedQuantumStrategy, NoiseKind, default_menu,
                    run_protocol)
from qgames.errors import ConfigError, ValidationError
from qgames.ewl import SPACES
from circuit import born_probs, final_amplitudes, haar_gates
from report_ref import write_reports as write_reference_reports


class TestParseAngle:
    def test_pi_fractions_are_exact(self):
        assert cli.parse_angle("pi/2") == math.pi / 2
        assert cli.parse_angle("pi") == math.pi
        assert cli.parse_angle("3pi/4") == 3 * math.pi / 4
        assert cli.parse_angle("-pi/3") == -math.pi / 3
        assert cli.parse_angle("0.5pi") == 0.5 * math.pi

    def test_plain_numbers(self):
        assert cli.parse_angle(1.25) == 1.25
        assert cli.parse_angle("0.75") == 0.75

    def test_rejects_garbage(self):
        # Python's float() reads underscores, non-ASCII digits and spaces,
        # "inf" and "nan"; the angle grammar reads none of them
        for text in ("two pi", "pi/0", float("nan"), "1_0", "\u0661", "\u0661pi", "pi/\u0662",
                     "\uff12", "\u2003 2", "inf", "nan", "0x10", "1e", ".pi"):
            with pytest.raises(ConfigError):
                cli.parse_angle(text)

    def test_float_repr_reads_back(self):
        # strategy specs are often written as f"A({theta!r},{phi!r})"
        for x in (1e-05, -0.0, 0.5, 1.5707963267948966, 1e300, 5e-324, -2.5e-10):
            got = cli.parse_angle(repr(x))
            assert got == x and math.copysign(1, got) == math.copysign(1, x)
        for text, x in ((".5", 0.5), ("3.", 3.0), (" +1E+2 ", 100.0), ("pi/2.", math.pi / 2)):
            assert cli.parse_angle(text) == x


class TestParseStrategy:
    def test_named(self):
        for mode in EntanglerMode:
            g = cli.parse_strategy("Q", mode)
            assert np.allclose(g.matrix, np.diag([1j, -1j]))

    def test_parametric(self):
        g = cli.parse_strategy("B(pi/2, 0, pi/2)", EntanglerMode.DEFECT)
        assert np.abs(g.matrix - np.array([[0, 1j], [1j, 0]])).max() < 1e-12
        g = cli.parse_strategy("A(0, pi/2)", EntanglerMode.DEFECT)
        assert np.allclose(g.matrix, np.diag([1j, -1j]))

    @pytest.mark.parametrize("name", SPACES)
    def test_parametric_is_the_named_sets_gate(self, name):
        rng = np.random.default_rng(3502)
        points = [[math.pi / 2] * len(SPACES[name].BOUNDS)]
        points += [[float(rng.uniform(lo, hi)) for lo, hi in SPACES[name].BOUNDS]
                   for _ in range(20)]
        for point in points:
            text = f"{name}({', '.join(map(repr, point))})"
            want = SPACES[name](*point).gate().matrix.tobytes()
            for mode in EntanglerMode:
                assert cli.parse_strategy(text, mode).matrix.tobytes() == want, text

    def test_mixed(self):
        m = cli.parse_strategy('mixed:[[0.5,"C"],[0.5,"Q"]]', EntanglerMode.DEFECT)
        assert isinstance(m, MixedQuantumStrategy)
        assert [w for w, _ in m.support] == [0.5, 0.5]

    @pytest.mark.parametrize("mode", list(EntanglerMode), ids=lambda m: m.value)
    def test_every_default_menu_name_reads_back_as_its_gate(self, mode):
        # describe_gate prints 9 significant digits, which round theta =
        # pi/2 up by 3.2e-9: B(1.57079633,0,-1.57079633) must still read
        for gate in default_menu(mode):
            name = cli.describe_gate(gate, mode)
            back = cli.parse_strategy(name, mode)
            fidelity = abs(np.trace(gate.matrix.conj().T @ back.matrix)) / 2
            assert fidelity > 1 - 1e-12, name

    def test_every_unitary_name_reads_back_as_its_gate(self):
        # the first row names a gate up to a global phase only if its determinant is 1
        mode = EntanglerMode.DEFECT
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        gates = [hadamard, np.diag([1, 1j]), *haar_gates(np.random.default_rng(38), 5000)]
        for u in gates:
            name = cli.describe_gate(Gate1Q(u), mode)
            back = cli.parse_strategy(name, mode).matrix
            assert abs(np.trace(u.conj().T @ back) / 2) ** 2 >= 1 - 1e-12, name

    def test_rejects_unknown_and_out_of_range(self):
        with pytest.raises(ConfigError):
            cli.parse_strategy("Z", EntanglerMode.DEFECT)
        with pytest.raises(ConfigError):
            cli.parse_strategy("A(pi, 0)", EntanglerMode.DEFECT)  # theta > pi/2
        with pytest.raises(ConfigError):
            cli.parse_strategy("B(1.5708,0,0)", EntanglerMode.DEFECT)  # 3.7e-6 past pi/2
        with pytest.raises(ConfigError):
            cli.parse_strategy('mixed:[[0.9,"C"]]', EntanglerMode.DEFECT)

    @pytest.mark.parametrize("spec, message", [
        ("mixed:[]", "mixed strategy needs a nonempty list"),
        ("mixed:[[0.5]]", "mixed entries are [weight, strategy] pairs"),
        ('mixed:[[1,"mixed:[[1,\\"C\\"]]"]]', "nested mixed strategies are not supported"),
        (5, "expected a strategy string, got int"),
    ], ids=["empty", "no strategy", "nested", "int"])
    def test_malformed_specs_name_the_fault(self, spec, message):
        with pytest.raises(ConfigError) as info:
            cli.parse_strategy(spec, EntanglerMode.DEFECT)
        assert str(info.value) == f"strategy: {message}"


class TestParseConfig:
    def test_named_run(self):
        cfg = cli.parse_config('{"game":"pd","gamma":1.5707963,"players":["Q","Q"]}')
        assert cfg.game.cell(0, 0) == (3.0, 3.0)
        assert cfg.gamma == 1.5707963
        assert cfg.player_specs == ("Q", "Q")

    def test_hft_defaults(self):
        cfg = cli.parse_config('{"game":"hft"}')
        assert cfg.game.row_labels == ("Buy", "Sell")
        assert cfg.game.cell_by_labels("Sell", "Sell") == (1.0, 1.0)
        assert cfg.gamma == math.pi / 2
        assert cfg.mode is EntanglerMode.DEFECT
        assert cfg.noise.kind is NoiseKind.NONE

    def test_gamma_range_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            cli.parse_config('{"gamma": 4.0}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            cli.parse_config('{"games": "pd"}')
        with pytest.raises(ConfigError, match="noise"):
            cli.parse_config('{"noise": {"kind": "none", "level": 1}}')

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            cli.parse_config('{"game": }')

    def test_inline_game(self):
        cfg = cli.parse_config(json.dumps({
            "game": {"row_payoffs": [[6, 2], [7, 0]], "col_payoffs": [[6, 7], [2, 0]],
                     "row_labels": ["C", "D"], "col_labels": ["C", "D"]}}))
        assert cfg.game.cell(1, 0) == (7.0, 2.0)

    def test_exactly_two_players(self):
        with pytest.raises(ConfigError, match="players"):
            cli.parse_config('{"players": ["C"]}')

    def test_round_trip_idempotent(self):
        text = json.dumps({
            "game": "hft", "gamma": "pi/2", "players": ["Q", "B(pi/2,0,pi/2)"],
            "noise": {"kind": "per_qubit_depolarizing", "p": 0.25},
            "search": {"grid_resolution": 8, "space": "B"},
            "tournament": {"rounds": 10, "agents": [
                {"kind": "fixed", "menu": ["Q"]},
                {"kind": "grim_trigger", "menu": ["C", "D"]}]},
            "sweep": {"steps": 5},
        })
        d1 = cli.serialize_config(cli.parse_config(text))
        d2 = cli.serialize_config(cli.parse_config(json.dumps(d1)))
        assert d1 == d2

    def test_canonical_defaults(self):
        agent = {"kind": "epsilon_greedy_bandit", "menu": ["C", "D", "Q"], "epsilon": 0.1,
                 "learning_rate": 0.1, "trigger_threshold": 0.5}
        assert cli.serialize_config(cli.parse_config("{}")) == {
            "game": "pd", "gamma": math.pi / 2, "entangler_mode": "defect",
            "players": ["C", "C"],
            "noise": {"kind": "none", "p": 0.0, "location": "return"},
            "search": {"grid_resolution": 64, "eps_nash": 1e-6, "space": "A"},
            "tournament": {"rounds": 10000, "seed": 0, "sampled_outcomes": False,
                           "experiment": None, "agents": [agent, agent]},
            "sweep": {"steps": 50}, "objective": "welfare", "out": None, "format": "csv"}

    def test_canonical_values(self):
        # integral floats read as ints, ints as floats where a number is
        # expected, and strategy specs are stripped
        cfg = cli.parse_config(json.dumps({
            "players": [" Q ", "C"], "noise": {"p": 1},
            "tournament": {"rounds": 1e4, "seed": 7.0}}))
        t = cli.serialize_config(cfg)["tournament"]
        assert (t["rounds"], t["seed"]) == (10000, 7)
        assert type(t["rounds"]) is int and type(t["seed"]) is int
        assert cfg.tournament.rounds == 10000 and cfg.tournament.seed == 7
        assert cli.serialize_config(cfg)["noise"]["p"] == 1.0
        assert cfg.player_specs == ("Q", "C")


# Arbitrary JSON, with dict keys drawn partly from the schema's own key
# names and string leaves partly from values the schema accepts; and
# canonical settings with one to three of their parts overwritten by
# such JSON, so that many drawn configs are accepted and round-tripped.
_TEMPLATE = cli.serialize_config(cli.parse_config(json.dumps(
    {"game": {"row_payoffs": [[3, 0], [5, 1]], "col_payoffs": [[3, 5], [0, 1]]}})))
_WORDS = ["pd", "hft", "pi/2", "3pi/4", ".pi", "C", "D", "Q", "A(0.3,pi/4)",
          "B(pi/2,0,pi/2)", 'mixed:[[0.5,"C"],[0.5,"Q"]]', "defect", "pauli_x",
          "per_qubit_depolarizing", "two_qubit_depolarizing", "forward", "A", "B",
          "menu_advantage", "fixed", "grim_trigger", "tit_for_tat", "player_I", "json"]


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, path + (key,))


_PATHS = list(_paths(_TEMPLATE))[1:]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(sorted({p[-1] for p in _PATHS if isinstance(p[-1], str)}))
                      | st.text(max_size=6), inner, max_size=5),
    max_leaves=16)


def _has(container, key) -> bool:
    return (isinstance(container, dict) and key in container) or (
        isinstance(container, list) and isinstance(key, int) and key < len(container))


def _plausible(old):
    return (st.sampled_from(_WORDS) | st.integers(-2, 200) | st.floats(-0.5, 2)
            | st.booleans() | st.none() | _JSON)


def _like(old):
    """A value of the JSON type of `old`, one the schema often accepts."""
    if isinstance(old, bool):
        return st.booleans()
    if isinstance(old, int):
        return st.integers(0, 200)
    if isinstance(old, float):
        return st.floats(0, 1.5)
    if isinstance(old, str) or old is None:
        return st.sampled_from(_WORDS) | st.none()
    return st.just(old)


@st.composite
def _edited(draw, values=_plausible):
    """The template with one to three of its parts replaced by a draw
    from values(the template's own value there)."""
    config = json.loads(json.dumps(_TEMPLATE))
    edit = st.sampled_from(_PATHS).flatmap(lambda path: st.tuples(
        st.just(path), values(functools.reduce(operator.getitem, path, _TEMPLATE))))
    for path, value in draw(st.lists(edit, min_size=1, max_size=3)):
        target = config
        for key in path[:-1]:
            target = target[key] if _has(target, key) else None
        if _has(target, path[-1]):  # an earlier edit may have replaced a parent
            target[path[-1]] = value
    return config


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(_JSON | _edited() | _edited(_like))
@example({"tournament": {"rounds": math.nan, "seed": -math.inf}})
@example({"sweep": {"steps": math.inf}, "search": {"grid_resolution": 1e300}})
@example({"noise": {"p": 10 ** 400}})
@example({"gamma": ".pi", "out": "\ud800"})
@example({"tournament": {"agents": [{"menu": []}, {"menu": ['mixed:[[1,"C"]]']}]}})
def test_any_json_is_a_config_or_a_config_error(value):
    try:
        cfg = cli.parse_config(json.dumps(value))
    except ConfigError:
        return
    again = cli.parse_config(json.dumps(cli.serialize_config(cfg)))
    assert again.settings == cfg.settings


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.from_regex(cli._PI_RE) | st.from_regex(cli._PARAM_STRATEGY_RE)
       | st.floats().map(repr) | st.text())
@example(".pi")
@example("nan")
@example("-inf")
@example("1" * 400 + "pi")
@example("A(.pi, 0)")
@example('mixed:[[true, "C"]]')
@example("mixed:" + "[" * 100_000)
def test_any_angle_or_strategy_string_is_read_or_a_config_error(text):
    try:
        assert math.isfinite(cli.parse_angle(text))
    except ConfigError:
        pass
    for mode in EntanglerMode:
        try:
            cli.parse_strategy(text, mode)
        except ConfigError:
            pass


def run_main(args):
    return cli.main(args)


_MIXED = 'mixed:[[0.5,"C"],[0.5,"Q"]]'


class TestDispatch:
    def test_unknown_command_is_2(self, tmp_path, capsys):
        assert cli.dispatch("nope", cli.parse_config("{}"), out_dir=tmp_path) == 2
        assert capsys.readouterr().err == "error: unknown command 'nope'\n"
        assert not any(tmp_path.iterdir())

    def test_payoff_qq(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"game": "pd", "gamma": "pi/2", "players": ["Q", "Q"]}))
        out = tmp_path / "out"
        assert run_main(["payoff", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "payoff.json").read_text())
        assert summary["payoffs"] == [3.0, 3.0]
        assert summary["distribution"][0] == 1.0
        assert (out / "payoff.csv").read_text().splitlines()[0] == \
            "payoff_I,payoff_II,p00,p01,p10,p11"

    def test_payoff_mixed_strategy(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"game": "pd", "gamma": 0,
             "players": ['mixed:[[0.5,"C"],[0.5,"D"]]', 'mixed:[[0.5,"C"],[0.5,"D"]]']}))
        out = tmp_path / "out"
        assert run_main(["payoff", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "payoff.json").read_text())
        assert summary["payoffs"] == [2.25, 2.25]

    def test_payoff_noisy_mixed_strategy(self, tmp_path):
        # the noisy table over both supports, averaged, against per-pair runs
        mixes = ['mixed:[[0.25,"C"],[0.75,"B(0.4,1,-2)"]]', 'mixed:[[0.6,"Q"],[0.4,"D"]]']
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"game": "pd", "gamma": 1.1, "players": mixes,
             "noise": {"kind": "per_qubit_depolarizing", "p": 0.3}}))
        out = tmp_path / "out"
        assert run_main(["payoff", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "payoff.json").read_text())
        cfg = cli.parse_config(cfgfile.read_text())
        want = sum(w1 * w2 * run_protocol(cfg.game, cfg.gamma, cfg.mode, u1, u2,
                                          cfg.noise).distribution.probs
                   for w1, u1 in cfg.players[0].support for w2, u2 in cfg.players[1].support)
        assert np.abs(np.array(summary["distribution"]) - want).max() < 1e-12

    def test_payoff_of_mixtures_at_the_tolerance_edge(self, tmp_path):
        # each mixture's weights sum to 1 - 9e-10, inside the bound; the
        # distribution sums to 1 - 1.8e-9 and is scored, not refused again
        mix = 'mixed:[[0.5,"C"],[0.4999999991,"Q"]]'
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"players": [mix, mix]}))
        out = tmp_path / "out"
        assert run_main(["payoff", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "payoff.json").read_text())
        cfg = cli.parse_config(cfgfile.read_text())
        want = sum(w1 * w2 * born_probs(final_amplitudes(cfg.gamma, cfg.mode, u1.matrix, u2.matrix))
                   for w1, u1 in cfg.players[0].support for w2, u2 in cfg.players[1].support)
        assert np.abs(np.array(summary["distribution"]) - want).max() < 1e-12
        assert np.abs(np.array(summary["payoffs"]) - [want @ v for v in cfg.game.payoff_vectors()]
                      ).max() < 1e-12
        assert np.abs(np.array(summary["payoffs"]) - 1.9999999964).max() < 1e-12

    def test_equilibria_summary(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"game": "pd", "gamma": "pi/2", "players": ["Q", "Q"],
             "search": {"grid_resolution": 16}}))
        out = tmp_path / "out"
        assert run_main(["equilibria", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "equilibria.json").read_text())
        assert summary["pure_nash"] == [["D", "D"]]
        assert len(summary["pareto_optimal"]) == 3
        assert summary["mixed_nash"] == [{"p": 0.0, "q": 0.0, "degenerate": False}]
        quantum = summary["quantum"]
        assert quantum["profile_check"]["is_epsilon_nash"] is True
        assert quantum["profile_check"]["payoffs"] == [3.0, 3.0]
        eq = quantum["menu_equilibrium"]
        assert abs(eq["payoffs"][0] - 2.5) <= 0.05
        support_names = {name for _, name in eq["support_I"] + eq["support_II"]}
        assert {"C", "D", "Q"} <= support_names  # the fourth is the i*sx-like gate

    def test_sweep_csv_shape(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"game": "pd", "players": ["C", "Q"], "sweep": {"steps": 5}}))
        out = tmp_path / "out"
        assert run_main(["sweep", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "gamma,payoff_I,payoff_II"
        assert len(lines) == 6  # header + exactly five rows

    def test_correlated_point_mass(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text('{"game": "pd", "objective": "welfare"}')
        out = tmp_path / "out"
        assert run_main(["correlated", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "correlated.json").read_text())
        assert summary["mu"] == [0.0, 0.0, 0.0, 1.0]
        assert summary["welfare"] == 2.0
        assert summary["is_correlated_equilibrium"] is True

    def test_landscape_and_noise(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "game": "pd", "gamma": "pi/2", "players": ["C", "Q"],
            "search": {"grid_resolution": 8},
            "noise": {"kind": "two_qubit_depolarizing", "p": 1.0}}))
        out = tmp_path / "out"
        assert run_main(["landscape", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        lines = (out / "landscape.csv").read_text().splitlines()
        assert lines[0] == "theta,phi,payoff"
        assert len(lines) == 1 + 8 * 8
        assert run_main(["noise", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "noise.json").read_text())
        assert summary["payoffs"] == [2.25, 2.25]

    def test_tournament_round_log(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "game": "hft", "gamma": "pi/2",
            "tournament": {"rounds": 20, "seed": 3, "agents": [
                {"kind": "fixed", "menu": ["Q"]},
                {"kind": "fixed", "menu": ["Q"]}]}}))
        out = tmp_path / "out"
        assert run_main(["tournament", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        lines = (out / "tournament.csv").read_text().splitlines()
        assert len(lines) == 21
        summary = json.loads((out / "tournament.json").read_text())
        assert summary["mean_payoffs"] == [3.0, 3.0]

    def test_menu_advantage_experiment(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "game": "hft",
            "tournament": {"rounds": 50, "seed": 0, "experiment": "menu_advantage"}}))
        out = tmp_path / "out"
        assert run_main(["tournament", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "tournament.json").read_text())
        assert summary["experiment"] == "menu_advantage"
        assert len(summary["quantum_mean"]) == 2
        lines = (out / "tournament.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 50

    def test_advantage_command(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "game": "pd", "noise": {"kind": "two_qubit_depolarizing", "p": 0.5},
            "search": {"grid_resolution": 16}}))
        out = tmp_path / "out"
        assert run_main(["advantage", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "advantage.json").read_text())
        assert summary["found"] is True
        assert abs(summary["p_star"] - 2 / 3) < 1e-12

    def test_advantage_found_at_low_entanglement(self, tmp_path):
        # (D, D) is the symmetric equilibrium at gamma 0.3; its payoff 1
        # is below the limit 2.5 already without noise
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "game": "pd", "gamma": 0.3, "entangler_mode": "defect",
            "noise": {"kind": "two_qubit_depolarizing"}}))
        out = tmp_path / "out"
        assert run_main(["advantage", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "advantage.json").read_text())
        assert summary["found"] is True and summary["p_star"] == 0.0

    def test_advantage_limit_scales_with_the_game(self, tmp_path):
        # the PD with every payoff times 10: the limit (T+S)/2 is 25
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "game": {"row_payoffs": [[30, 0], [50, 10]], "col_payoffs": [[30, 50], [0, 10]]},
            "noise": {"kind": "two_qubit_depolarizing", "p": 0},
            "search": {"grid_resolution": 16}}))
        out = tmp_path / "out"
        assert run_main(["advantage", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "advantage.json").read_text())
        assert summary["limit"] == 25.0 and summary["found"] is True
        assert abs(summary["p_star"] - 2 / 3) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"game": "pd", "gamma": "pi/2", "players": ["Q", "Q"],
             "sweep": {"steps": 7}}))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_main(["sweep", "--config", str(cfgfile), "--out", str(out),
                             "--quiet"]) == 0
            outs.append(((out / "sweep.csv").read_bytes(), (out / "sweep.json").read_bytes()))
        assert outs[0] == outs[1]

    def test_format_json_embeds_rows(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text('{"game": "pd", "players": ["C", "C"], "sweep": {"steps": 3}}')
        out = tmp_path / "out"
        assert run_main(["sweep", "--config", str(cfgfile), "--out", str(out),
                         "--format", "json", "--quiet"]) == 0
        assert not (out / "sweep.csv").exists()
        summary = json.loads((out / "sweep.json").read_text())
        assert summary["columns"] == ["gamma", "payoff_I", "payoff_II"]
        assert len(summary["rows"]) == 3

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "envout"))
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text('{"game": "pd"}')
        assert run_main(["equilibria", "--config", str(cfgfile), "--quiet"]) == 0
        assert (tmp_path / "envout" / "equilibria.json").exists()


_BANDIT_B_VS_GRIM_NOISY = {
    "game": "hft", "gamma": 1.1, "entangler_mode": "pauli_x",
    "noise": {"kind": "per_qubit_depolarizing", "p": 0.15},
    "tournament": {"rounds": 1500, "seed": 11, "agents": [
        {"kind": "epsilon_greedy_bandit", "menu": ["C", "B(0.7, 1.2, -0.4)", "Q"],
         "epsilon": 0.2, "learning_rate": 0.3},
        {"kind": "grim_trigger", "menu": ["Q", "D"], "trigger_threshold": 0.4}]}}
_TFT_VS_BANDIT_SAMPLED = {
    "game": "pd", "gamma": 0.8,
    "tournament": {"rounds": 2000, "seed": 7, "sampled_outcomes": True, "agents": [
        {"kind": "tit_for_tat", "menu": ["C", "D"]},
        {"kind": "epsilon_greedy_bandit", "menu": ["D", "B(pi/4,0,pi/2)", "Q"],
         "epsilon": 0.25}]}}
_FIXED_B_VS_BANDIT_SAMPLED_NOISY = {
    "game": "hft", "noise": {"kind": "two_qubit_depolarizing", "p": 0.4},
    "tournament": {"rounds": 1000, "seed": 3, "sampled_outcomes": True, "agents": [
        {"kind": "fixed", "menu": ["B(1,0.5,0.5)"]},
        {"kind": "epsilon_greedy_bandit", "menu": ["C", "D"]}]}}
_ADVANTAGE_NOISY = {
    "game": "pd", "gamma": "pi/2", "noise": {"kind": "two_qubit_depolarizing", "p": 0.1},
    "tournament": {"rounds": 1000, "seed": 5, "experiment": "menu_advantage"}}
_ADVANTAGE_SAMPLED = {
    "game": "hft", "gamma": 1.3, "entangler_mode": "pauli_x",
    "tournament": {"rounds": 800, "seed": 9, "sampled_outcomes": True,
                   "experiment": "menu_advantage"}}


def _assert_same_reports(got: Path, want: Path):
    assert sorted(p.name for p in got.iterdir()) == sorted(p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name


def _readme_configs() -> dict:
    """The configs of the README's examples, by file name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = text.split("### Examples", 1)[1].split("\n## ", 1)[0]
    return {name: json.loads(body) for body, name in re.findall(r"echo '(.*)' > (\S+)", examples)}


_REPORT_CONFIGS = {"default": {}, **_readme_configs()}


@pytest.mark.parametrize("name", sorted(_REPORT_CONFIGS))
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_reports_are_the_reference_writers_bytes(tmp_path, command, name):
    """Every command, in both formats, writes what the per-cell reference
    writer (tests/report_ref.py) writes for the same result."""
    text = json.dumps(_REPORT_CONFIGS[name])
    summary, columns, table = cli._COMMAND_IMPLS[command](cli.parse_config(text))
    (tmp_path / "run.json").write_text(text)
    for fmt in ("csv", "json"):
        write_reference_reports(tmp_path / "ref" / fmt, command, fmt, summary, columns, table)
        assert run_main([command, "--config", str(tmp_path / "run.json"), "--out",
                         str(tmp_path / fmt), "--format", fmt, "--quiet"]) == 0
        _assert_same_reports(tmp_path / fmt, tmp_path / "ref" / fmt)


@pytest.mark.numpy_floor
class TestTournamentReportBytes:
    """The tournament round log and summary, pinned by sha256 digest, on
    the oldest numpy too."""

    @pytest.mark.parametrize("config, fmt, digests", [
        (_BANDIT_B_VS_GRIM_NOISY, "csv", {
            "tournament.csv": "8650dc9ff3063eaf0b5570e97d55e47ebd5b952bf6e51c227f7362faba4aded5",
            "tournament.json": "dfbfddbd8afe466c080a011a0e1fac05b0ed05d32186d583e77efde8ca043f75"}),
        (_BANDIT_B_VS_GRIM_NOISY, "json", {
            "tournament.json": "4a38dc213477979fcdddf68ae305a1551a0154e70873b6a6b997514bce9c6f0b"}),
        (_TFT_VS_BANDIT_SAMPLED, "csv", {
            "tournament.csv": "1eb94d1e59c1e860998ff89b6bec8475dcf31cccaf6ca00c01dd47c4cc6d6ac5",
            "tournament.json": "5527141631861874d6004960edf8492534b2c3f225df2f8cd00b2ba5977dc22e"}),
        (_FIXED_B_VS_BANDIT_SAMPLED_NOISY, "csv", {
            "tournament.csv": "a16eb5d4728c4f715a62379e072868d9bf2a9a87675a4cd539ff1e8d04500009",
            "tournament.json": "dd49189c5ed496ba0523e869fcec9f18df8822d0687f95c6d16cbaeb201d2fc6"}),
        (_ADVANTAGE_NOISY, "csv", {
            "tournament.csv": "eeffc9f462689c66e65c7a18f6f16a9336c7415a32cb4bbb5db959412ee9a0e8",
            "tournament.json": "c374efbbaf8cab2b06fdc2de4f79448e599e82509f93332c7cb126b39c538dd0"}),
        (_ADVANTAGE_NOISY, "json", {
            "tournament.json": "60cd559a526bbeb515763c7e9e5d250cfcd1dfc60a5608c78b8ef79c3dc59a81"}),
        (_ADVANTAGE_SAMPLED, "csv", {
            "tournament.csv": "5e62bcad741fbaf648da79eaa8a0c83fd7de6cbb92af34227e3413cb34c4c1e5",
            "tournament.json": "c80e1b9d9398faf474917e33471eb1614bcb2ac44dce404883ff4889464ab0bb"}),
    ])
    def test_report_digests(self, tmp_path, config, fmt, digests):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_main(["tournament", "--config", str(cfgfile), "--out", str(out),
                         "--format", fmt, "--quiet"]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(digests)
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
        assert got == digests

    @pytest.mark.parametrize("config", [_BANDIT_B_VS_GRIM_NOISY, _TFT_VS_BANDIT_SAMPLED,
                                        _ADVANTAGE_SAMPLED])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_log_writes_what_per_cell_rows_write(self, tmp_path, config, fmt):
        summary, columns, log = cli._cmd_tournament(cli.parse_config(json.dumps(config)))
        cli._write_reports(tmp_path / "log", "tournament", fmt, True, summary, columns, log)
        write_reference_reports(tmp_path / "cells", "tournament", fmt, summary, columns, log)
        _assert_same_reports(tmp_path / "log", tmp_path / "cells")

    def test_menu_gate_with_commas_is_quoted(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(_BANDIT_B_VS_GRIM_NOISY))
        out = tmp_path / "out"
        assert run_main(["tournament", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        lines = (out / "tournament.csv").read_text().splitlines()
        assert any(',"B(0.7, 1.2, -0.4)",' in line for line in lines)
        with open(out / "tournament.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 1500
        assert {r[1] for r in rows[1:]} <= {"C", "B(0.7, 1.2, -0.4)", "Q"}
        assert [r[0] for r in rows[1:]] == [str(k) for k in range(1500)]


class TestStreamedJsonRows:
    """`--format json` writes the tournament rows in chunks; the text is
    what json.dump writes for the same rows built in one list."""

    def _same_as_per_cell(self, tmp_path, summary, columns, log):
        cli._write_reports(tmp_path / "log", "tournament", "json", True, summary, columns, log)
        write_reference_reports(tmp_path / "cells", "tournament", "json", summary, columns, log)
        _assert_same_reports(tmp_path / "log", tmp_path / "cells")
        return json.loads((tmp_path / "cells" / "tournament.json").read_bytes())

    def test_non_ascii_gate_name_and_chunk_edges(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK_ROUNDS", 7)  # 50 rounds end mid-chunk
        config = {"game": "pd", "tournament": {"rounds": 50, "seed": 1, "agents": [
            {"kind": "epsilon_greedy_bandit", "menu": ["C", "B(1, 0.5, 0)"], "epsilon": 0.5},
            {"kind": "fixed", "menu": ["Q"]}]}}
        cfg = cli.parse_config(json.dumps(config))
        # configs take ASCII angles only; a library menu names gates freely
        first = cfg.agents[0]
        renamed = (first.menu[0], hft_mod.NamedGate("B(\u0661, 0.5, 0)", first.menu[1].gate))
        cfg.agents = (dataclasses.replace(first, menu=renamed), cfg.agents[1])
        report = self._same_as_per_cell(tmp_path, *cli._cmd_tournament(cfg))
        assert "B(\u0661, 0.5, 0)" in {row[1] for row in report["rows"]}
        assert [row[0] for row in report["rows"]] == [str(k) for k in range(50)]

    def test_empty_round_log(self, tmp_path):
        empty = hft_mod.TournamentResult(rows=(), log=(), mean_payoff_I=0.0, mean_payoff_II=0.0)
        log = cli._RoundLog([(("quantum",), empty)], lambda r: (r.gate_I,))
        assert self._same_as_per_cell(tmp_path, {"seed": 0}, ("round", "gate_I"), log)["rows"] == []


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text('{"gamma": 4.0}')
        assert run_main(["payoff", "--config", str(cfgfile), "--quiet"]) == 2

    @pytest.mark.parametrize("config", [
        {"sweep": {"steps": "abc"}},
        {"players": ['mixed:[["x","C"],[0.5,"Q"]]', "C"]},
        {"noise": 5},
        {"tournament": {"agents": [{"epsilon": "x"}, {}]}},
        {"tournament": []},
        {"sweep": 3},
        {"search": {"refine_iters": 200}},  # removed key
        {"search": {"seed": 0}},  # removed key
        {"search": {"eps_nash": math.nan}},
        {"search": {"eps_nash": math.inf}},
        # values of the wrong JSON type; none may be converted
        {"tournament": {"sampled_outcomes": "false"}},
        {"tournament": {"seed": 1.7}},
        {"tournament": {"rounds": True}},
        {"sweep": {"steps": 2.9}},
        {"players": ['mixed:[[true,"C"]]', "C"]},
        {"tournament": {"seed": -1}},
        # inputs that must not end in a traceback
        {"gamma": ".pi"},
        {"out": "a\u0000b"},
        {"out": "\ud800"},
        {"game": {"row_payoffs": [[3, 0], [5, 1]], "col_payoffs": [[3, 5], [0, 1]],
                  "row_labels": ["\ud800", "x"]}},
        # numbers outside the ASCII angle grammar
        {"gamma": "1_0"},
        {"gamma": "\u0661"},
        {"gamma": "\u0661pi"},
        {"gamma": "pi/\u0662"},
        {"gamma": "\uff12"},
        {"gamma": "\u2003 2"},
        {"players": ["A(\u0661, 0)", "C"]},
        {"players": ["A(1,\u2003 1)", "C"]},
    ])
    def test_malformed_config_is_2(self, tmp_path, capsys, config):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(config))
        assert run_main(["payoff", "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, message", [
        ("payoff", {"tournament": {"agents": [{"menu": [_MIXED]}, {}]}},
         "tournament.agents[0].menu: menu entries must be pure strategies"),
        ("payoff", {"sweep": {"steps": 1}}, "sweep.steps: must be >= 2, got 1"),
        *((command, {"players": [_MIXED, "Q"]},
           f"{command}: players[0] must be a pure strategy for this command")
          for command in ("noise", "sweep", "landscape")),
    ])
    def test_config_error_names_the_input(self, tmp_path, capsys, command, config, message):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(config))
        assert run_main([command, "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_is_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text('{"tournament": {"rounds": 5}}')
        assert run_main(["tournament", "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--seed", "-1", "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_is_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_bytes(b"\xff\xfe{")
        assert run_main(["payoff", "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_deeply_nested_config_is_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text('{"players": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run_main(["payoff", "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_is_4(self, tmp_path):
        assert run_main(["payoff", "--config", str(tmp_path / "nope.json"),
                         "--quiet"]) == 4

    def test_numeric_error_is_3(self, tmp_path, monkeypatch):
        def boom(cfg):
            raise ValidationError("synthetic numeric failure")
        monkeypatch.setitem(cli._COMMAND_IMPLS, "payoff", boom)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text('{"game": "pd"}')
        assert run_main(["payoff", "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 3

    # Sizes past the 64-bit address space: numpy refuses them before it
    # allocates anything (the last four with a ValueError, which the
    # library turns into a RangeError first).
    @pytest.mark.parametrize("command, config", [
        ("sweep", {"sweep": {"steps": 1e14}}),
        ("landscape", {"search": {"grid_resolution": 1000000, "space": "B"}}),
        ("sweep", {"sweep": {"steps": 2 ** 61}}),
        ("landscape", {"search": {"grid_resolution": 2 ** 62}}),
        ("landscape", {"search": {"grid_resolution": 2 ** 21, "space": "B"}}),
        ("advantage", {"search": {"grid_resolution": 2 ** 62}}),
    ])
    def test_unallocatable_result_is_3(self, tmp_path, capsys, command, config):
        cfgfile = tmp_path / "big.json"
        cfgfile.write_text(json.dumps(config))
        assert run_main([command, "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_finite_result_is_3_and_writes_nothing(self, tmp_path, capsys):
        # the welfare 1.7e308 + 1.7e308 overflows to inf
        cfgfile = tmp_path / "huge.json"
        cfgfile.write_text(json.dumps(_OVERFLOWING_GAME))
        assert run_main(["correlated", "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tournament", [
        {"rounds": 50, "agents": [{"kind": "fixed"}, {"kind": "fixed"}]},
        {"rounds": 50, "experiment": "menu_advantage"},
    ], ids=["fixed", "menu_advantage"])
    def test_tournament_mean_of_huge_payoffs_is_0(self, tmp_path, tournament):
        # every payoff 1e308: the round total overflows, the mean does not
        cfgfile = tmp_path / "huge.json"
        cfgfile.write_text(json.dumps({
            "game": {"row_payoffs": [[1e308] * 2] * 2, "col_payoffs": [[1e308] * 2] * 2},
            "tournament": tournament}))
        out = tmp_path / "out"
        assert run_main(["tournament", "--config", str(cfgfile), "--out", str(out),
                         "--quiet"]) == 0
        summary = json.loads((out / "tournament.json").read_text())
        means = [value for key, value in summary.items() if "mean" in key]
        assert means and all(mean == [1e308, 1e308] for mean in means)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["advantage", "equilibria", "landscape", "sweep"])
    def test_overflow_is_3_without_numpy_warnings(self, tmp_path, capsys, command):
        # every payoff the float max: the kernels overflow, which numpy
        # would warn about (an exception under -W error) before exit 3
        cfgfile = tmp_path / "huge.json"
        cfgfile.write_text(json.dumps({
            "game": {"row_payoffs": [[1.7976931348623157e308] * 2] * 2,
                     "col_payoffs": [[1.7976931348623157e308] * 2] * 2},
            "noise": {"kind": "two_qubit_depolarizing"}}))
        assert run_main([command, "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_overflowing_support_solution_is_3(self, tmp_path, capsys):
        # the menu tables are finite, but solving a mixed support's
        # indifference equations overflows to NaN
        cfgfile = tmp_path / "huge.json"
        cfgfile.write_text(json.dumps({
            "game": {"row_payoffs": [[1.0, 3.0], [1e308, 1.7976931348623157e308]],
                     "col_payoffs": [[1.7976931348623157e308, 1.0], [3.0, 5e-324]]},
            "gamma": 0.25358614542561453, "entangler_mode": "pauli_x"}))
        assert run_main(["equilibria", "--config", str(cfgfile), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflows the float range" in err
        assert not (tmp_path / "out").exists()

    def test_io_error_is_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text('{"game": "pd"}')
        assert run_main(["equilibria", "--config", str(cfgfile), "--out",
                         str(blocker / "sub"), "--quiet"]) == 4

    def test_seed_override_accepted(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "game": "hft", "tournament": {"rounds": 5, "agents": [
                {"kind": "epsilon_greedy_bandit", "menu": ["C", "D"]},
                {"kind": "epsilon_greedy_bandit", "menu": ["C", "D"]}]}}))
        out = tmp_path / "out"
        assert run_main(["tournament", "--config", str(cfgfile), "--out", str(out),
                         "--seed", "99", "--quiet"]) == 0
        summary = json.loads((out / "tournament.json").read_text())
        assert summary["seed"] == 99


_OVERFLOWING_GAME = {"game": {"row_payoffs": [[1.7e308, 0], [1.7e308, 0]],
                               "col_payoffs": [[1.7e308, 0], [0, 1]]}}
_CAPS = (("search", "grid_resolution", 16), ("tournament", "rounds", 200),
         ("sweep", "steps", 50))


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.sampled_from(cli.COMMANDS), _edited(_like),
       st.none() | st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=8, max_size=8))
@example("correlated", _OVERFLOWING_GAME, None)
@example("equilibria", {"game": {"row_payoffs": [[0, 0], [0, 0]],  # degenerate mixed Nash
                                 "col_payoffs": [[1, 0], [0, 1]]}}, None)
@example("advantage", {"gamma": 0.4640788838864936, "game": {  # inf in a payoff form
    "row_payoffs": [[-1e308, 1e308], [1.0, 1.7976931348623157e308]],
    "col_payoffs": [[1.7976931348623157e308, 1.7976931348623157e308], [-1e308, -1e308]]}}, None)
def test_any_accepted_config_exits_0_2_or_3_with_strict_json(command, value, payoffs):
    if payoffs is not None and isinstance(value.get("game"), dict):
        value["game"]["row_payoffs"] = [payoffs[0:2], payoffs[2:4]]
        value["game"]["col_payoffs"] = [payoffs[4:6], payoffs[6:8]]
    try:
        config = cli.serialize_config(cli.parse_config(json.dumps(value)))
    except ConfigError:
        return
    for section, key, cap in _CAPS:
        config[section][key] = min(config[section][key], cap)
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile, out = Path(tmp) / "run.json", Path(tmp) / "out"
        cfgfile.write_text(json.dumps(config))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([command, "--config", str(cfgfile), "--out", str(out), "--quiet"])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        for report in out.glob("*.json"):
            json.loads(report.read_text(), parse_constant=_reject_constant)


class TestConsoleScript:
    def test_cli_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, qgames.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_csv_is_utf8_under_an_ascii_locale(self, tmp_path):
        # reports are UTF-8 whatever the locale; an ASCII one used to end
        # a non-ASCII label in a UnicodeEncodeError (exit 1)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"game": {
            "row_payoffs": [[3, 0], [5, 1]], "col_payoffs": [[3, 5], [0, 1]],
            "row_labels": ["\u6f22", "D"]}}))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "qgames.cli", "correlated", "--config", str(cfgfile),
             "--out", str(out), "--quiet"],
            capture_output=True, text=True, env={**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0"})
        assert proc.returncode == 0, proc.stderr
        assert (out / "correlated.csv").read_text(encoding="utf-8").splitlines()[1][0] == "\u6f22"

    def test_entry_point_runs(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text('{"game": "pd", "gamma": "pi/2", "players": ["Q", "Q"]}')
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "qgames.cli", "payoff", "--config", str(cfgfile),
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "payoff.json" in proc.stdout
        summary = json.loads((out / "payoff.json").read_text())
        assert summary["payoffs"] == [3.0, 3.0]
