"""What `import qgames` and each command load, and the package surface.

A command runs in a fresh process, so what it imports is part of its
run time.  The footprint checks each start a fresh interpreter: inside
pytest every qgames module is loaded already.
"""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgames
import qgames.cli as cli
import qgames.hft
import qgames.noise
import qgames.qcore
import qgames.search
from qgames.qcore import AgentKind, AgentSpec, NamedGate

SRC = Path(__file__).resolve().parents[1] / "src"

# the names `from qgames import *` bound before the package resolved them lazily
NAMES = [
    "AgentKind", "AgentSpec", "BestResponse", "Bimatrix", "CanonicalGates", "ChannelLocation",
    "ConfigError", "ConvergenceError", "EntanglerMode", "Gate1Q",
    "MenuAdvantageReport", "MixedEquilibriumResult", "MixedProfile", "MixedQuantumStrategy",
    "NamedGate", "NoiseKind", "NoiseSpec", "OutcomeDistribution", "Player", "ProtocolResult",
    "PureProfile", "PureState2Q", "QGamesError", "RangeError", "RoundRow",
    "SearchConfig", "StrategyParamsA", "StrategyParamsB", "ThresholdResult",
    "TournamentConfig", "TournamentResult", "ValidationError", "advantage_threshold",
    "best_correlated", "best_response", "canonical_gates", "canonical_pd", "default_menu",
    "expected_payoff", "gamma_sweep", "hft_game",
    "is_correlated_equilibrium", "menu_advantage_experiment", "mixed_nash",
    "mixed_quantum_equilibrium", "noisy_outcome_probs", "outcome_amplitudes",
    "pareto_optimal", "payoff_landscape", "play_tournament", "pure_nash", "run_protocol",
    "run_protocol_mixed", "run_protocol_noisy", "verify_eps_nash",
]

# the value types every config builds, by the module that defined them before
MOVED = {
    qgames.search: ("Player", "SearchConfig"),
    qgames.noise: ("NoiseKind", "NoiseSpec"),
    qgames.hft: ("NamedGate", "AgentKind", "AgentSpec", "TournamentConfig"),
}

# the qgames modules every command loads, and what each command adds
BASE = ["cli", "errors", "ewl", "games", "qcore"]
ADDED = {
    "payoff": [],
    "noise": [],
    "sweep": [],
    "equilibria": ["search"],
    "landscape": ["search"],
    "advantage": ["search"],
    "tournament": ["hft"],
    "correlated": [],
}


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports qgames from SRC."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def loaded_after(code: str) -> list:
    """The qgames submodules a fresh interpreter has loaded after `code`;
    `-X importtime` must list each of them, so that it shows what a
    command's imports cost."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code + "\nimport json, sys\n"
         "print(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith('qgames.'))))"],
        env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    timed = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    assert sorted(name[7:] for name in timed if name.startswith("qgames.")) == loaded
    return loaded


class TestImportFootprint:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import qgames") == []

    def test_cli_import_loads_no_solver(self):
        assert loaded_after("import qgames.cli") == BASE

    @pytest.mark.parametrize("command", sorted(ADDED))
    def test_command_loads_only_its_modules(self, command, tmp_path):
        code = ("from qgames.cli import main\n"
                f"assert main([{command!r}, '--out', {str(tmp_path)!r}, '--quiet']) == 0")
        assert loaded_after(code) == sorted(BASE + ADDED[command])

    def test_a_name_loads_its_home_module(self):
        assert loaded_after("import qgames\nqgames.run_protocol") == [
            "errors", "ewl", "games", "qcore"]

    def test_a_submodule_resolves_as_an_attribute(self):
        # `import qgames` bound every submodule before; the attribute still works
        assert "hft" in loaded_after("import qgames\nqgames.hft.play_tournament")

    def test_the_noise_module_resolves_both_ways(self):
        # it re-exports search's and qcore's names, so it loads search
        loads = ["errors", "ewl", "games", "noise", "qcore", "search"]
        assert loaded_after("import qgames\nqgames.noise") == loads
        assert loaded_after("import qgames.noise") == loads

    def test_every_command_is_listed(self):
        assert sorted(ADDED) == sorted(cli.COMMANDS)


def numpy_random_loaded_after(code: str) -> bool:
    """Whether a fresh interpreter has imported numpy.random after `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('numpy.random' in sys.modules)"],
        env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


class TestLazyBitGenerator:
    """A tournament that draws nothing never imports numpy.random, which
    costs about 10 ms a process on numpy 2.x; one that draws does."""

    @pytest.fixture(scope="class", autouse=True)
    def numpy_random_is_lazy(self):
        if numpy_random_loaded_after("import numpy"):
            pytest.skip("import numpy loads numpy.random (numpy 1.x)")

    @staticmethod
    def loads_numpy_random(tmp_path, agents) -> bool:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"tournament": {"rounds": 100, "agents": agents}}))
        return numpy_random_loaded_after(
            "from qgames.cli import main\n"
            f"assert main(['tournament', '--config', {str(config)!r}, "
            f"'--out', {str(tmp_path)!r}, '--quiet']) == 0")

    def test_fixed_vs_tit_for_tat_unsampled_skips_it(self, tmp_path):
        agents = [{"kind": "fixed", "menu": ["C"]}, {"kind": "tit_for_tat", "menu": ["C", "D"]}]
        assert not self.loads_numpy_random(tmp_path, agents)

    def test_bandits_load_it(self, tmp_path):
        assert self.loads_numpy_random(tmp_path, [{}, {}])


class TestPackageSurface:
    def test_all_is_the_public_names(self):
        assert sorted(qgames.__all__) == NAMES

    def test_each_name_is_its_home_modules_object(self):
        for name in NAMES:
            obj = getattr(qgames, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_moved_types_are_one_object_under_every_path(self):
        for old, names in MOVED.items():
            for name in names:
                obj = getattr(qgames.qcore, name)
                assert obj.__module__ == "qgames.qcore"
                assert getattr(qgames, name) is obj and getattr(old, name) is obj, name

    def test_the_noise_module_only_re_exports(self):
        public = {name: obj for name, obj in vars(qgames.noise).items()
                  if not name.startswith("_")}
        assert sorted(public) == ["NoiseKind", "NoiseSpec", "ThresholdResult",
                                  "advantage_threshold"]
        for name in ("ThresholdResult", "advantage_threshold"):
            assert public[name] is getattr(qgames.search, name) is getattr(qgames, name)
            assert public[name].__module__ == "qgames.search"
        assert public["NoiseKind"] is qgames.qcore.NoiseKind
        assert public["NoiseSpec"] is qgames.qcore.NoiseSpec

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from qgames import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == NAMES
        assert set(NAMES) <= set(dir(qgames))

    def test_a_resolved_name_is_cached_in_the_package(self):
        run_protocol = qgames.run_protocol
        assert vars(qgames)["run_protocol"] is run_protocol

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qgames.no_such_name
        with pytest.raises(ImportError):
            exec("from qgames import no_such_name", {})

    def test_replace_still_works_on_the_frozen_values(self):
        mode = qgames.EntanglerMode.DEFECT
        c, d, q = qgames.canonical_gates(mode)
        spec = AgentSpec(kind=AgentKind.FIXED, menu=(NamedGate("C", c), NamedGate("D", d)))
        assert dataclasses.replace(spec, epsilon=0.25).epsilon == 0.25
        with pytest.raises(qgames.RangeError):
            dataclasses.replace(spec, epsilon=2.0)
        result = qgames.run_protocol(qgames.canonical_pd(), 1.0, mode, q, d)
        changed = dataclasses.replace(result, payoff_I=result.payoff_I + 1.0)
        assert changed.payoff_I == result.payoff_I + 1.0
        assert changed.distribution is result.distribution
