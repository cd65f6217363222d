"""simlint: every rule fires on its known-bad fixture and stays silent on
the known-good twin; suppressions, config, the CLI, and the repo itself
staying clean are all covered here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.simlint import RULES, SimlintConfig, lint_file
from repro.analysis.simlint.cfg import held_exit_lines
from repro.analysis.simlint.cli import main
from repro.analysis.simlint.config import (
    _fallback_parse,
    config_from_table,
    load_config,
)
from repro.errors import ConfigurationError

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Exact finding counts pin each rule's sensitivity on its bad fixture.
EXPECTED_BAD_COUNTS = {
    "SIM001": 3,
    "SIM002": 5,
    "SIM003": 2,
    "SIM004": 2,
    "SIM005": 3,
    "SIM006": 3,
}


def lint_fixture(name: str, config: SimlintConfig | None = None):
    path = FIXTURES / name
    return lint_file(str(path), path.read_text(), config or SimlintConfig())


class TestRulesOnFixtures:
    @pytest.mark.parametrize("code", sorted(EXPECTED_BAD_COUNTS))
    def test_bad_fixture_fires_only_its_rule(self, code):
        findings = lint_fixture(f"{code.lower()}_bad.py")
        assert findings, f"{code} known-bad fixture produced no findings"
        assert {f.code for f in findings} == {code}
        assert len(findings) == EXPECTED_BAD_COUNTS[code]

    @pytest.mark.parametrize("code", sorted(EXPECTED_BAD_COUNTS))
    def test_good_fixture_is_silent(self, code):
        assert lint_fixture(f"{code.lower()}_good.py") == []

    def test_every_registered_rule_has_a_fixture_pair(self):
        for code in RULES:
            assert (FIXTURES / f"{code.lower()}_bad.py").is_file()
            assert (FIXTURES / f"{code.lower()}_good.py").is_file()

    def test_finding_format_is_clickable(self):
        finding = lint_fixture("sim006_bad.py")[0]
        assert finding.format().startswith(f"{finding.path}:{finding.line}:")
        assert "SIM006" in finding.format()

    def test_discarded_absolute_timeout_is_sim003(self):
        source = "def f(sim):\n    sim.timeout_at(3.0)\n"
        findings = lint_file("mod.py", source, SimlintConfig())
        assert [f.code for f in findings] == ["SIM003"]


class TestSuppressions:
    def test_inline_disable_specific_code(self):
        source = 'def f(sim):\n    sim.event("x")  # simlint: disable=SIM003\n'
        assert lint_file("mod.py", source, SimlintConfig()) == []

    def test_inline_disable_all_codes(self):
        source = 'def f(sim):\n    sim.event("x")  # simlint: disable\n'
        assert lint_file("mod.py", source, SimlintConfig()) == []

    def test_inline_disable_other_code_does_not_suppress(self):
        source = 'def f(sim):\n    sim.event("x")  # simlint: disable=SIM001\n'
        findings = lint_file("mod.py", source, SimlintConfig())
        assert [f.code for f in findings] == ["SIM003"]

    def test_syntax_error_becomes_sim000(self):
        findings = lint_file("mod.py", "def broken(:\n", SimlintConfig())
        assert [f.code for f in findings] == ["SIM000"]


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            config_from_table({"select": [], "typo-key": []})

    def test_select_limits_rules(self):
        config = config_from_table({"select": ["sim006"]})
        findings = lint_fixture("sim005_bad.py", config)
        assert findings == []
        assert lint_fixture("sim006_bad.py", config) != []

    def test_per_file_ignores_glob(self):
        config = config_from_table(
            {"per-file-ignores": {"tests/*": ["SIM005"]}}
        )
        path = "tests/sim/test_clock.py"
        source = "def f(start_time, end_time):\n    return start_time == end_time\n"
        assert lint_file(path, source, config) == []
        assert lint_file("src/clock.py", source, config) != []

    def test_interface_attributes_configurable(self):
        source = 'def f(obj):\n    return getattr(obj, "debug_hook", None)\n'
        assert lint_file("m.py", source, SimlintConfig()) == []
        config = config_from_table({"interface-attributes": ["debug_hook"]})
        assert [f.code for f in lint_file("m.py", source, config)] == ["SIM006"]

    def test_repo_pyproject_loads(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert config.excluded("tests/analysis/fixtures/simlint/sim001_bad.py")
        assert "SIM002" in config.ignored_codes("src/repro/experiments/runner.py")
        assert "SIM005" in config.ignored_codes("tests/sim/test_channel.py")

    def test_fallback_parser_matches_tomllib(self):
        text = (REPO_ROOT / "pyproject.toml").read_text()
        parsed = _fallback_parse(text)
        tomllib = pytest.importorskip("tomllib")
        expected = tomllib.loads(text).get("tool", {}).get("simlint", {})
        assert parsed == expected

    def test_fallback_parser_shapes(self):
        text = """
[tool.simlint]
select = ["SIM001", "SIM002"]
exclude = [
    "a/b",
    "c/d",
]

[tool.simlint.per-file-ignores]
"x/*" = ["SIM005"]

[tool.other]
irrelevant = 1
"""
        assert _fallback_parse(text) == {
            "select": ["SIM001", "SIM002"],
            "exclude": ["a/b", "c/d"],
            "per-file-ignores": {"x/*": ["SIM005"]},
        }


class TestMustReleaseWalk:
    def run_walk(self, source: str):
        import ast

        tree = ast.parse(source)
        func = tree.body[0]
        is_call = lambda call, name: (
            isinstance(call.func, ast.Attribute) and call.func.attr == name
        )
        return held_exit_lines(
            func.body,
            lambda c: is_call(c, "occupy"),
            lambda c: is_call(c, "release"),
        )

    def test_early_return_flagged(self):
        lines = self.run_walk(
            "def f(t, r):\n"
            "    t.occupy(r)\n"
            "    if r.big:\n"
            "        return None\n"
            "    t.release(r)\n"
        )
        assert lines == [4]

    def test_release_inside_loop_does_not_guarantee(self):
        lines = self.run_walk(
            "def f(t, rs):\n"
            "    t.occupy(rs[0])\n"
            "    for r in rs:\n"
            "        t.release(r)\n"
            "    return None\n"
        )
        assert lines == [5]

    def test_raise_paths_exempt(self):
        lines = self.run_walk(
            "def f(t, r):\n"
            "    t.occupy(r)\n"
            "    if r.big:\n"
            "        raise ValueError(r)\n"
            "    t.release(r)\n"
        )
        assert lines == []

    def test_finally_release_covers_returns(self):
        lines = self.run_walk(
            "def f(t, r):\n"
            "    t.occupy(r)\n"
            "    try:\n"
            "        return r.tokens\n"
            "    finally:\n"
            "        t.release(r)\n"
        )
        assert lines == []


class TestCli:
    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_explain_known_and_unknown(self, capsys):
        assert main(["--explain", "sim004"]) == 0
        assert "CFG" in capsys.readouterr().out
        assert main(["--explain", "SIM999"]) == 2

    def test_findings_exit_one(self, capsys):
        code = main(["--no-config", str(FIXTURES / "sim006_bad.py")])
        assert code == 1
        assert "SIM006" in capsys.readouterr().out

    def test_clean_exit_zero(self, capsys):
        assert main(["--no-config", str(FIXTURES / "sim006_good.py")]) == 0
        assert capsys.readouterr().out == ""

    def test_select_filters(self):
        assert main(["--no-config", "--select", "SIM005", str(FIXTURES / "sim006_bad.py")]) == 0
        assert main(["--no-config", "--select", "bogus", str(FIXTURES)]) == 2


class TestRepoIsClean:
    def test_ci_invocation_exits_zero(self):
        """The exact CI command: the repo must lint clean from its root."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.simlint", "src", "tests"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, f"simlint found:\n{proc.stdout}{proc.stderr}"
