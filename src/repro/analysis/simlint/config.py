"""simlint configuration: the ``[tool.simlint]`` pyproject table.

Recognised keys (all optional)::

    [tool.simlint]
    select = ["SIM001", "SIM002"]          # default: every rule
    exclude = ["tests/analysis/fixtures"]  # path prefixes / fnmatch globs
    interface-attributes = ["flush", ...]  # SIM006's no-getattr list
    acquire-methods = ["occupy", "reserve"]    # SIM004 resource pairs
    release-methods = ["release"]

    [tool.simlint.per-file-ignores]
    "src/repro/experiments/runner.py" = ["SIM002"]   # host-side wall clock
    "tests/*" = ["SIM005"]                           # exact-time assertions

Python 3.11+ parses the file with :mod:`tomllib`; on 3.10 (which ships no
TOML reader and this repo installs no third-party one) a constrained
fallback parser handles exactly the shapes above -- string values, arrays
of strings, and one level of sub-tables.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ConfigurationError

#: Attributes the serving/system interfaces declare with no-op defaults;
#: ``getattr``-probing for any of these is the SIM006 bug class.  The
#: KV-tracker names are the tier interface every tracker answers (a flat
#: ledger as its one tier), so no caller asks whether a node has tiers.
DEFAULT_INTERFACE_ATTRIBUTES = (
    "flush",
    "clamp_counters",
    "grid_clamp_summary",
    "gpu",
    "tier_reports",
    "promote_for_decode",
    "consume_transfer_seconds",
    "decode_leaves_top_alone",
    "coast_reads",
    "spill_read_seconds",
    "check_coast",
    "spilled_decode_seconds",
)

#: Paired resource methods for SIM004's leak analysis.
DEFAULT_ACQUIRE_METHODS = ("occupy", "reserve")
DEFAULT_RELEASE_METHODS = ("release",)


@dataclass(frozen=True)
class SimlintConfig:
    """Resolved linter configuration (defaults + pyproject + CLI)."""

    select: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    per_file_ignores: tuple[tuple[str, tuple[str, ...]], ...] = ()
    interface_attributes: tuple[str, ...] = DEFAULT_INTERFACE_ATTRIBUTES
    acquire_methods: tuple[str, ...] = DEFAULT_ACQUIRE_METHODS
    release_methods: tuple[str, ...] = DEFAULT_RELEASE_METHODS

    def selected(self, code: str) -> bool:
        """Whether ``code`` is enabled (an empty ``select`` enables all)."""
        return not self.select or code in self.select

    def excluded(self, path: str) -> bool:
        """Whether ``path`` is excluded from linting entirely."""
        return any(_path_matches(path, pattern) for pattern in self.exclude)

    def ignored_codes(self, path: str) -> frozenset[str]:
        """Codes silenced for ``path`` by ``per-file-ignores``."""
        ignored: set[str] = set()
        for pattern, codes in self.per_file_ignores:
            if _path_matches(path, pattern):
                ignored.update(codes)
        return frozenset(ignored)


def _path_matches(path: str, pattern: str) -> bool:
    """Prefix or fnmatch-style match against a normalised relative path."""
    candidate = Path(path)
    candidates = [candidate.as_posix()]
    if candidate.is_absolute():
        # Patterns are written relative to the repo root; let absolute
        # lint paths match them when run from that root.
        try:
            candidates.append(candidate.relative_to(Path.cwd()).as_posix())
        except ValueError:
            pass
    pattern = pattern.rstrip("/")
    for normal in candidates:
        if normal == pattern or normal.startswith(pattern + "/"):
            return True
        if fnmatch.fnmatch(normal, pattern):
            return True
    return False


def find_pyproject(start: str | Path = ".") -> Path | None:
    """Walk upward from ``start`` to the nearest ``pyproject.toml``."""
    current = Path(start).resolve()
    for candidate in [current, *current.parents]:
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(pyproject: str | Path | None = None) -> SimlintConfig:
    """Build a config from ``[tool.simlint]`` (defaults when absent)."""
    if pyproject is None:
        pyproject = find_pyproject()
        if pyproject is None:
            return SimlintConfig()
    path = Path(pyproject)
    if not path.is_file():
        raise ConfigurationError(f"simlint config file not found: {path}")
    table = _read_tool_table(path.read_text())
    return config_from_table(table)


def config_from_table(table: dict) -> SimlintConfig:
    """Validate a raw ``[tool.simlint]`` mapping into a config."""
    known = {
        "select",
        "exclude",
        "per-file-ignores",
        "interface-attributes",
        "acquire-methods",
        "release-methods",
    }
    unknown = sorted(set(table) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown [tool.simlint] key(s): {', '.join(unknown)} "
            f"(expected: {', '.join(sorted(known))})"
        )
    config = SimlintConfig(
        select=_string_tuple(table, "select", upper=True),
        exclude=_string_tuple(table, "exclude"),
    )
    ignores = table.get("per-file-ignores", {})
    if not isinstance(ignores, dict):
        raise ConfigurationError("[tool.simlint] per-file-ignores must be a table")
    per_file = tuple(
        (pattern, tuple(code.upper() for code in _as_string_list(codes, pattern)))
        for pattern, codes in ignores.items()
    )
    config = replace(config, per_file_ignores=per_file)
    for key, attr in (
        ("interface-attributes", "interface_attributes"),
        ("acquire-methods", "acquire_methods"),
        ("release-methods", "release_methods"),
    ):
        if key in table:
            config = replace(config, **{attr: _string_tuple(table, key)})
    return config


def _string_tuple(table: dict, key: str, upper: bool = False) -> tuple[str, ...]:
    values = _as_string_list(table.get(key, []), key)
    return tuple(v.upper() if upper else v for v in values)


def _as_string_list(value, key) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"[tool.simlint] {key!r} must be a list of strings")
    return value


# --- TOML reading ---------------------------------------------------------------


def _read_tool_table(text: str) -> dict:
    """Extract ``[tool.simlint]`` (and its sub-tables) from pyproject text."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: no stdlib TOML reader
        return _fallback_parse(text)
    data = tomllib.loads(text)
    return data.get("tool", {}).get("simlint", {})


_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]+)\]\s*$")
_KEY_RE = re.compile(r"^(?P<key>[\w\-]+|\"[^\"]+\"|'[^']+')\s*=\s*(?P<value>.+)$")


def _fallback_parse(text: str) -> dict:
    """Constrained TOML subset parser for the ``[tool.simlint]`` tables.

    Handles string scalars, (possibly multi-line) arrays of strings, and
    ``[tool.simlint.<sub>]`` sub-tables -- the full shape this module
    documents, nothing more.  Only used when :mod:`tomllib` is missing.
    """
    result: dict = {}
    target: dict | None = None
    lines = iter(text.splitlines())
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        section = _SECTION_RE.match(stripped)
        if section:
            name = section.group("name").strip()
            if name == "tool.simlint":
                target = result
            elif name.startswith("tool.simlint."):
                sub = name[len("tool.simlint.") :].strip().strip("\"'")
                target = result.setdefault(sub, {})
            else:
                target = None
            continue
        if target is None:
            continue
        match = _KEY_RE.match(stripped)
        if match is None:
            raise ConfigurationError(
                f"simlint fallback TOML parser cannot read line: {stripped!r}"
            )
        key = match.group("key").strip("\"'")
        value = match.group("value").strip()
        while value.startswith("[") and not _array_closed(value):
            value += " " + next(lines).strip()
        target[key] = _parse_value(value)
    return result


def _array_closed(value: str) -> bool:
    return value.count("[") <= value.count("]")


def _parse_value(value: str):
    value = value.split("#", 1)[0].strip() if not value.startswith('"') else value
    if value.startswith("["):
        inner = value.strip()[1:-1]
        items = [item.strip() for item in inner.split(",")]
        return [_parse_string(item) for item in items if item]
    return _parse_string(value)


def _parse_string(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in {'"', "'"}:
        return value[1:-1]
    raise ConfigurationError(
        f"simlint fallback TOML parser expects quoted strings, got {value!r}"
    )
