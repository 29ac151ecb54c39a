"""Tests for the settings registry (:mod:`repro.settings`).

One contract holds for every ``CHIMERA_*`` setting: unset, empty or
whitespace-only means the default; a value is stripped and parsed; an
unparsable or out-of-bound value raises :class:`ConfigError` naming the
variable. The per-setting inputs below are the single place each knob's
default and edge cases are pinned. Source scans keep the registry the
only reader of these variables, and the README table in sync with it.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path

import pytest

from repro import settings
from repro.cli import main
from repro.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent

#: Stands for ``os.cpu_count() or 1`` in :data:`CASES`.
CPUS = object()

#: name -> (default, [(raw, parsed), ...], [bad raw values]). Bounds
#: are pinned at their edge: an inclusive bound's own value parses, an
#: exclusive one's (heartbeat, SLO window) is bad.
CASES = {
    "CHIMERA_JOBS": (CPUS, [("7", 7), (" 3 ", 3), ("1", 1)],
                     ["zero", "0", "-1", "1.5"]),
    "CHIMERA_SPEC_TIMEOUT": (None, [("2.5", 2.5), ("0", 0.0)],
                             ["soon", "-1"]),
    "CHIMERA_MAX_RETRIES": (1, [("3", 3), ("0", 0)], ["many", "-1"]),
    "CHIMERA_RETRY_BACKOFF": (0.1, [("0.25", 0.25), ("0", 0.0)],
                              ["slow", "-0.1"]),
    "CHIMERA_KEEP_GOING": (False, [("1", True), ("no", True)], []),
    "CHIMERA_SWEEP_CHUNK": (2048, [("128", 128), ("0", 0)],
                            ["-1", "lots"]),
    "CHIMERA_WORKER_GROUP": (None, [("1/3", (1, 3)), ("0/1", (0, 1))],
                             ["3/3", "x/2", "2", "-1/2", "0/0"]),
    "CHIMERA_SHARD_WAIT": (600.0, [("2.5", 2.5), ("0", 0.0)],
                           ["-1", "later"]),
    "CHIMERA_TRACE": (None, [("traces", "traces")], []),
    "CHIMERA_TRACE_CAPACITY": (500_000, [("1234", 1234)], ["many", "0"]),
    "CHIMERA_CACHE_DIR": (".chimera-cache", [(" /tmp/c ", "/tmp/c")], []),
    "CHIMERA_NO_CACHE": (False, [("1", True)], []),
    "CHIMERA_FAULTS": (None, [("fail@1", "fail@1")], []),
    "CHIMERA_FAULT_HANG_S": (3600.0, [("12", 12.0)], ["forever", "-1"]),
    "CHIMERA_QOS_MODE": ("off", [("Escalate", "escalate")], []),
    "CHIMERA_QOS_SLACK": (0.25, [("0.5", 0.5)], ["lots", "-0.1"]),
    "CHIMERA_FLUID_VECTOR": (True, [("1", True), ("on", True),
                                    ("0", False), ("off", False),
                                    ("FALSE", False), ("no", False)], []),
    "CHIMERA_CYCLE_LOCKSTEP": (False, [("1", True)], []),
    "CHIMERA_TRAFFIC_MAX_ARRIVALS": (200_000, [("123", 123)],
                                     ["zero", "0"]),
    "CHIMERA_TRAFFIC_MIX": ("table2-short", [("dl-train", "dl-train")], []),
    "CHIMERA_TRAFFIC_WINDOW_US": (10_000.0, [("2500", 2500.0)],
                                  ["-1", "0", "wide"]),
    "CHIMERA_SERVICE_DIR": (".chimera-service", [("/tmp/x", "/tmp/x")], []),
    "CHIMERA_SERVICE_CAPACITY": (64, [("3", 3)], ["0", "-2", "many"]),
    "CHIMERA_SERVICE_WORKERS": (CPUS, [("3", 3)], ["0", "many"]),
    "CHIMERA_HEARTBEAT": (30.0, [("2.5", 2.5)], ["0", "-1", "soon"]),
    "CHIMERA_QUEUE_TTL": (0.0, [("12.5", 12.5), ("0", 0.0)], ["-1"]),
    "CHIMERA_BROWNOUT_ENTER": (0.85, [("0.6", 0.6), ("1", 1.0), ("0", 0.0)],
                               ["many", "1.5", "-0.1"]),
    "CHIMERA_BROWNOUT_EXIT": (0.5, [("0.1", 0.1), ("0", 0.0)],
                              ["1.5", "x"]),
    "CHIMERA_BROWNOUT_AGE_S": (30.0, [("0", 0.0)], ["-1"]),
    "CHIMERA_BROWNOUT_DWELL_S": (1.0, [("0.25", 0.25)], ["-1"]),
    "CHIMERA_BROWNOUT_BEST_EFFORT": (0, [("-1", -1)], ["low"]),
    "CHIMERA_BROWNOUT_CRITICAL": (5, [("3", 3)], ["high", "2.5"]),
    "CHIMERA_BREAKER_K": (3, [("7", 7)], ["0", "some"]),
    "CHIMERA_BREAKER_WINDOW": (30.0, [("2.5", 2.5)], ["-1"]),
    "CHIMERA_BREAKER_COOLDOWN": (5.0, [("0.5", 0.5)], ["-1"]),
    "CHIMERA_BENCH_PERIODS": (10, [("2", 2)], ["two"]),
    "CHIMERA_BENCH_BUDGET": (8e6, [("2e6", 2e6)], ["big"]),
    "CHIMERA_BENCH_SEED": (12345, [("7", 7)], ["seed"]),
    "CHIMERA_BENCH_MAX_PAIRS": (91, [("2", 2)], ["all"]),
    "CHIMERA_BENCH_CYCLE_QUICK": (False, [("1", True)], []),
    "CHIMERA_BENCH_FLUID_QUICK": (False, [("1", True)], []),
    "CHIMERA_BENCH_TRAFFIC_QUICK": (False, [("1", True)], []),
    "CHIMERA_BENCH_DAEMON_QUICK": (False, [("1", True)], []),
    "CHIMERA_BENCH_OVERLOAD_QUICK": (False, [("1", True)], []),
    "CHIMERA_CYCLE_FAIL_BELOW": (None, [("5", 5.0)], ["fast"]),
    "CHIMERA_FLUID_FAIL_BELOW": (None, [("1.5", 1.5)], ["fast"]),
    "CHIMERA_TRAFFIC_FAIL_BELOW": (None, [("0.25", 0.25)], ["most"]),
    "CHIMERA_DAEMON_FAIL_BELOW": (None, [("1.5", 1.5)], ["fast"]),
    "CHIMERA_OVERLOAD_FAIL_BELOW": (None, [("5000", 5000.0)], ["many"]),
}

GOOD = [(name, raw, parsed) for name, (_, goods, _) in CASES.items()
        for raw, parsed in goods]
BAD = [(name, raw) for name, (_, _, bads) in CASES.items() for raw in bads]


def test_cases_cover_every_setting():
    assert set(CASES) == set(settings.SETTINGS)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("raw", [None, "", "  \t"])
def test_unset_or_blank_gives_the_default(monkeypatch, name, raw):
    if raw is None:
        monkeypatch.delenv(name, raising=False)
    else:
        monkeypatch.setenv(name, raw)
    expected = CASES[name][0]
    if expected is CPUS:
        expected = os.cpu_count() or 1
    assert settings.get(name) == expected
    assert settings.source(name) == "default"


@pytest.mark.parametrize("name,raw,parsed", GOOD)
def test_values_parse(monkeypatch, name, raw, parsed):
    monkeypatch.setenv(name, raw)
    assert settings.get(name) == parsed
    assert settings.source(name) == "env"


@pytest.mark.parametrize("name,raw", BAD)
def test_bad_values_raise_naming_the_variable(monkeypatch, name, raw):
    monkeypatch.setenv(name, raw)
    with pytest.raises(ConfigError, match=name):
        settings.get(name)


def test_parse_error_chains_the_value_error(monkeypatch):
    monkeypatch.setenv("CHIMERA_JOBS", "zero")
    with pytest.raises(ConfigError) as excinfo:
        settings.get("CHIMERA_JOBS")
    assert isinstance(excinfo.value.__cause__, ValueError)


# ----------------------------------------------------------------------
# source scans
# ----------------------------------------------------------------------

SCANNED = sorted(
    path for top in ("src", "benchmarks")
    for path in (ROOT / top).rglob("*.py")
    if path != ROOT / "src" / "repro" / "settings.py")

NAME = re.compile(r"CHIMERA_[A-Z0-9_]*[A-Z0-9]")


def _environ_reads(tree: ast.AST):
    """Line numbers where ``os.environ`` or ``os.getenv`` is read;
    ``os.environ[...] = value`` (a write) is allowed."""
    writes = {id(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
                and id(node) not in writes):
            yield node.lineno


def test_only_the_registry_reads_the_environment():
    offenders = [f"{path.relative_to(ROOT)}:{line}" for path in SCANNED
                 for line in _environ_reads(ast.parse(path.read_text()))]
    assert offenders == []


def test_every_name_in_code_and_ci_is_registered():
    sources = SCANNED + [ROOT / ".github" / "workflows" / "ci.yml"]
    unknown = {f"{path.relative_to(ROOT)}: {name}" for path in sources
               for name in NAME.findall(path.read_text())
               if name not in settings.SETTINGS}
    assert unknown == set()


def test_readme_table_lists_every_setting():
    rows = [line for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("| `CHIMERA_")]
    expected = [f"| `{s.name}` | {s.default_text()} | {s.bound_text()} "
                f"| {s.doc} |" for s in settings.SETTINGS.values()]
    assert rows == expected


# ----------------------------------------------------------------------
# chimera config
# ----------------------------------------------------------------------


@pytest.fixture
def clean_env(monkeypatch):
    for name in [k for k in os.environ if k.startswith("CHIMERA_")]:
        monkeypatch.delenv(name)
    return monkeypatch


def test_config_prints_every_setting_and_its_source(clean_env, capsys):
    clean_env.setenv("CHIMERA_JOBS", "3")
    assert main(["config"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(settings.SETTINGS)
    assert lines[0].split()[1:] == ["3", "env"]
    assert lines[1].split()[1:] == ["unset", "default"]


def test_config_rejects_a_bad_value(clean_env, capsys):
    clean_env.setenv("CHIMERA_HEARTBEAT", "soon")
    assert main(["config"]) == 2
    assert "CHIMERA_HEARTBEAT" in capsys.readouterr().err


def test_config_rejects_an_unregistered_name(clean_env, capsys):
    clean_env.setenv("CHIMERA_JBOS", "2")
    assert main(["config"]) == 2
    assert "CHIMERA_JBOS is not a known setting" in capsys.readouterr().err
