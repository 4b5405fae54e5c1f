"""CLI fuzz: a malformed value exits 2 with one ``error:`` line, never a traceback.

The CLI's error contract is that ``main`` maps every :class:`ReproError` to
exit code 2 and one ``error: ...`` line on stderr, and argparse exits 2 on a
usage error. This suite checks the contract at runtime, including for
exceptions raised by builtins and the standard library (``int(nan)``,
``open`` on a missing directory), which no reading of the CLI's own
``raise`` statements can see.

Each example takes one subcommand of :func:`repro.cli.build_parser`, draws
one of its argparse actions and gives it a malformed value. The rest of the
argv is a minimal valid CI-scale call (bert, ``--no-cache``). The actions
are read from the parser, so a new option is fuzzed without editing this
file. The values are:

* numbers (typed options, ``sweep --batches/--errors``): ``nan``, ``inf``,
  ``-inf``, ``-1``, ``0``, ``2**63`` or a non-number, passed as
  ``--opt=value`` so argparse does not read ``-inf`` as a flag. Counts take
  only ``nan``/``inf``/``-inf``/a non-number/``-1``/``0``/``1``, so no
  example starts many processes or loops ``2**63`` times;
* paths (metavar ``FILE``/``DIR``/``PATH``): a missing parent
  directory, a regular file where a directory is expected, or ``/dev/null``;
* names (everything else): an unregistered name or an empty string, never
  an importable module, since ``--plugins`` imports whatever it is given.

``main`` must return or raise ``SystemExit(2)``; any other exception fails
the example. NaN, infinities, non-numbers and unusable paths must exit 2,
with stderr ending in an ``error:`` line. ``-1``, ``0`` and ``2**63`` may
also run to completion. Every call runs with the working directory in a
temporary directory, so the relative defaults (``.repro_cache/``,
``report/``, ``lint-baseline.json``) never land in the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli

#: Count options: never drawn large (a process or loop per unit).
COUNTS = frozenset({"jobs", "tenants", "requests", "batch", "batches"})
#: Untyped string options that parse a comma-separated list of numbers.
NUMBER_LISTS = frozenset({"batches", "errors"})
#: Path metavars; ``DIR`` paths are created (parents included) when missing.
PATH_METAVARS = frozenset({"FILE", "DIR", "PATH"})
#: Optional inputs: a missing file is an empty one (``lint --baseline``).
OPTIONAL_INPUTS = frozenset({"baseline"})

#: Above every subcommand's count of (action, value) pairs, so Hypothesis
#: runs each pair: the space is small and finite.
MAX_EXAMPLES = 100

NOT_A_NUMBER = "not-a-number"
NUMBERS = ("nan", "inf", "-inf", NOT_A_NUMBER, "-1", "0", str(2**63))
COUNT_VALUES = ("nan", "inf", "-inf", NOT_A_NUMBER, "-1", "0", "1")
NAMES = ("no-such-name", "")
PATHS = ("<missing-parent>", "<file-as-dir>", "/dev/null")


def base_call(command: str, workdir: Path) -> dict[str, list[str]]:
    """dest -> argv tokens of a minimal valid call (positionals: their values)."""
    ci = {"scale": ["--scale", "ci"], "no_cache": ["--no-cache"]}
    return {
        "run": {"model": ["--model", "bert"], **ci},
        "figure": {"id": ["11"], "models": ["--models", "bert"], **ci},
        "sweep": {"models": ["--models", "bert"], "policies": ["--policies", "g10"], **ci},
        "report": {"figures": ["--figures", "2"], **ci},
        "lint": {"paths": [str(workdir / "clean.py")]},
        "cache": {"action": ["info"]},
    }[command]


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def fuzzable(subparser: argparse.ArgumentParser) -> list[argparse.Action]:
    """Every action that takes a value (flags and ``--help`` take none)."""
    return [a for a in subparser._actions if a.nargs != 0]


def is_number(action: argparse.Action) -> bool:
    return action.type in (int, cli._finite_float) or action.dest in NUMBER_LISTS


def is_path(action: argparse.Action) -> bool:
    return action.metavar in PATH_METAVARS


def values_for(action: argparse.Action) -> tuple[str, ...]:
    if is_number(action):
        return COUNT_VALUES if action.dest in COUNTS else NUMBERS
    return PATHS if is_path(action) else NAMES


def must_fail(action: argparse.Action, value: str) -> bool:
    """Whether the contract requires exit 2 for this value."""
    if is_number(action):
        return value in ("nan", "inf", "-inf", NOT_A_NUMBER)
    if not is_path(action) or action.dest in OPTIONAL_INPUTS:
        return False
    creates_dir = action.metavar == "DIR"
    return {
        "<file-as-dir>": True,
        "<missing-parent>": not creates_dir,
        "/dev/null": creates_dir,
    }[value]


SUBPARSERS = subparsers()
_fresh = itertools.count()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("cli-fuzz")
    (path / "clean.py").write_text("x = 1\n", encoding="utf-8")
    (path / "plain.txt").write_text("a regular file\n", encoding="utf-8")
    return path


def materialize(value: str, workdir: Path) -> str:
    if value == "<missing-parent>":
        return str(workdir / f"missing{next(_fresh)}" / "sub" / "x.json")
    if value == "<file-as-dir>":
        return str(workdir / "plain.txt" / "x.json")
    return value


def assemble(command: str, tokens: dict[str, list[str]]) -> list[str]:
    """Options first, then positionals after ``--`` (so ``-inf`` stays a value)."""
    positionals = {a.dest for a in SUBPARSERS[command]._actions if not a.option_strings}
    argv = [command]
    for dest, part in tokens.items():
        if dest not in positionals:
            argv += part
    trailing = [token for dest, part in tokens.items() if dest in positionals for token in part]
    return argv + ["--", *trailing] if trailing else argv


def build_argv(command: str, action: argparse.Action, value: str, workdir: Path) -> list[str]:
    tokens = base_call(command, workdir)
    tokens.pop(action.dest, None)
    if action.dest == "cache_dir":
        tokens.pop("no_cache", None)  # --no-cache would ignore --cache-dir
    value = materialize(value, workdir)
    if action.option_strings:
        tokens[action.dest] = [f"{max(action.option_strings, key=len)}={value}"]
    else:
        tokens[action.dest] = [value]
    return assemble(command, tokens)


def call(argv: list[str], workdir: Path) -> tuple[int, str]:
    """``cli.main(argv)`` in ``workdir``: (exit code, stderr)."""
    stderr = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, f"{argv}: SystemExit({exc.code})"
            code = 2
    return code, stderr.getvalue()


def test_every_subcommand_has_fuzzable_actions():
    assert set(SUBPARSERS) >= {"run", "figure", "sweep", "report", "lint", "cache"}
    for command, subparser in SUBPARSERS.items():
        pairs = sum(len(values_for(action)) for action in fuzzable(subparser))
        assert 0 < pairs <= MAX_EXAMPLES, (command, pairs)


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_minimal_call_succeeds(command, workdir):
    """The valid rest of every fuzzed argv: a failure here would mask the fuzz."""
    argv = assemble(command, base_call(command, workdir))
    code, stderr = call(argv, workdir)
    assert code == 0, (argv, stderr)


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(data=st.data())
def test_malformed_value_exits_2_with_one_error_line(command, workdir, data):
    action = data.draw(st.sampled_from(fuzzable(SUBPARSERS[command])), label="action")
    value = data.draw(st.sampled_from(values_for(action)), label="value")
    argv = build_argv(command, action, value, workdir)
    code, stderr = call(argv, workdir)
    assert "Traceback" not in stderr, argv
    if must_fail(action, value):
        assert code == 2, argv
    if code == 2:
        lines = stderr.strip().splitlines()
        assert lines and "error:" in lines[-1], (argv, stderr)
