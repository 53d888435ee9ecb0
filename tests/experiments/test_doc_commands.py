"""The CLI lines quoted in the docs stay runnable.

Every ``python -m repro.cli run …`` or ``dredbox-repro run …`` line in
README.md, the verify skill and the CLI's own usage text must parse,
name a registered experiment and ``--set`` only axes its driver
declares, with values of the declared type.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser
from repro.experiments.runner import parse_assignments

ROOT = Path(__file__).resolve().parents[2]

#: A run command, up to the end of its inline code span, shell comment
#: or line.
COMMAND = re.compile(
    r"(?:python -m repro\.cli|dredbox-repro) (run(?:-all)?\b[^`#\n]*)")


def _commands(text: str) -> list[str]:
    return [match.group(1).strip()
            for match in COMMAND.finditer(text.replace("\\\n", " "))]


DOCS = {
    "README.md": (ROOT / "README.md").read_text(encoding="utf-8"),
    "verify skill": (ROOT / ".claude" / "skills" / "verify"
                     / "SKILL.md").read_text(encoding="utf-8"),
    "cli usage": repro.cli.__doc__,
}
QUOTED = [(doc, command) for doc, text in DOCS.items()
          for command in _commands(text)]


def test_every_doc_quotes_run_commands():
    assert {doc for doc, _command in QUOTED} == set(DOCS)


@pytest.mark.parametrize("doc, command", QUOTED)
def test_quoted_command_is_runnable(doc, command):
    try:
        args = build_parser().parse_args(shlex.split(command))
    except SystemExit:
        pytest.fail(f"{doc}: `{command}` does not parse")
    names = [args.experiment] if args.command == "run" else None
    parse_assignments(names, args.set)
