"""The README's `run` trace header, its Library snippet, its rule, pick and
init lists and the flags it names match the code, and every package export
resolves."""

import re
from pathlib import Path

import ascd
from ascd.cli import build_parser
from ascd.driver import INITS, PICKS, RULES, TRACE_HEADER

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def test_run_trace_header():
    block = re.search(r"`run` traces have the header\s*```\n(.*?)\n```",
                      _section("Trace format"), re.S)
    assert block is not None
    assert block[1] == TRACE_HEADER


def test_library_snippet_runs(capsys):
    snippet = re.search(r"```python\n(.*?)```", _section("Library"), re.S)
    assert snippet is not None
    exec(compile(snippet[1], "README.md", "exec"), {})
    final_f, mean_active_size = map(float, capsys.readouterr().out.split())
    assert final_f >= 0 and mean_active_size >= 1


def test_named_flags_exist():
    # a deleted flag cannot linger in the docs; the install section's
    # flags belong to pip
    known = {opt for sub in build_parser().sub_parsers.values()
             for action in sub._actions for opt in action.option_strings}
    text = README.replace(_section("Install and test"), "")
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    assert named and named <= known, sorted(named - known)


def test_every_rule_described():
    # the rule description is the text above the first section
    intro = README[:README.index("\n## ")]
    missing = [rule for rule in RULES
               if not re.search(rf"(`|\*\*){re.escape(rule)}(`|\*\*)", intro)]
    assert not missing


def test_every_described_rule_exists():
    # the converse: a deleted rule cannot linger in the intro
    intro = README[:README.index("\n## ")]
    named = set(re.findall(r"(?:`|\*\*)(ascd(?:-[\w-]+)?|ucd|scd)(?:`|\*\*)",
                           intro))
    assert named and named <= set(RULES), sorted(named - set(RULES))


def test_every_pick_and_init_named():
    missing = [value for value in PICKS + INITS
               if f"`{value}`" not in README]
    assert not missing


def test_every_export_resolves():
    missing = [name for name in ascd.__all__ if not hasattr(ascd, name)]
    assert not missing
