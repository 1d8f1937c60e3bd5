"""README.md states the command-line contract: its exit-code table, its
command synopsis and its library examples are checked against the code."""
import argparse
import re
from pathlib import Path

from singarc import cli, errors

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _section(heading):
    start = README.index(heading + "\n")
    end = README.find("\n#", start + len(heading))
    return README[start:end if end >= 0 else len(README)]


def test_the_exit_code_table_lists_every_code_once():
    codes = [int(m) for m in re.findall(r"^\|\s*(\d+)\s*\|",
                                        _section("### Exit codes"), re.M)]
    expected = {errors.EXIT_OK, errors.EXIT_UNEXPECTED, 2,
                errors.EXIT_PARTIAL_REGULARIZATION,
                errors.EXIT_VIOLATIONS_REMAIN, *errors.EXIT_CODES.values()}
    assert sorted(codes) == sorted(expected)


def test_the_synopsis_matches_each_command_parser():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    synopsis = {}
    for line in re.findall(r"^singular-arc (\w+ .*)$",
                           _section("## Command line"), re.M):
        name, *words = line.split()
        flags = {w.strip("[") for w in words if w.startswith(("--", "[--"))}
        positionals = [w for w in words if not w.startswith("[")
                       and not w.startswith("--") and not w.endswith("]")]
        synopsis[name] = flags, positionals
    assert sorted(synopsis) == sorted(commands)
    for name, sub in commands.items():
        flags, positionals = synopsis[name]
        options = {s for a in sub._actions for s in a.option_strings}
        assert flags == options - {"-h", "--help"}, name
        dests = [a.dest for a in sub._actions if not a.option_strings]
        assert [p.split(".")[0].lower() for p in positionals] == dests, name


def test_the_library_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["audit"].count("violation") == 0
    assert len(namespace["intervals"]) == 1
