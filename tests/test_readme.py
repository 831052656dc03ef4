"""The README's ``## Library`` example runs as written, so the documented
API names no export the package has dropped, and its ``## CLI`` section
names exactly the options the command takes."""

import pathlib
import re

from fqav.cli import PARSER

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    analysis = namespace["analysis"]
    assert namespace["group"].order == 4
    assert analysis.decomposition.total_abelian_dim == 1


def cli_section_flags():
    """The ``--flag``s the README's ``## CLI`` section names."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))


def test_cli_flags_match_the_parser():
    # every option the README documents exists, and every option exists in
    # the README; --help is argparse's own
    options = set(re.findall(r"--[a-z][a-z-]*", PARSER.format_help())) - {"--help"}
    assert cli_section_flags() == options
