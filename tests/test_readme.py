"""The README's ``## Library`` example runs as written, so the documented
API names no export the package has dropped."""

import pathlib
import re

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
