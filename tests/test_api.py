"""The documented API: the package exports and the README's library example."""

import pathlib
import re

import sullivan

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in sullivan.__all__ if not hasattr(sullivan, name)]
    assert missing == []


def test_the_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(blocks[0], scope)
    assert scope["attached"].cohomology(4).dimension == 1
    verdict = scope["verdict"]
    assert (verdict.status, verdict.clause) == (sullivan.FORMAL, "special-decomposable")
