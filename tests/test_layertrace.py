"""The benchmark's layer tracer must still find every name it wraps.

``perfbench/layertrace.py`` rebinds public functions and methods of the
package by name; a change under ``src/`` that drops or renames one of them
breaks the traced benchmark run.  Installing and uninstalling the tracer
here turns that into a test failure.
"""

import pathlib
import re

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    import sullivan.cli as cli

    original = cli.formality_verdict
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert hasattr(cli.formality_verdict, "__wrapped__")
    finally:
        tracer.uninstall()
    assert cli.formality_verdict is original


def test_tracer_counts_graded_component_cache_hits(monkeypatch):
    # The tracer reads PresentedAlgebra._components, the spaces of A^m the
    # algebra keeps, to count cache hits.  The build reads each A^m it needs
    # once, so A^4 is read again after it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    import sullivan.minimal_model as minimal_model
    from sullivan.presented import PresentedAlgebra

    tracer = layertrace.Tracer()
    try:
        tracer.install()
        algebra = PresentedAlgebra.from_strings([("a", 2)], ["a^3"], truncation=7)
        minimal_model.build_minimal_model(algebra, 6)
        algebra.graded_component(4)
    finally:
        tracer.uninstall()
    assert tracer.counters["presented.graded_component.hits"] > 0


def test_a_traced_build_sees_the_elimination(monkeypatch):
    # RowSpace(rows) hands each row to insert, the method the tracer wraps,
    # so a traced build records insert spans and the largest coefficient.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    import sullivan.minimal_model as minimal_model
    from sullivan.presented import PresentedAlgebra

    tracer = layertrace.Tracer()
    try:
        tracer.install()
        algebra = PresentedAlgebra.from_strings(
            [("a", 2), ("b", 2), ("c", 2)], ["a^2 + 2*a*b - 3*c^2", "a*c - 5*b^2 + b*c"],
            truncation=6)
        minimal_model.build_minimal_model(algebra, 5)
    finally:
        tracer.uninstall()
    insert = tracer.layer_id["linalg.insert"]
    assert any(span[0] == insert for span in tracer.spans)
    assert tracer.counters["linalg.max_coeff_bits"] > 0


def _pinned_bindings():
    """(module, name) of each binding under a ``# Not called here`` comment in src/.

    The binding is the first line after the comment block: an import of one
    name, or a function definition.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "sullivan"
    out = []
    for path in sorted(src.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("# Not called here"):
                continue
            binding = next(rest for rest in lines[i + 1 :] if not rest.startswith("#"))
            match = re.match(r"from \.\w+ import (\w+)  # noqa: F401$|def (\w+)\(", binding)
            assert match, (path.name, binding)
            out.append((path.stem, match.group(1) or match.group(2)))
    return out


def test_every_pinned_binding_is_one_the_tracer_requires(monkeypatch):
    """Code kept only for the tracer goes when the tracer stops requiring it.

    A binding under ``# Not called here`` must be an alias the tracer
    requires in that module, or a function it wraps there.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace

    pinned = _pinned_bindings()
    assert pinned
    for module, name in pinned:
        owner = getattr(layertrace, module)
        required = owner in layertrace.REQUIRED_ALIASES.get(name, ())
        wrapped = (owner, name) in layertrace.TARGETS.values()
        assert required or wrapped, (module, name)
