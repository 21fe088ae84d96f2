"""The benchmark's layer tracer must still find every name it wraps.

``perfbench/layertrace.py`` rebinds public functions and methods of the
package by name; a change under ``src/`` that drops or renames one of them
breaks the traced benchmark run.  Installing and uninstalling the tracer
here turns that into a test failure.
"""

import pathlib

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
    # The tracer reads PresentedAlgebra._components to count cache hits.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    import sullivan.minimal_model as minimal_model
    from sullivan.presented import PresentedAlgebra

    tracer = layertrace.Tracer()
    try:
        tracer.install()
        algebra = PresentedAlgebra.from_strings([("a", 2)], ["a^3"], truncation=7)
        minimal_model.build_minimal_model(algebra, 6)
    finally:
        tracer.uninstall()
    assert tracer.counters["presented.graded_component.hits"] > 0
