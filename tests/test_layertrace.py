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
