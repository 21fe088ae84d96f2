import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv, input_text=None, env=None):
    cmd = [sys.executable, "-m", "sullivan.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, input=input_text, env=env)


GOLDEN_CASES = [
    ("model_cp1.txt", ["model", "--fixture", "cp1"], 0),
    ("model_wedge3_s2.txt", ["model", "--fixture", "wedge3-s2"], 0),
    ("model_wedge3_s2_json.txt", ["model", "--fixture", "wedge3-s2", "--json"], 0),
    ("attach_cp2.txt", ["attach", "--fixture", "cp2-attach"], 0),
    ("verdict_cp2.txt", ["verdict", "--fixture", "cp2-attach"], 0),
    ("verdict_wedge3_e6.txt", ["verdict", "--fixture", "wedge3-e6"], 10),
    ("verdict_even4k.txt", ["verdict", "--fixture", "even-4k"], 0),
    ("verdict_fatwedge_e6.txt", ["verdict", "--fixture", "fatwedge-e6"], 20),
    ("verdict_wedge3_e6_json.txt", ["verdict", "--fixture", "wedge3-e6", "--json"], 10),
    ("attach_wedge3_e6_json.txt", ["attach", "--fixture", "wedge3-e6", "--json"], 0),
    ("examples.txt", ["examples"], 0),
]


@pytest.mark.parametrize("name,argv,code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs_are_stable(name, argv, code):
    result = run_cli(*argv)
    assert result.returncode == code, result.stderr
    assert result.stdout == (GOLDEN / name).read_text(encoding="utf-8")


HASH_SEED_CASES = [
    c for c in GOLDEN_CASES if c[0] in ("model_wedge3_s2_json.txt", "verdict_fatwedge_e6.txt")
]


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("name,argv,code", HASH_SEED_CASES, ids=[c[0] for c in HASH_SEED_CASES])
def test_golden_outputs_under_hash_seeds(name, argv, code, seed):
    result = run_cli(*argv, env={**os.environ, "PYTHONHASHSEED": seed})
    assert result.returncode == code, result.stderr
    assert result.stdout == (GOLDEN / name).read_text(encoding="utf-8")


def test_golden_outputs_twice_identical():
    first = run_cli("model", "--fixture", "wedge3-s2")
    second = run_cli("model", "--fixture", "wedge3-s2")
    assert first.stdout == second.stdout


def test_examples_lists_all_fixtures():
    result = run_cli("examples")
    for fid in ("cp1", "cp2-attach", "wedge3-s2", "wedge3-e6", "fatwedge-e6", "even-4k"):
        assert fid in result.stdout


def test_examples_json():
    result = run_cli("examples", "--json")
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1
    ids = {f["id"] for f in payload["fixtures"]}
    assert "wedge3-e6" in ids


def test_unknown_fixture_suggests_a_name():
    result = run_cli("verdict", "--fixture", "wedge3-e7")
    assert result.returncode == 65
    assert "wedge3-e6" in result.stderr


def test_model_json_roundtrips_alpha_names(tmp_path):
    """model --json names re-ingested as alpha names always resolve."""
    base = tmp_path / "base.txt"
    base.write_text(
        "algebra:\ngen a 2\nrel a^2\ntruncation 4\n", encoding="utf-8"
    )
    result = run_cli("model", "--input", str(base), "--json")
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1
    degree3 = [g for g in payload["generators"] if g["degree"] == 3]
    assert degree3
    name = degree3[0]["name"]
    job = tmp_path / "job.txt"
    lines = ["algebra:"]
    for g in payload["algebra"]["generators"]:
        lines.append(f"gen {g['name']} {g['degree']}")
    for rel in payload["algebra"]["relations"]:
        lines.append(f"rel {rel}")
    lines.append(f"truncation {payload['truncation']}")
    lines.append("attach:")
    lines.append("cell 4")
    lines.append(f"alpha {name} 1")
    job.write_text("\n".join(lines) + "\n", encoding="utf-8")
    verdict = run_cli("verdict", "--input", str(job))
    assert verdict.returncode == 0, verdict.stderr


def test_fixture_attach_resolves_printed_names():
    """The fixture path resolves alpha against its own printed aliases."""
    model_out = run_cli("model", "--fixture", "wedge3-e6")
    assert "k12" in model_out.stdout
    attach_out = run_cli("attach", "--fixture", "wedge3-e6")
    assert attach_out.returncode == 0
    assert "alpha: k12 -> 1" in attach_out.stdout


def test_fixture_alpha_missing_from_its_model_is_an_internal_fault(monkeypatch, capsys):
    """A fixture whose alpha names a generator its aliased model lacks is broken
    bundled data, not bad user input: exit 70, naming the missing name."""
    import dataclasses

    from sullivan import cli, fixtures

    broken = dataclasses.replace(fixtures.FIXTURES["wedge3-e6"], alpha=(("k99", 1),))
    monkeypatch.setitem(fixtures.FIXTURES, "wedge3-e6", broken)
    assert cli.main(["verdict", "--fixture", "wedge3-e6"]) == 70
    assert "'k99'" in capsys.readouterr().err


def test_verdict_json_schema():
    result = run_cli("verdict", "--fixture", "cp2-attach", "--json")
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1
    assert payload["status"] == "Formal"
    assert payload["clause"] == "special-decomposable"
    assert "witness" in payload and "assumptions" in payload


def test_attach_json_reports_u(tmp_path):
    result = run_cli("attach", "--fixture", "cp2-attach", "--json")
    payload = json.loads(result.stdout)
    assert payload["u"] == {"zero": False, "expression": "-a^2"}
    assert payload["u_decomposable"] is True
    dims = {row["degree"]: row["dim"] for row in payload["cohomology"]}
    assert [dims[m] for m in range(5)] == [1, 0, 1, 0, 1]


def test_parse_error_reports_line(tmp_path):
    job = tmp_path / "bad.txt"
    job.write_text("algebra:\ngen a 2\nrel a +\ntruncation 4\n", encoding="utf-8")
    result = run_cli("model", "--input", str(job))
    assert result.returncode == 65
    assert "line 3" in result.stderr


@pytest.mark.parametrize("flag", [None, 4])
def test_relation_above_truncation_names_the_users_n(tmp_path, flag):
    job = tmp_path / "job.txt"
    job.write_text("algebra:\ngen a 2\nrel a^3\ntruncation 4\n", encoding="utf-8")
    argv = ["model", "--input", str(job)]
    if flag is not None:
        argv += ["--truncation", str(flag)]
    result = run_cli(*argv)
    assert result.returncode == 65
    assert "relation #1 (a^3): degree 6 exceeds N + 1 = 5 for truncation N = 4" in result.stderr
    assert "truncation 5" not in result.stderr
    # degree N + 1 is the highest a relation may have
    assert run_cli("model", "--input", str(job), "--truncation", "5").returncode == 0


@pytest.mark.parametrize("n", [0, 1, -3])
def test_truncation_below_two_names_the_users_n(tmp_path, n):
    job = tmp_path / "job.txt"
    job.write_text(f"algebra:\ngen a 2\nrel a^2\ntruncation {n}\n", encoding="utf-8")
    for argv in (["model", "--input", str(job)],
                 ["verdict", "--input", str(job), "--truncation", str(n)]):
        result = run_cli(*argv)
        assert result.returncode == 65
        assert f"input error: truncation {n} is below 2\n" == result.stderr
        assert "Traceback" not in result.stderr


def test_non_utf8_input_is_a_data_error(tmp_path):
    job = tmp_path / "utf16.txt"
    job.write_bytes(b"\xff\xfe" + "algebra:\ngen a 2\n".encode("utf-16-le"))
    result = run_cli("verdict", "--input", str(job))
    assert result.returncode == 65
    assert f"cannot read {job}: not UTF-8 text at byte 0" in result.stderr
    assert "Traceback" not in result.stderr


def test_unresolved_alpha_names_verbatim(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(
        "algebra:\ngen a 2\nrel a^2\ntruncation 4\n"
        "attach:\ncell 4\nalpha missing_name 1\n",
        encoding="utf-8",
    )
    result = run_cli("attach", "--input", str(job))
    assert result.returncode == 65
    assert "missing_name" in result.stderr


def test_empty_algebra_rejected(tmp_path):
    job = tmp_path / "empty.txt"
    job.write_text("algebra:\ntruncation 4\n", encoding="utf-8")
    result = run_cli("model", "--input", str(job))
    assert result.returncode == 65
    assert "nothing to model" in result.stderr


def test_usage_error_exit_code():
    result = run_cli("model", "--bogus-flag")
    assert result.returncode == 64


def test_missing_input_is_a_data_error():
    result = run_cli("model")
    assert result.returncode == 65


def test_even_mode_rejects_relations(tmp_path):
    job = tmp_path / "even.txt"
    job.write_text(
        "algebra:\ngen a1 2\ngen a2 2\nrel a1^2\ntruncation 4\n"
        "attach:\ncell 4\nalpha b12 1\n",
        encoding="utf-8",
    )
    result = run_cli("verdict", "--even", "1", "--input", str(job))
    assert result.returncode == 65
    assert "skeleton" in result.stderr


def test_even_mode_via_file(tmp_path):
    job = tmp_path / "even.txt"
    job.write_text(
        "algebra:\ngen a1 2\ngen a2 2\ntruncation 4\n"
        "attach:\ncell 4\nalpha b12 1\n",
        encoding="utf-8",
    )
    result = run_cli("verdict", "--even", "1", "--input", str(job))
    assert result.returncode == 0
    assert "overall: Formal" in result.stdout


def test_two_cell_notice(tmp_path):
    job = tmp_path / "wedge.txt"
    job.write_text(
        "algebra:\ngen a 2\nrel a^2\ntruncation 4\n"
        "attach:\ncell 2\n",
        encoding="utf-8",
    )
    result = run_cli("attach", "--input", str(job))
    assert result.returncode == 0
    assert "alpha: 0" in result.stdout


# CP^2: a 4-cell on the 2-sphere along the stage-1 generator
CP2_JOB = "algebra:\n  gen a 2\n  rel a^2\n  truncation 4\nattach:\n  cell 4\n  alpha v3_s1_0 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verdict", "--input", "JOB"],
        ["verdict", "--fixture", "cp2-attach"],
        ["verdict", "--fixture", "even-4k"],
    ],
    ids=["input", "cp2-attach", "even-4k"],
)
def test_verdict_builds_one_attachment(argv, tmp_path, monkeypatch, capsys):
    from sullivan import cli
    from sullivan.attachment import AttachmentModel

    job = tmp_path / "job.txt"
    job.write_text(CP2_JOB, encoding="utf-8")
    built = []
    original = AttachmentModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AttachmentModel, "__init__", counting_init)
    code = cli.main([str(job) if a == "JOB" else a for a in argv])
    assert code == 0, capsys.readouterr().err
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verdict", "--input", "JOB"],
        ["attach", "--input", "JOB"],
        ["attach", "--input", "JOB", "--json"],
        ["verdict", "--fixture", "cp2-attach"],
    ],
    ids=["verdict", "attach", "attach-json", "cp2-attach"],
)
def test_each_command_finds_the_class_of_u_once(argv, tmp_path, monkeypatch, capsys):
    from fractions import Fraction

    from sullivan import cli
    from sullivan.attachment import AttachmentElement
    from sullivan.dgca import CohomologySpace
    from sullivan.gca import Element

    job = tmp_path / "job.txt"
    job.write_text(CP2_JOB, encoding="utf-8")
    u = AttachmentElement(Element.zero(), Fraction(1))
    calls = []
    original = CohomologySpace.class_of

    def counting_class_of(self, element):
        if isinstance(element, AttachmentElement) and element == u:
            calls.append(self.degree)
        return original(self, element)

    monkeypatch.setattr(CohomologySpace, "class_of", counting_class_of)
    code = cli.main([str(job) if a == "JOB" else a for a in argv])
    assert code == 0, capsys.readouterr().err
    assert calls == [4]


@pytest.mark.parametrize("fixture", ["cp1", "wedge3-s2"])
def test_model_json_builds_each_algebra_degree_once(fixture, monkeypatch, capsys):
    """The JSON cohomology dimensions read the A^m the model was built on."""
    from sullivan import cli, dgca
    from sullivan.presented import PresentedAlgebra

    built = {}

    class Counting(dgca.CohomologySpace):
        # A^m is built by FreeDGCA.cohomology; count only the spaces over A
        def __init__(self, cochains, m):
            if isinstance(cochains, PresentedAlgebra):
                built[m] = built.get(m, 0) + 1
            super().__init__(cochains, m)

    monkeypatch.setattr(dgca, "CohomologySpace", Counting)
    assert cli.main(["model", "--fixture", fixture, "--json"]) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["cohomology"]
    assert built and all(n == 1 for n in built.values()), built


@pytest.mark.parametrize("fixture", ["fatwedge-e6", "wedge3-e6", "even-4k"])
def test_verdict_reads_each_model_from_its_build(fixture, monkeypatch, capsys):
    """One FreeDGCA per built model: rename shares it, and verify_standard,
    rename and the twisted d^2 check read its code tables, not decoded d(g)."""
    import sys

    from sullivan import cli, minimal_model
    from sullivan.attachment import AttachmentModel
    from sullivan.dgca import FreeDGCA
    from sullivan.presented import PresentedAlgebra

    counts = {"init": 0, "build": 0}
    init, build = FreeDGCA.__init__, minimal_model.build_minimal_model

    def counting_init(self, *args, **kwargs):
        # a presented algebra is a FreeDGCA too; count only the models' complexes
        if not isinstance(self, PresentedAlgebra):
            counts["init"] += 1
        init(self, *args, **kwargs)

    def counting_build(*args, **kwargs):
        counts["build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(FreeDGCA, "__init__", counting_init)
    for module in (cli, minimal_model, sys.modules["sullivan.formality"],
                   sys.modules["sullivan.fixtures"]):
        monkeypatch.setattr(module, "build_minimal_model", counting_build)

    readers = {
        minimal_model.verify_standard.__code__,
        minimal_model.BigradedModel.rename.__code__,
        AttachmentModel.verify_d_squared.__code__,
    }
    decoded = []

    def spy(name, original):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in readers:
                    decoded.append((name, frame.f_code.co_name))
                frame = frame.f_back
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(minimal_model.BigradedModel, "d_of",
                        spy("d_of", minimal_model.BigradedModel.d_of))
    code = cli.main(["verdict", "--fixture", fixture, "--json"])
    assert code in (0, 10, 20), capsys.readouterr().err  # a verdict, whichever it is
    assert json.loads(capsys.readouterr().out)
    assert counts["build"] >= 1 and counts["init"] == counts["build"], counts
    assert decoded == []


_WEDGE_HEAD = "algebra:\ngen a 2\nrel a^2\n"


@pytest.mark.parametrize(
    "text,line,message",
    [
        ("algebra:\ngen a 2_0\ntruncation 4\n", 2, "bad degree '2_0'"),
        ("algebra:\ngen a ٢\ntruncation 4\n", 2, "bad degree '٢'"),
        (_WEDGE_HEAD + "truncation ٥\n", 4, "bad truncation '٥'"),
        (_WEDGE_HEAD + "truncation 1_0\n", 4, "bad truncation '1_0'"),
        (_WEDGE_HEAD + "truncation 4\nattach:\ncell ٤\n", 6, "bad cell dimension"),
        (_WEDGE_HEAD + "truncation 4\nattach:\ncell 4\nalpha b ٢\n", 7,
         "not a rational literal"),
        ("algebra:\ngen a 2\nrel a^٢\ntruncation 4\n", 3, ""),
    ],
    ids=["underscore-degree", "arabic-degree", "arabic-truncation", "underscore-truncation",
         "arabic-cell", "arabic-alpha", "arabic-exponent"],
)
def test_numbers_take_ascii_digits_only(tmp_path, text, line, message):
    job = tmp_path / "job.txt"
    job.write_text(text, encoding="utf-8")
    result = run_cli("attach" if "attach:" in text else "model", "--input", str(job))
    assert result.returncode == 65, result.stdout
    assert result.stderr.startswith("parse error: " + message), result.stderr
    assert f"(line {line}" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "text,line,first",
    [
        (_WEDGE_HEAD + "truncation 4\ntruncation 3\n", 5, 4),
        ("algebra:\ntruncation 3\ngen a 2\nalgebra:\ntruncation 3\n", 5, 2),
        (_WEDGE_HEAD + "truncation 4\nattach:\ncell 4\ncell 3\n", 7, 6),
    ],
    ids=["truncation", "truncation-in-second-section", "cell"],
)
def test_repeated_truncation_or_cell_is_refused(tmp_path, text, line, first):
    job = tmp_path / "job.txt"
    job.write_text(text, encoding="utf-8")
    result = run_cli("attach" if "attach:" in text else "model", "--input", str(job))
    assert result.returncode == 65, result.stdout
    assert f"(first given on line {first}) (line {line})" in result.stderr
    assert result.stdout == ""


def test_signed_and_per_section_numbers_still_parse():
    from sullivan.cli import parse_job

    spec = parse_job(
        _WEDGE_HEAD + "truncation +4\nattach:\ncell 4\nalpha b 1\nattach:\ncell 3\n"
    )
    assert spec.truncation == 4
    assert [section.cell for section in spec.attaches] == [4, 3]


@pytest.mark.parametrize(
    "argv,flag,word",
    [
        (["model", "--truncation", "٤"], "--truncation", "٤"),
        (["model", "--truncation", "2_0"], "--truncation", "2_0"),
        (["attach", "--truncation", " 4"], "--truncation", " 4"),
        (["verdict", "--even", "١"], "--even", "١"),
        (["verdict", "--even", "1_0"], "--even", "1_0"),
    ],
    ids=["arabic-truncation", "underscore-truncation", "spaced-truncation", "arabic-even",
         "underscore-even"],
)
def test_integer_flags_take_ascii_digits_only(tmp_path, argv, flag, word):
    job = tmp_path / "job.txt"
    job.write_text(_WEDGE_HEAD + "truncation 4\n", encoding="utf-8")
    result = run_cli(*argv, "--input", str(job))
    assert result.returncode == 64, result.stdout
    assert f"error: argument {flag}: invalid integer {word!r}\n" in result.stderr
    assert result.stdout == ""


def test_an_integer_flag_too_long_to_convert_is_a_usage_error(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(_WEDGE_HEAD + "truncation 4\n", encoding="utf-8")
    result = run_cli("model", "--truncation", "9" * 4400, "--input", str(job))
    assert result.returncode == 64, result.stdout
    assert "error: argument --truncation: a number of 4400 digits is too long\n" in result.stderr
    assert result.stdout == ""


def test_closed_stdout_exits_70_without_a_traceback(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(_WEDGE_HEAD + "truncation 4\n", encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        result = subprocess.run(
            [sys.executable, "-m", "sullivan.cli", "model", "--input", str(job)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 70
    assert result.stderr == ""


def test_broken_pipe_leaves_a_stdout_without_a_descriptor_alone(monkeypatch):
    from sullivan import cli

    def closed_pipe(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_examples", closed_pipe)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["examples"]) == 70


def _wedge_cell_job(tmp_path, n=8, seed=8):
    """An input file: an n-cell on the wedge of three 2-spheres, alpha drawn from a seed."""
    import random

    from sullivan.minimal_model import build_minimal_model
    from sullivan.presented import PresentedAlgebra

    gens = [("a1", 2), ("a2", 2), ("a3", 2)]
    rels = ["a1^2", "a2^2", "a3^2", "a1*a2", "a1*a3", "a2*a3"]
    model = build_minimal_model(PresentedAlgebra.from_strings(gens, rels, n + 1), n)
    rng = random.Random(seed)
    names = [g.name for g in model.generators if g.degree == n - 1]
    lines = ["algebra:", *(f"  gen {name} {d}" for name, d in gens),
             *(f"  rel {r}" for r in rels), f"  truncation {n}", "attach:", f"  cell {n}",
             *(f"  alpha {name} {rng.randint(1, 9)}/{rng.randint(1, 5)}"
               for name in rng.sample(names, 3))]
    job = tmp_path / "cell.txt"
    job.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ["--input", str(job)]


@pytest.mark.parametrize(
    "case,n", [("wedge-cell8", 8), ("fatwedge-e6", 6), ("wedge3-e6", 6)]
)
def test_verdict_repeats_no_elimination(case, n, tmp_path, monkeypatch, capsys):
    """After the build, a verdict eliminates no class rows, and below degree
    n - 1 it builds no coboundaries: every space comes from the build."""
    import functools

    from sullivan import cli, dgca, minimal_model

    source = _wedge_cell_job(tmp_path) if case == "wedge-cell8" else ["--fixture", case]
    state = {"built": False}
    late = []
    build, kernel_rref = minimal_model.build_minimal_model, dgca.kernel_rref
    coboundaries = dgca.CohomologySpace.__dict__["coboundaries"].func

    def marking_build(*args, **kwargs):
        model = build(*args, **kwargs)
        state["built"] = True
        return model

    def counting_kernel_rref(*args, **kwargs):
        if state["built"]:
            late.append("kernel_rref")
        return kernel_rref(*args, **kwargs)

    def counting_coboundaries(self):
        if state["built"]:
            late.append(("coboundaries", type(self.cochains).__name__, self.degree))
        return coboundaries(self)

    for module in (cli, sys.modules["sullivan.fixtures"], sys.modules["sullivan.formality"]):
        monkeypatch.setattr(module, "build_minimal_model", marking_build)
    monkeypatch.setattr(dgca, "kernel_rref", counting_kernel_rref)
    spy = functools.cached_property(counting_coboundaries)
    spy.__set_name__(dgca.CohomologySpace, "coboundaries")
    monkeypatch.setattr(dgca.CohomologySpace, "coboundaries", spy)

    code = cli.main(["verdict", *source, "--json"])
    assert code in (0, 10, 20), capsys.readouterr().err
    assert state["built"]
    assert "kernel_rref" not in late, late
    assert all(m >= n - 1 for _, _, m in late), late


@pytest.mark.parametrize(
    "argv",
    [["model", "--fixture", "wedge3-s2"], ["attach", "--fixture", "cp2-attach"],
     ["verdict", "--fixture", "fatwedge-e6"], ["verdict", "--fixture", "even-4k"]],
)
def test_fixture_commands_build_the_algebra_once(argv, monkeypatch, capsys):
    from sullivan import cli, fixtures

    calls = []
    original = fixtures.algebra_of

    def counting(fixture):
        calls.append(fixture.fixture_id)
        return original(fixture)

    monkeypatch.setattr(fixtures, "algebra_of", counting)
    monkeypatch.setattr(cli, "algebra_of", counting)
    assert cli.main(argv) in (0, 10, 20), capsys.readouterr().err
    assert calls == [argv[-1]]
