import json
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv, input_text=None):
    cmd = [sys.executable, "-m", "sullivan.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, input=input_text)


GOLDEN_CASES = [
    ("model_cp1.txt", ["model", "--fixture", "cp1"], 0),
    ("model_wedge3_s2.txt", ["model", "--fixture", "wedge3-s2"], 0),
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
    job.write_text(
        "algebra:\n  gen a 2\n  rel a^2\n  truncation 4\nattach:\n  cell 4\n  alpha v3_s1_0 1\n",
        encoding="utf-8",
    )
    built = []
    original = AttachmentModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AttachmentModel, "__init__", counting_init)
    code = cli.main([str(job) if a == "JOB" else a for a in argv])
    assert code == 0, capsys.readouterr().err
    assert len(built) == 1
