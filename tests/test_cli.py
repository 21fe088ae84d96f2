import contextlib
import io
import json
import os
import pathlib
import re
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
    ("model_wedge3_e6.txt", ["model", "--fixture", "wedge3-e6"], 0),
    ("model_fatwedge_e6.txt", ["model", "--fixture", "fatwedge-e6"], 0),
    ("attach_wedge3_e6.txt", ["attach", "--fixture", "wedge3-e6"], 0),
    ("verdict_even4k_json.txt", ["verdict", "--fixture", "even-4k", "--json"], 0),
    ("examples_json.txt", ["examples", "--json"], 0),
    (
        "verdict_even_chain.txt",
        ["verdict", "--input", str(GOLDEN / "even_chain.job"), "--even", "1"],
        0,
    ),
    (
        "verdict_even_chain_json.txt",
        ["verdict", "--input", str(GOLDEN / "even_chain.job"), "--even", "1", "--json"],
        0,
    ),
]


@pytest.mark.parametrize("name,argv,code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs_are_stable(name, argv, code):
    result = run_cli(*argv)
    assert result.returncode == code, result.stderr
    assert result.stdout == (GOLDEN / name).read_text(encoding="utf-8")


HASH_SEED_CASES = [
    c
    for c in GOLDEN_CASES
    if c[0]
    in (
        "model_wedge3_s2_json.txt",
        "verdict_fatwedge_e6.txt",
        "verdict_even_chain.txt",
        "verdict_even_chain_json.txt",
    )
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


def _patch_fixture_text(monkeypatch, fixture_id, old, new):
    """Replace ``old`` by ``new`` in a bundled fixture's job text."""
    import dataclasses

    from sullivan import fixtures

    fixture = fixtures.FIXTURES[fixture_id]
    assert old in fixture.text
    broken = dataclasses.replace(fixture, text=fixture.text.replace(old, new))
    monkeypatch.setitem(fixtures.FIXTURES, fixture_id, broken)
    return broken.text


def _names_line(text, alias):
    """The line number of the last names: entry for ``alias``."""
    return [i for i, line in enumerate(text.splitlines(), 1) if line.split()[:2] == ["name", alias]][-1]


def test_fixture_alpha_missing_from_its_model_is_an_internal_fault(monkeypatch, capsys):
    """A fixture whose alpha names a generator its aliased model lacks is broken
    bundled data, not bad user input: exit 70, naming the missing name."""
    from sullivan import cli

    _patch_fixture_text(monkeypatch, "wedge3-e6", "alpha k12 1", "alpha k99 1")
    assert cli.main(["verdict", "--fixture", "wedge3-e6"]) == 70
    err = capsys.readouterr().err
    assert err.startswith("integrity error: fixture 'wedge3-e6': "), err
    assert "'k99'" in err


# a bad entry of wedge3-e6's names: section: (entry lines, their replacement,
# what the message says of it)
NAMES_FAULTS = {
    "unknown-generator": ("name k12 b1*b2", "name k12 b1*q7", "'q7'"),
    "absent-term": ("name k12 b1*b2", "name k12 a1", "no differential has that term"),
    "alias-not-an-identifier": ("name k12 b1*b2", "name k-12 b1*b2", "not an identifier"),
    "alias-twice": ("name k12 b1*b2\n  name k13 b1*b3", "name k12 b1*b2\n  name k12 b1*b3",
                    "that name is already in use"),
    "alias-is-a-generator": ("name k12 b1*b2", "name a2 b1*b2", "that name is already in use"),
}


def _bad_entry(case):
    """(old, new, alias, term, fault) of a NAMES_FAULTS case."""
    old, new, fault = NAMES_FAULTS[case]
    _, alias, term = new.split("\n")[-1].split()
    return old, new, alias, term, fault


@pytest.mark.parametrize("case", ["unknown-generator", "absent-term"])
def test_fixture_alias_table_fault_is_an_internal_fault(case, monkeypatch, capsys):
    """A naming-table entry whose term names no generator of the model, or
    that no differential has, is broken bundled data: exit 70, naming the
    fixture and the alias."""
    from sullivan import cli

    old, new, _, _, fault = _bad_entry(case)
    _patch_fixture_text(monkeypatch, "wedge3-e6", old, new)
    assert cli.main(["verdict", "--fixture", "wedge3-e6"]) == 70
    err = capsys.readouterr().err
    assert err.startswith("integrity error: fixture 'wedge3-e6': the alias 'k12'"), err
    assert fault in err


@pytest.mark.parametrize("case", ["alias-twice", "alias-is-a-generator", "alias-not-an-identifier"])
def test_fixture_alias_collision_is_an_internal_fault(case, monkeypatch, capsys):
    """A naming-table alias that another generator already has, or that is not
    an identifier (printed names must re-parse), is broken bundled data: exit
    70, naming the fixture and the alias."""
    from sullivan import cli

    old, new, alias, term, fault = _bad_entry(case)
    _patch_fixture_text(monkeypatch, "wedge3-e6", old, new)
    assert cli.main(["verdict", "--fixture", "wedge3-e6"]) == 70
    assert capsys.readouterr().err == (
        f"integrity error: fixture 'wedge3-e6': the alias {alias!r} on {term!r}: {fault}\n"
    )


def test_fixture_bad_relation_is_an_internal_fault(monkeypatch, capsys):
    """A relation the presentation check refuses, in a fixture's text, is
    broken bundled data: exit 70, naming the fixture."""
    from sullivan import cli

    _patch_fixture_text(monkeypatch, "wedge3-s2", "rel a1*a2", "rel a1*a2 + a3")
    assert cli.main(["model", "--fixture", "wedge3-s2"]) == 70
    assert capsys.readouterr().err == (
        "integrity error: fixture 'wedge3-s2': invalid presentation: "
        "relation #2 (a1*a2 + a3): inhomogeneous (degrees [2, 4])\n"
    )


@pytest.mark.parametrize("argv, code", [
    (["verdict", "--fixture", "wedge3-e6"], 10),
    (["verdict", "--fixture", "cp2-attach", "--json"], 0),
    (["model", "--fixture", "wedge3-s2"], 0),
])
def test_a_command_validates_its_presentation_once(argv, code, monkeypatch, capsys):
    from sullivan import cli, presented

    original = presented.validate_presentation
    calls = []

    def counting(algebra):
        calls.append(algebra)
        return original(algebra)

    # the function is wrapped under every name a module of the package binds it to
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "validate_presentation", None)
        if name.split(".")[0] == "sullivan" and bound is original:
            monkeypatch.setattr(module, "validate_presentation", counting)
    assert cli.main(argv) == code
    capsys.readouterr()
    assert len(calls) == 1


def _user_copy(tmp_path, fixture_id, old, new):
    """A user's file holding a fixture's text with ``old`` replaced by ``new``."""
    from sullivan.fixtures import get_fixture

    text = get_fixture(fixture_id).text
    assert old in text
    job = tmp_path / "job.txt"
    job.write_text(text.replace(old, new), encoding="utf-8")
    return job


@pytest.mark.parametrize("case", sorted(NAMES_FAULTS))
def test_bad_names_entry_in_a_users_file_is_a_data_error(case, tmp_path, capsys):
    """The same entries in a user's file exit 65 and name the entry's line."""
    from sullivan import cli

    old, new, alias, term, fault = _bad_entry(case)
    job = _user_copy(tmp_path, "wedge3-e6", old, new)
    line = _names_line(job.read_text(encoding="utf-8"), alias)
    assert cli.main(["verdict", "--input", str(job)]) == 65
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: the alias {alias!r} on {term!r}: "), err
    assert fault in err and err.endswith(f" (line {line})\n"), err


def test_alpha_missing_from_a_users_model_is_a_data_error(tmp_path, capsys):
    from sullivan import cli

    job = _user_copy(tmp_path, "wedge3-e6", "alpha k12 1", "alpha k99 1")
    assert cli.main(["verdict", "--input", str(job)]) == 65
    assert capsys.readouterr().err == "input error: alpha names not found in the model: 'k99'\n"


_WEDGE2 = "algebra:\n  gen a1 2\n  gen a2 2\n  rel a1^2\n  rel a1*a2\n  rel a2^2\n"
CELL_REFUSALS = {
    5: (
        "truncation 5\nattach:\n  cell 5\n  alpha v3_s1_0 1\n",
        "input error: alpha is keyed on 'v3_s1_0' of degree 3; "
        "the 5-cell pairs only with degree 4\n",
    ),
    8: (
        "truncation 6\nattach:\n  cell 8\n",
        "input error: the 8-cell needs the model through degree 8; it is truncated at 6\n",
    ),
}


@pytest.mark.parametrize("n", sorted(CELL_REFUSALS))
@pytest.mark.parametrize("command", ["attach", "verdict"])
def test_a_cell_the_model_cannot_take_is_a_data_error(command, n, tmp_path, capsys):
    from sullivan import cli

    tail, message = CELL_REFUSALS[n]
    job = tmp_path / "job.txt"
    job.write_text(_WEDGE2 + "  " + tail, encoding="utf-8")
    assert cli.main([command, "--input", str(job)]) == 65
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["attach", "--fixture", "cp1"], "has no attachment"),
        (["attach", "--fixture", "even-4k"], "is an even-mode fixture; use: verdict --even K"),
        (["model", "--fixture", "cp1", "--truncation", "5"],
         "--truncation cannot override a fixture's truncation"),
    ],
    ids=["no-attachment", "even-mode", "truncation"],
)
def test_fixture_misuse_is_a_data_error(argv, message, capsys):
    from sullivan import cli

    assert cli.main(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and message in captured.err, captured.err


def test_even_mode_job_with_names_is_refused(tmp_path, capsys):
    from sullivan import cli

    job = _user_copy(tmp_path, "even-4k", "attach:", "names:\nattach:")
    assert cli.main(["verdict", "--even", "1", "--input", str(job)]) == 65
    assert "remove the names: section" in capsys.readouterr().err


def _fixture_commands():
    """Every (fixture, command, --json or not), but attach on an even-mode
    fixture: attach refuses the fixture, and its text alone is no even-mode job."""
    from sullivan.fixtures import FIXTURES

    return [(fid, command, json_flag) for fid, fixture in sorted(FIXTURES.items())
            for command in ("model", "attach", "verdict") for json_flag in ((), ("--json",))
            if command != "attach" or fixture.even_half_degree is None]


@pytest.mark.parametrize("fid,command,json_flag", _fixture_commands())
def test_a_fixture_is_its_job_text(fid, command, json_flag, tmp_path, capsys):
    """--fixture ID and --input on the fixture's text print the same stdout and
    stderr and exit alike; an even-mode fixture's run adds --even K."""
    from sullivan import cli
    from sullivan.fixtures import get_fixture

    fixture = get_fixture(fid)
    job = tmp_path / "job.txt"
    job.write_text(fixture.text, encoding="utf-8")
    even = () if command != "verdict" or fixture.even_half_degree is None else (
        "--even", str(fixture.even_half_degree))
    runs = []
    for source in (["--fixture", fid], ["--input", str(job), *even]):
        code = cli.main([command, *source, *json_flag])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_job():
    """The input-format sample of the README."""
    fenced = re.findall(r"^```\w*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    blocks = [block for block in fenced if block.startswith("algebra:")]
    assert len(blocks) == 1
    return blocks[0]


def test_the_readme_input_sample_runs(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(_readme_job(), encoding="utf-8")
    result = run_cli("verdict", "--input", str(job))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("status: Formal\n")


def test_names_job_output_is_the_same_under_hash_seeds(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text(_readme_job(), encoding="utf-8")
    outputs = [run_cli("model", "--input", str(job), env={**os.environ, "PYTHONHASHSEED": seed})
               for seed in ("0", "1")]
    assert outputs[0].returncode == 0, outputs[0].stderr
    assert " w1 " in outputs[0].stdout and " b12 " in outputs[0].stdout
    assert outputs[0].stdout == outputs[1].stdout


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


@pytest.mark.parametrize(
    "flags,golden",
    [([], "verdict_even_chain.txt"), (["--json"], "verdict_even_chain_json.txt")],
    ids=["text", "json"],
)
def test_even_mode_needs_no_truncation_line(flags, golden, tmp_path, capsys):
    """Without a truncation line, even mode builds through 4k as it always
    does, and prints what the job with its 'truncation 4' line prints."""
    from sullivan import cli

    text = (GOLDEN / "even_chain.job").read_text(encoding="utf-8")
    assert "  truncation 4\n" in text
    job = tmp_path / "even.job"
    job.write_text(text.replace("  truncation 4\n", ""), encoding="utf-8")
    assert cli.main(["verdict", "--input", str(job), "--even", "1", *flags]) == 0
    assert capsys.readouterr() == ((GOLDEN / golden).read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("command", ["model", "attach", "verdict"])
def test_a_job_without_a_truncation_is_a_data_error_outside_even_mode(command, tmp_path, capsys):
    from sullivan import cli

    job = tmp_path / "job.txt"
    job.write_text("algebra:\n  gen a 2\n  rel a^2\nattach:\n  cell 4\n", encoding="utf-8")
    assert cli.main([command, "--input", str(job)]) == 65
    assert capsys.readouterr() == (
        "", "input error: no truncation given (use 'truncation N' or --truncation)\n")


def test_two_cell_notice(tmp_path):
    """A 2-cell's alpha is coerced to 0, with a notice in text and a flag in JSON."""
    job = tmp_path / "wedge.txt"
    job.write_text(
        "algebra:\ngen a 2\nrel a^2\ntruncation 4\n"
        "attach:\ncell 2\nalpha a 1\n",
        encoding="utf-8",
    )
    result = run_cli("attach", "--input", str(job))
    assert result.returncode == 0
    assert "notice: a 2-cell attachment is rationally a wedge; alpha = 0\n" in result.stdout
    assert "alpha: 0" in result.stdout
    result = run_cli("attach", "--input", str(job), "--json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["alpha_coerced"] is True
    assert payload["alpha"] == []


_WEDGE3_JOB = (
    "algebra:\ngen a1 2\ngen a2 2\ngen a3 2\n"
    "rel a1^2\nrel a1*a2\nrel a1*a3\nrel a2^2\nrel a2*a3\nrel a3^2\ntruncation 4\n"
)
_ATTACH_TABLE = "cohomology of the attached complex:\ndegree  dim\n------  ---\n"

ATTACH_TEXT_CASES = {
    "u-zero": (
        _WEDGE3_JOB + "attach:\ncell 3\nalpha a1 1\n",
        "cell: n = 3\nalpha: a1 -> 1\n"
        "u = 0 (the attaching class has nonzero Hurewicz image)\n\n"
        + _ATTACH_TABLE + "0       1\n1       0\n2       2\n3       0\n4       0\n",
    ),
    "torsion": (
        _WEDGE3_JOB + "attach:\ncell 4\n",
        "cell: n = 4\nalpha: 0\nu spans a new class (not visible in the base)\n"
        "u decomposable: no\n\n"
        + _ATTACH_TABLE + "0       1\n1       0\n2       3\n3       0\n4       1\n",
    ),
    "two-cell": (
        "algebra:\ngen a 2\nrel a^2\ntruncation 4\nattach:\ncell 2\nalpha a 1\n",
        "cell: n = 2\nnotice: a 2-cell attachment is rationally a wedge; alpha = 0\n"
        "alpha: 0\nu spans a new class (not visible in the base)\nu decomposable: no\n\n"
        + _ATTACH_TABLE + "0       1\n1       0\n2       2\n3       0\n4       0\n",
    ),
}


@pytest.mark.parametrize("case", sorted(ATTACH_TEXT_CASES))
def test_attach_text_is_exact(case, tmp_path, capsys):
    """attach text for u = 0, for a u with no alpha, and for a coerced 2-cell."""
    from sullivan import cli

    text, expected = ATTACH_TEXT_CASES[case]
    job = tmp_path / "job.txt"
    job.write_text(text, encoding="utf-8")
    assert cli.main(["attach", "--input", str(job)]) == 0
    assert capsys.readouterr().out == expected


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


def _cell_fixture_verdicts():
    from sullivan.fixtures import FIXTURES

    return [["verdict", "--fixture", fid]
            for fid, fixture in sorted(FIXTURES.items()) if fixture.cell is not None]


@pytest.mark.parametrize(
    "argv", [*_cell_fixture_verdicts(), ["attach", "--fixture", "wedge3-e6"]],
    ids=lambda argv: "-".join(argv[::2]))
def test_a_built_model_is_not_checked_for_d_squared_again(argv, monkeypatch, capsys):
    """The build proves d^2 = 0, so no attachment on a built model, renamed
    or made by even mode, runs the d^2 check."""
    from sullivan import cli
    from sullivan.dgca import FreeDGCA

    calls = []
    original = FreeDGCA.verify_d_squared

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FreeDGCA, "verify_d_squared", counting)
    assert cli.main(argv) in (0, 10, 20), capsys.readouterr().err
    capsys.readouterr()
    assert calls == []


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
    from sullivan.fixtures import parse_job

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


def test_running_out_of_memory_exits_70_without_a_traceback(tmp_path):
    """The model of the wedge of four 2-spheres at truncation 11 needs more
    than the 80 MiB of address space the child may use: one line on stderr,
    exit 70, nothing on stdout.  Only the child's own limit is lowered."""
    resource = pytest.importorskip("resource")
    limit = 80 * 2**20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < limit:
        pytest.skip("the address-space limit is already below the test's")
    gens = [f"a{i}" for i in range(1, 5)]
    lines = [f"gen {g} 2" for g in gens] + [
        f"rel {g}*{h}" for i, g in enumerate(gens) for h in gens[i:]]
    job = tmp_path / "wedge4.job"
    job.write_text("algebra:\n" + "\n".join(lines) + "\ntruncation 11\n", encoding="utf-8")

    def lower_limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    result = subprocess.run(
        [sys.executable, "-m", "sullivan.cli", "model", "--input", str(job)],
        capture_output=True, text=True, preexec_fn=lower_limit, timeout=60,
    )
    assert (result.returncode, result.stderr, result.stdout) == (
        70, "error: out of memory\n", ""), result.stderr


def test_broken_pipe_leaves_a_stdout_without_a_descriptor_alone(monkeypatch):
    from sullivan import cli

    def closed_pipe(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_examples", closed_pipe)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["examples"]) == 70


def _in_process(argv):
    """(stdout, stderr, exit code) of one `cli.main` call in this process."""
    from sullivan import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def test_main_calls_in_one_process_share_no_state(tmp_path, monkeypatch):
    from sullivan import cli

    job = tmp_path / "sphere.job"
    job.write_text("algebra:\n  gen a 2\n  rel a^2\n", encoding="utf-8")
    calls = [
        ["verdict", "--fixture", "even-4k"],
        ["verdict", "--fixture", "cp2-attach", "--json"],
        ["model", "--input", str(job), "--truncation", "6"],
        ["attach", "--fixture", "cp2-attach"],
        ["examples"],
        ["model", "--bogus-flag"],
        ["--help"],
    ]
    first = [_in_process(argv) for argv in calls]
    assert [code for _, _, code in first] == [0, 0, 0, 0, 0, 64, 0]
    assert (GOLDEN / "verdict_even4k.txt").read_text(encoding="utf-8") == first[0][0]
    assert "unrecognized arguments: --bogus-flag" in first[5][1]
    assert first[6][0].startswith("usage: sullivan")
    for i in reversed(range(len(calls))):
        assert _in_process(calls[i]) == first[i], calls[i]

    monkeypatch.setattr(cli, "cmd_examples", lambda args: 42)
    assert _in_process(["examples"]) == ("", "", 42)


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
     ["verdict", "--fixture", "fatwedge-e6"], ["verdict", "--fixture", "even-4k"],
     ["model", "--input", "JOB"], ["attach", "--input", "JOB", "--json"],
     ["verdict", "--input", "JOB"]],
    ids=["model-fixture", "attach-fixture", "verdict-fixture", "even-fixture",
         "model-input", "attach-input", "verdict-input"],
)
def test_each_command_presents_the_algebra_once(argv, tmp_path, monkeypatch, capsys):
    """--fixture and --input take one route, which builds the job's algebra once."""
    from sullivan import cli
    from sullivan.presented import PresentedAlgebra

    job = tmp_path / "job.txt"
    job.write_text(CP2_JOB, encoding="utf-8")
    calls = []
    original = PresentedAlgebra.from_strings.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args[0])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(PresentedAlgebra, "from_strings", classmethod(counting))
    code = cli.main([str(job) if a == "JOB" else a for a in argv])
    assert code in (0, 10, 20), capsys.readouterr().err
    assert len(calls) == 1, calls


def test_run_fixtures_script_meets_every_expected_status():
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_fixtures.py"
    result = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    from sullivan.fixtures import fixture_ids

    assert [line.split()[0] for line in result.stdout.splitlines()] == fixture_ids()
    assert "EXPECTED" not in result.stdout


PROFILE_BUILD = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "profile_build.py"


def _profile_build(monkeypatch):
    """scripts/profile_build.py, loaded as a module."""
    import importlib.util

    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on it
    spec = importlib.util.spec_from_file_location("profile_build", PROFILE_BUILD)
    profile_build = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(profile_build)
    return profile_build


@pytest.mark.parametrize("argv", [["--wedge", "2", "5"], ["--fixture", "fatwedge-e6"]])
def test_profile_build_script_prints_every_layer(argv, monkeypatch):
    profile_build = _profile_build(monkeypatch)
    result = subprocess.run([sys.executable, str(PROFILE_BUILD), *argv],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == list(profile_build.LAYERS)
    # the verdict of fatwedge-e6 writes [u] through products; a model build does not
    calls = {row[0]: int(row[1]) for row in rows}
    assert (calls["dgca.decomposition"] > 0) == (argv[0] == "--fixture")
    # every row of every space goes through insert
    assert calls["RowSpace.insert"] > 0
    # --counts gives the kernel entries built and the Fractions among them
    result = subprocess.run([sys.executable, str(PROFILE_BUILD), *argv, "--counts"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    last = re.fullmatch(r"RowSpace\.kernel entries built (\d+), Fractions among them (\d+)",
                        lines[8])
    assert last, result.stdout
    built, fractions = map(int, last.groups())
    assert 0 <= fractions <= built and built > 0


def test_profile_build_counts_the_walk_by_rank(monkeypatch):
    """The constructor pivots at 1, then at 0; insert({2: 1}) walks both
    pivots and back-substitutes into both rows; insert({0: 1}) is dependent.
    The walk's visits are counted even where the build used the index."""
    profile_build = _profile_build(monkeypatch)
    from sullivan import linalg

    def job():
        space = linalg.RowSpace([{0: 1, 1: 1}, {1: 1, 2: 1}])
        assert space.insert({2: 1}) == 2 and space.insert({0: 1}) is None

    empty = [0] * len(profile_build.COUNTS)
    want = ([[1, 4, 1, 2, 2]] + [empty] * len(profile_build.RANK_EDGES), 3)
    for index_rank in (linalg.INDEX_RANK, 0):
        monkeypatch.setattr(linalg, "INDEX_RANK", index_rank)
        assert profile_build.insert_counts(job, 1) == want
    # the wrappers are gone again
    assert (linalg.RowSpace.__init__.__name__, linalg.RowSpace.insert.__name__) == (
        "__init__", "insert")
    # the kernel of {0: 2, 2: -3}, {1: 1, 2: 3} is {0: 3/2, 1: -3, 2: 1}: one Fraction of three
    kernel = [0, 0]
    profile_build.counting_kernel_entries(
        lambda: linalg.RowSpace([{0: 2, 1: 1}, {1: 1, 2: 3}]).kernel(3), kernel)()
    assert kernel == [3, 1] and linalg.RowSpace.kernel.__name__ == "kernel"
    result = subprocess.run([sys.executable, str(PROFILE_BUILD), "--wedge", "3", "8", "--counts"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    labels = ["<", "64-127", "128-255", "256-511", ">=", "all"]
    assert [line.split()[0] for line in lines[2:8]] == labels
    assert lines[8].startswith("RowSpace.kernel entries built ")
    # then one row per degree of the cocycle eliminations; in degree 8 the
    # model's is split into chunks of whole grading blocks, and A's is not
    assert lines[10].split() == ["degree", *profile_build.CHUNK_COUNTS]
    rows = {int(line.split()[0]): [int(c) for c in line.split()[1:]] for line in lines[11:]}
    assert sorted(rows) == list(range(9))
    for m, (runs, split, blocks, chunks, largest) in rows.items():
        assert split <= runs <= chunks and bool(blocks) == bool(split), m
    runs, split, blocks, chunks, largest = rows[8]
    assert (runs, split) == (2, 1) and blocks > chunks > 2 and largest >= linalg.INDEX_RANK


BENCH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


def test_bench_script_writes_one_record_per_rung(tmp_path, monkeypatch):
    """scripts/bench.py at reduced sizes: each rung is built in a child
    process, and its digest is that of the same job built here."""
    import importlib.util
    import platform
    import random

    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert list(bench.RUNGS) == ["wedge-4-10", "wedge-3-11", "wedge-4-11", "dense-4-8-8"]
    small = {"wedge-3-6": ("wedge", 3, 6), "dense-4-8-5": ("dense", 4, 8, 5, 3)}
    out = tmp_path / "bench.json"
    assert bench.main([str(out)], rungs=small) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["commit", "platform", "python", "rungs"]
    assert record["python"] == platform.python_version()
    assert list(record["rungs"]) == list(small)
    monkeypatch.syspath_prepend(str(bench.ROOT / "perfbench"))
    import workloads

    presentations = {
        "wedge-3-6": (workloads._wedge_presentation(3, None), 6),
        "dense-4-8-5": (workloads._dense_presentation(4, 8, random.Random(3)), 5),
    }
    for name, rung in record["rungs"].items():
        assert sorted(rung) == ["cpu_s", "digest", "generators", "maxrss_mb"]
        assert rung["cpu_s"] > 0 and rung["maxrss_mb"] > 0
        (gens, rels), n = presentations[name]
        job = workloads.Job(name, "model", gens, rels, n)
        output = workloads.run_job(job)
        assert rung["generators"] == len(output[0].generators)
        assert rung["digest"] == workloads.digest(job, *output)
    assert bench.main([]) == 64
