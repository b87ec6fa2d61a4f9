"""CLI: parsing, dispatch, round trips, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toric3d

from toric3d.cli import (
    MAX_WORD_LETTERS,
    configuration_to_document,
    main,
    parse_config,
    parse_region,
    run,
)
from toric3d.errors import ConfigSemanticError, ConfigSyntaxError

LINE_DOC = '{"strings":[{"neg_period":"Z+","core":"","pos_period":"Z+","base":[0,0,0]}],"charges":[]}'
TWO_CHARGES = '{"strings":[],"charges":[[0,0,0],[2,2,2]]}'
PARALLEL = (
    '{"strings":['
    '{"neg_period":"Z+","core":"","pos_period":"Z+","base":[0,0,0]},'
    '{"neg_period":"Z+","core":"","pos_period":"Z+","base":[2,0,0]}]}'
)


def test_parse_straight_line():
    cfg = parse_config(LINE_DOC)
    assert len(cfg.strings) == 1 and not cfg.charges


def test_parse_two_charges():
    cfg = parse_config(TWO_CHARGES)
    assert len(cfg.charges) == 2


def test_parse_invalid_atom():
    with pytest.raises(ConfigSyntaxError):
        parse_config('{"strings":[{"neg_period":"Z+","core":"Z+Q","pos_period":"Z+","base":[0,0,0]}]}')


@pytest.mark.parametrize(
    "doc",
    [
        '{"strings":[5]}',
        '{"charges":5}',
        '{"strings":[{"neg_period":"Z+","core":"","pos_period":"Z+","base":[true,0,0]}]}',
    ],
)
def test_malformed_document_is_syntax_error(monkeypatch, doc):
    report, code = _run_with_stdin(monkeypatch, ["classify"], doc)
    assert code == 2
    assert report["error"] == "ConfigSyntaxError"


@pytest.mark.parametrize(
    "text",
    [
        '[{"base":[0,0,0]}]',
        '{"base":[0,0,0],"normal":"z"}',
        '[{"base":[0,0],"normal":"z"}]',
        '[{"base":[0,0,0],"normal":"xy"}]',
        "not json",
    ],
)
def test_malformed_surface_file_is_syntax_error(monkeypatch, tmp_path, text):
    surf_file = tmp_path / "surface.json"
    surf_file.write_text(text)
    report, code = _run_with_stdin(monkeypatch, ["surgery", "--surface", str(surf_file)], PARALLEL)
    assert code == 2
    assert report["error"] == "ConfigSyntaxError"


@pytest.mark.parametrize("source", ["config", "surface", "stdin"])
def test_non_utf8_input_is_syntax_error(monkeypatch, tmp_path, source):
    import io

    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe[]")
    good = tmp_path / "good.json"
    good.write_text(PARALLEL)
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe[]" if source == "stdin" else b""), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    argv = {
        "config": ["classify", "--config", str(bad)],
        "surface": ["surgery", "--config", str(good), "--surface", str(bad)],
        "stdin": ["classify"],
    }[source]
    report, code = run(argv)
    assert code == 2
    assert report["error"] == "ConfigSyntaxError"
    assert "not UTF-8" in report["message"]


def test_non_utf8_stdin_in_utf8_mode_is_reported():
    # UTF-8 mode decodes stdin with surrogateescape, so reading it as text
    # would pass the bad bytes on to the JSON parser
    env = dict(os.environ, PYTHONPATH=str(Path(toric3d.__file__).parents[1]), PYTHONUTF8="1")
    proc = subprocess.run(
        [sys.executable, "-m", "toric3d.cli", "classify"],
        input=b"\xff\xfe[]",
        capture_output=True,
        env=env,
    )
    report = json.loads(proc.stdout)
    assert proc.returncode == 2
    assert report["error"] == "ConfigSyntaxError"
    assert report["message"].startswith("stdin is not UTF-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--checks", "energy", "--samples", "-3"],
        ["verify", "--checks", "commutation", "--n", "0"],
        ["verify", "--checks", "commutation", "--n", "50"],
    ],
)
def test_verify_rejects_out_of_range_flags(argv):
    report, code = run(argv)
    assert code == 2
    if argv[-1] == "50":
        # the commutation block is capped, and the report names the cap
        assert report["error"] == "TooLarge"
        assert "<= 3" in report["message"]
    else:
        assert report["error"] == "ConfigSyntaxError"


def test_verify_help_names_the_block_limit(capsys):
    with pytest.raises(SystemExit):
        run(["verify", "--help"])
    assert "1 to 3" in capsys.readouterr().out


@pytest.mark.parametrize("checks", ["energy", "all"])
def test_verify_caps_samples_before_sampling(monkeypatch, checks):
    # a sample count above the cap is refused at once: no check runs
    import toric3d.cli as cli

    def no_energy(samples, seed):
        raise AssertionError(f"sampled {samples} configurations")

    monkeypatch.setattr(cli, "_check_energy", no_energy)
    report, code = run(["verify", "--checks", checks, "--samples", "100000000000000000000000"])
    assert code == 2
    assert report["error"] == "TooLarge"
    assert report["message"] == "--samples must be <= 10000, got 100000000000000000000000"


def test_verify_accepts_samples_at_the_cap(monkeypatch):
    import toric3d.cli as cli

    monkeypatch.setattr(
        cli, "_check_energy", lambda samples, seed: {"name": "energy", "samples": samples, "pass": True}
    )
    report, code = run(["verify", "--checks", "energy", "--samples", "10000"])
    assert code == 0
    assert report["checks"] == [{"name": "energy", "samples": 10000, "pass": True}]


def test_verify_help_names_the_sample_limit(capsys):
    with pytest.raises(SystemExit):
        run(["verify", "--help"])
    assert "0 to 10000" in capsys.readouterr().out


def test_deeply_nested_document_is_syntax_error(monkeypatch):
    report, code = _run_with_stdin(monkeypatch, ["classify"], "[" * 100_000 + "]" * 100_000)
    assert code == 2
    assert report["error"] == "ConfigSyntaxError"
    assert report["message"] == "document nested too deeply"


@pytest.mark.parametrize(
    "doc",
    ['{"charges": [[1' + "0" * 5000 + ', 0, 0]]}', '{"strings": [], "x": -' + "9" * 4301 + "}"],
    ids=["coordinate", "unknown_key"],
)
def test_integer_literal_past_the_digit_limit_is_syntax_error(monkeypatch, doc):
    # json.loads raises a plain ValueError for an integer beyond Python's
    # digit limit for str-to-int conversion
    report, code = _run_with_stdin(monkeypatch, ["validate"], doc)
    assert code == 2
    assert report["error"] == "ConfigSyntaxError"
    assert "digits" in report["message"]


def test_energy_on_a_huge_region_is_too_large():
    # the Z+ tail would walk a billion steps to leave the region: refused at
    # once, where an unbounded walk takes minutes
    env = dict(os.environ, PYTHONPATH=str(Path(toric3d.__file__).parents[1]))
    argv = ["energy", "--region=0,0,0:1000000000,1000000000,1000000000"]
    proc = subprocess.run(
        [sys.executable, "-m", "toric3d.cli", *argv],
        input=LINE_DOC, capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["error"] == "TooLarge"
    assert report["message"].endswith("(at most 1000000)")


def _long_word_doc(where, letters):
    string = {"neg_period": "Z+", "core": "", "pos_period": "Z+", "base": [0, 0, 0]}
    if where == "loops[0].steps":
        # up, across, down and back: the shortest closed walk of at least
        # ``letters`` letters (a closed walk has even length)
        half = "Z+" * ((letters - 1) // 2)
        loop = {"start": [0, 0, 0], "steps": half + "X+" + half.replace("+", "-") + "X-"}
        return json.dumps({"strings": [], "loops": [loop]})
    string[where.split(".")[1]] = "Z+" * letters
    return json.dumps({"strings": [string]})


@pytest.mark.parametrize(
    "where", ["strings[0].neg_period", "strings[0].core", "strings[0].pos_period", "loops[0].steps"]
)
def test_a_word_past_the_letter_cap_is_too_large(monkeypatch, where):
    report, code = _run_with_stdin(
        monkeypatch, ["validate"], _long_word_doc(where, MAX_WORD_LETTERS + 1)
    )
    assert code == 2
    assert report["error"] == "TooLarge"
    assert report["message"] == f"{where}: a step word has at most {MAX_WORD_LETTERS} letters"


@pytest.mark.parametrize("where", ["strings[0].core", "loops[0].steps"])
def test_a_word_at_the_letter_cap_is_answered(monkeypatch, where):
    report, code = _run_with_stdin(monkeypatch, ["classify"], _long_word_doc(where, MAX_WORD_LETTERS))
    assert code == 0 and "error" not in report


def test_config_help_names_the_letter_cap(capsys):
    with pytest.raises(SystemExit):
        run(["classify", "--help"])
    assert str(MAX_WORD_LETTERS) in capsys.readouterr().out


def test_straighten_skips_a_string_whose_tail_walk_is_too_large(monkeypatch):
    report, code = _run_with_stdin(
        monkeypatch, ["straighten", "--region=0,0,0:1,1,1000000000"], LINE_DOC
    )
    assert code == 0
    assert report["results"] == [{"string": 0, "skipped": "TooLarge"}]


@pytest.mark.parametrize("command", ["energy", "straighten"])
def test_region_help_names_the_tail_walk_cap(capsys, command):
    with pytest.raises(SystemExit):
        run([command, "--help"])
    assert "more than 1000000 steps" in " ".join(capsys.readouterr().out.split())


def test_parse_malformed_json_has_position():
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_config('{"strings": [')
    assert exc.value.line is not None


def test_semantic_error_reports_string_index():
    with pytest.raises(ConfigSemanticError) as exc:
        parse_config('{"strings":[{"neg_period":"Z+","core":"Z-","pos_period":"Z+","base":[0,0,0]}]}')
    assert exc.value.index == 0


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            '{"loops":[{"start":[0,0,0],"steps":"X+X-"}]}',
            "loops[0]: edge ((0, 0, 0), 0) walked twice",
        ),
        (
            '{"strings":[{"neg_period":"Z+","core":"","pos_period":"","base":[0,0,0]}]}',
            "strings[0]: period words must be nonempty",
        ),
    ],
    ids=["loop_walks_an_edge_twice", "empty_period"],
)
def test_semantic_error_is_an_exit_2_report(monkeypatch, doc, message):
    report, code = _run_with_stdin(monkeypatch, ["validate"], doc)
    assert code == 2
    assert (report["error"], report["message"]) == ("ConfigSemanticError", message)


def test_round_trip_identity():
    doc = configuration_to_document(parse_config(LINE_DOC))
    assert configuration_to_document(parse_config(json.dumps(doc))) == doc


def test_region_parse():
    r = parse_region("0,0,0:4,4,4")
    assert r.lo == (0, 0, 0) and r.hi == (4, 4, 4)
    with pytest.raises(ConfigSyntaxError):
        parse_region("0,0:4,4")


def _run_with_stdin(monkeypatch, argv, stdin_text):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return run(argv)


def test_classify_parallel_lines(monkeypatch):
    report, code = _run_with_stdin(monkeypatch, ["classify"], PARALLEL)
    assert code == 0
    assert report["verdict"]["kind"] == "NotGroundSector"
    assert report["verdict"]["witness"]["pair"] == [0, 1]


def test_classify_expect_ground_exit_code(monkeypatch):
    report, code = _run_with_stdin(monkeypatch, ["classify", "--expect-ground"], PARALLEL)
    assert code == 1
    report, code = _run_with_stdin(monkeypatch, ["classify", "--expect-ground"], LINE_DOC)
    assert code == 0
    assert report["verdict"]["kind"] == "GroundState"


def test_energy_command(monkeypatch):
    report, code = _run_with_stdin(
        monkeypatch, ["energy", "--region", "0,0,0:4,4,4"], TWO_CHARGES
    )
    assert code == 0
    assert report["charge_energy"] == 4 and report["flux_energy"] == 0


def test_straighten_command(monkeypatch):
    doc = '{"strings":[{"neg_period":"Z+","core":"X+","pos_period":"Z-","base":[0,0,0]}]}'
    # negative corners need the --region=... spelling to survive argparse
    report, code = _run_with_stdin(
        monkeypatch, ["straighten", "--region=-1,-1,-4:2,1,1"], doc
    )
    assert code == 0
    assert report["results"][0]["steps"] >= 1


# a core that drifts 98 steps against tails gaining one step per period
DRIFTING_CORE = json.dumps(
    {
        "strings": [
            {"neg_period": "Z+X+", "core": "Y+" + "X-" * 98 + "Y+", "pos_period": "Z+X+", "base": [0, 0, 0]}
        ]
    }
)


def test_core_drifting_against_its_tails(monkeypatch):
    """The tails outrun the core only past pad 8; every command on the
    document ends in a JSON report with exit 0, straightening in the script
    region that classify reports."""
    report, code = _run_with_stdin(monkeypatch, ["classify"], DRIFTING_CORE)
    assert code == 0
    assert report["verdict"]["kind"] == "GroundSectorNotGroundState"
    (step,) = report["verdict"]["script"]
    region = "--region=" + ":".join(",".join(map(str, corner)) for corner in step["region"])
    for argv in (["validate"], ["energy", region], ["straighten", region]):
        report, code = _run_with_stdin(monkeypatch, argv, DRIFTING_CORE)
        assert code == 0 and report["command"] == argv[0]
    assert report["results"][0]["steps"] >= 1


def test_surgery_command(monkeypatch, tmp_path):
    faces = [{"base": [x, 0, z], "normal": "y"} for x in range(2) for z in range(3)]
    surf_file = tmp_path / "surface.json"
    surf_file.write_text(json.dumps(faces))
    report, code = _run_with_stdin(
        monkeypatch, ["surgery", "--surface", str(surf_file)], PARALLEL
    )
    assert code == 0
    strings = report["config"]["strings"]
    assert len(strings) == 2
    # the double-U outcome: each output string has both tails along the same
    # vertical heading
    headings = set()
    for s in strings:
        assert s["neg_period"] in ("Z+", "Z-")
        assert s["pos_period"] in ("Z+", "Z-")
        headings.add((s["neg_period"], s["pos_period"]))
    assert len(headings) == 2
    # transform outputs round-trip through the document format unchanged
    text = json.dumps(report["config"])
    again = configuration_to_document(parse_config(text))
    assert again == report["config"]


def test_strict_gss_flag_labels_without_default_recheck(monkeypatch):
    # pairwise-colliding strings with empty total intersection: the strict
    # reading accepts and must label under the same reading
    doc = (
        '{"strings":['
        '{"neg_period":"X+","core":"","pos_period":"Y+","base":[0,0,0]},'
        '{"neg_period":"X+","core":"","pos_period":"Y+","base":[0,9,9]},'
        '{"neg_period":"Y+","core":"","pos_period":"Z+","base":[9,0,9]}]}'
    )
    report, code = _run_with_stdin(monkeypatch, ["classify"], doc)
    assert report["verdict"]["kind"] == "NotGroundSector"
    report, code = _run_with_stdin(monkeypatch, ["classify", "--strict-gss"], doc)
    assert code == 0
    assert report["verdict"]["kind"] == "GroundState"
    assert [t["kind"] for t in report["label"]["tags"]] == ["P", "P", "P"]


def test_enumerate_command():
    report, code = run(["enumerate", "--strings", "2"])
    assert code == 0
    assert report["raw_count"] == report["raw_count_alt"] == 3360
    assert set(report["case_inventory"]) == {
        "I",
        "II.A",
        "II.B",
        "II.C",
        "III.A",
        "III.B",
        "IV.A",
    }


def test_verify_gauge_command():
    report, code = run(["verify", "--checks", "gauge"])
    assert code == 0
    assert report["pass"] is True


def test_reports_deterministic(monkeypatch):
    r1, _ = _run_with_stdin(monkeypatch, ["classify"], PARALLEL)
    r2, _ = _run_with_stdin(monkeypatch, ["classify"], PARALLEL)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_error_exit_code(monkeypatch, capsys):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(TWO_CHARGES))
    code = main(["energy", "--region", "nonsense"])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert payload["error"] == "ConfigSyntaxError"


def test_unreadable_config_is_io_error_report(capsys, tmp_path):
    code = main(["classify", "--config", str(tmp_path / "missing.json")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert (payload["error"], payload["command"]) == ("IOError", "classify")


def test_usage_errors_are_json_reports(capsys):
    cases = [
        (["enumerate", "--strings", "9"], "enumerate"),
        (["frobnicate"], None),
        (["energy"], "energy"),
    ]
    for argv, command in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert (report["error"], report["command"], report["schema_version"]) == ("UsageError", command, 1)
        assert report["message"] and not captured.err
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0


def test_main_prints_json(monkeypatch, capsys):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(LINE_DOC))
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["schema_version"] == 1


def test_broken_pipe_keeps_exit_code(monkeypatch):
    import io

    read_end, write_end = os.pipe()
    os.close(read_end)
    closed_pipe = open(write_end, "w")
    monkeypatch.setattr(sys, "stdin", io.StringIO(PARALLEL))
    monkeypatch.setattr(sys, "stdout", closed_pipe)
    try:
        code = main(["classify", "--expect-ground"])
    finally:
        closed_pipe.close()
    assert code == 1


def test_cli_import_leaves_numpy_out():
    # only verify's checks need the F2 verifier, nothing needs numpy, and no
    # record is a dataclass (``dataclasses`` pulls in ``inspect``)
    env = dict(os.environ, PYTHONPATH=str(Path(toric3d.__file__).parents[1]))
    left_out = "{'numpy', 'dataclasses', 'inspect', 'toric3d.stabilizer'}"
    probe = f"import sys, toric3d.cli, toric3d; print(sorted({left_out} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    probe = (
        "import sys, toric3d.cli; code = toric3d.cli.main(['verify', '--checks', 'energy', '--samples', '5']);"
        " sys.exit(code or 'numpy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True).returncode == 0


# Reports recorded with ``python -m toric3d.cli <argv> > tests/golden/<name>.json``
# before the F2 kernels moved to int bitsets (``verify_energy``: before the
# syndrome became sparse; ``enumerate_*``: before the n-string enumeration
# became one fold); they must stay byte-identical.
GOLDEN = Path(__file__).parent / "golden"

# The stdout and exit code of validate/classify/energy/straighten on 49 seeded
# documents (1 to 4 strings, zigzag and self-avoiding cores up to 320 steps,
# charges, loops, a U, parallel lines, rejected documents, six of them with a
# shape error after a semantic one, one with a bad core atom and one with a
# two-number base), recorded with
# ``tests/golden/record_corpus.py``; they must stay byte-identical too.
CORPUS = {
    f"{case['name']}.{k}": (case["config"], recorded)
    for case in json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))["cases"]
    for k, recorded in enumerate(case["runs"])
}


@pytest.mark.parametrize(
    "name,argv",
    [
        ("verify_all", ["verify", "--checks", "all"]),
        ("verify_nets", ["verify", "--checks", "nets"]),
        ("verify_truncation", ["verify", "--checks", "truncation"]),
        (
            "surgery",
            [
                "surgery",
                "--config",
                str(GOLDEN / "surgery_config.json"),
                "--surface",
                str(GOLDEN / "surgery_surface.json"),
            ],
        ),
        ("verify_energy", ["verify", "--checks", "energy", "--samples", "200", "--seed", "7"]),
        ("enumerate_2", ["enumerate", "--strings", "2"]),
        ("enumerate_3", ["enumerate", "--strings", "3"]),
        *(pytest.param(name, recorded["argv"], id=name) for name, (_, recorded) in CORPUS.items()),
    ],
)
def test_golden_report(monkeypatch, capsys, name, argv):
    import io

    if name in CORPUS:
        config, recorded = CORPUS[name]
        expected = recorded["stdout"], recorded["code"]
    else:
        config, expected = "", ((GOLDEN / f"{name}.json").read_text(encoding="utf-8"), 0)
    monkeypatch.setattr(sys, "stdin", io.StringIO(config))
    code = main(argv)
    assert (capsys.readouterr().out, code) == expected


def test_corpus_recorder_rebuilds_every_argv():
    # the recorder boxes every stored document, rejected ones included (a
    # core with a bad atom, a base of two numbers), into the stored argv
    import importlib.util

    spec = importlib.util.spec_from_file_location("record_corpus", GOLDEN / "record_corpus.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    cases = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))["cases"]
    assert {"reject_core_atom", "reject_short_base"} <= {case["name"] for case in cases}
    for case in cases:
        argv = [run["argv"] for run in case["runs"]]
        assert recorder.commands(json.loads(case["config"])) == argv, case["name"]
