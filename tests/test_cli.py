import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import finitetop
from finitetop.cli import (
    SpaceDocument,
    parse,
    parse_glue,
    run,
    serialize,
    space_to_document,
    to_dot,
)
from finitetop.core import from_neighborhoods
from finitetop.errors import InternalError, ParseError, ValidationError
from finitetop.generators import chain, discrete

SIERP_TEXT = "space S\npoints a b\nnbhd a: a\nnbhd b: a b\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParse:
    def test_sierpinski_document(self):
        doc = parse(SIERP_TEXT)
        assert doc == SpaceDocument("S", ("a", "b"), (("a",), ("a", "b")))
        assert doc.to_space().masks == (1, 3)

    def test_serialize_roundtrip(self):
        doc = parse(SIERP_TEXT)
        assert serialize(doc) == SIERP_TEXT
        assert parse(serialize(doc)) == doc

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nspace S\npoints a\n# another\nnbhd a: a\n"
        assert parse(text).name == "S"

    def test_undeclared_member(self):
        with pytest.raises(ParseError) as exc:
            parse("space S\npoints a b\nnbhd a: c\nnbhd b: a b\n")
        assert exc.value.line == 3
        assert "'c'" in exc.value.message

    def test_duplicate_label(self):
        with pytest.raises(ParseError) as exc:
            parse("space S\npoints a a\n")
        assert (exc.value.line, exc.value.column) == (2, 10)

    def test_missing_nbhd_record(self):
        with pytest.raises(ParseError) as exc:
            parse("space S\npoints a b\nnbhd a: a\n")
        assert "'b'" in exc.value.message

    def test_unknown_record(self):
        with pytest.raises(ParseError):
            parse("space S\npoints a\nnbhd a: a\nfrobnicate\n")

    def test_empty_space_document(self):
        doc = parse("space empty\npoints\n")
        assert doc.to_space().n == 0
        assert serialize(doc) == "space empty\npoints\n"

    def test_invalid_space_flagged_with_labels(self):
        text = "space bad\npoints a b\nnbhd a: a b\nnbhd b: a\n"
        with pytest.raises(ValidationError) as exc:
            parse(text).to_space()
        assert "'b'" in str(exc.value)

    def test_label_with_colon_rejected(self):
        with pytest.raises(ParseError):
            parse("space S\npoints a:b\nnbhd a:b: a:b\n")


class TestDot:
    def test_discrete_has_no_edges(self):
        dot = to_dot(discrete(2))
        assert "->" not in dot
        assert dot.count("[label=") == 2

    def test_chain_path(self):
        dot = to_dot(chain(3))
        assert "p0 -> p1;" in dot and "p1 -> p2;" in dot
        assert "p0 -> p2;" not in dot

    def test_sierpinski_edge_and_double_circle(self):
        s = from_neighborhoods(2, [{0}, {0, 1}], labels=["a", "b"])
        dot = to_dot(s)
        assert "p0 -> p1;" in dot
        assert 'p0 [label="a (1)", peripheries=2];' in dot

    def test_equal_neighborhood_pair_keeps_cycle(self):
        s = from_neighborhoods(2, [{0, 1}, {0, 1}])
        dot = to_dot(s)
        assert "p0 -> p1;" in dot and "p1 -> p0;" in dot

    def test_byte_identical_across_runs(self):
        s = chain(4)
        assert to_dot(s) == to_dot(s)


class TestGlueFile:
    def test_parse_pairs_and_sends(self):
        src = parse(SIERP_TEXT)
        data = parse_glue(
            "pair a a\nsend a a\npair b b\nsend a a\nsend b b\n", src, src
        )
        assert data.neighborhood_bijection == ((0, 0), (1, 1))
        assert data.local_maps == (((0, 0),), ((0, 0), (1, 1)))

    def test_send_before_pair(self):
        src = parse(SIERP_TEXT)
        with pytest.raises(ParseError):
            parse_glue("send a a\n", src, src)

    def test_unknown_label(self):
        src = parse(SIERP_TEXT)
        with pytest.raises(ParseError):
            parse_glue("pair a z\n", src, src)

    def test_repeated_send_names_the_source_token(self):
        src = parse(SIERP_TEXT)
        with pytest.raises(ParseError) as exc:
            parse_glue("pair b b\nsend a a\n  send   a b\nsend b b\n", src, src)
        assert (exc.value.line, exc.value.column) == (3, 10)
        assert "'a'" in str(exc.value)


class TestRun:
    def test_validate_ok(self, tmp_path, capsys):
        f = write(tmp_path, "s.space", SIERP_TEXT)
        assert run(["validate", f]) == 0
        assert "ok: S" in capsys.readouterr().out

    def test_validate_semantic_failure(self, tmp_path, capsys):
        f = write(tmp_path, "bad.space", "space bad\npoints a b\nnbhd a: a b\nnbhd b: a\n")
        assert run(["validate", f]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_validate_names_minimality_witnesses(self, tmp_path, capsys):
        text = "space S\npoints a b c\nnbhd a: a b\nnbhd b: b c\nnbhd c: c\n"
        assert run(["validate", write(tmp_path, "bad.space", text)]) == 1
        out, err = capsys.readouterr()
        assert "point 'b' lies in the neighborhood of 'a'," in out
        assert not re.search(r"\b\d+\b", out + err)

    def test_validate_syntax_failure(self, tmp_path, capsys):
        f = write(tmp_path, "syn.space", "points a\n")
        assert run(["validate", f]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_from_file(self, tmp_path, capsys):
        f = write(tmp_path, "s.space", SIERP_TEXT)
        assert run(["report", f]) == 0
        out = capsys.readouterr().out
        assert "min:" in out and "index:" in out
        assert "t0:" in out

    def test_report_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(SIERP_TEXT))
        assert run(["report"]) == 0
        assert "points:" in capsys.readouterr().out

    def test_gen_report_pipeline_values(self, capsys, monkeypatch):
        assert run(["gen", "chain", "3"]) == 0
        doc = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert run(["report", "-"]) == 0
        out = capsys.readouterr().out
        lines = dict(
            line.split(":", 1) for line in out.strip().splitlines()
        )
        assert lines["min"].strip() == "1"
        assert lines["index"].strip() == "1"

    def test_construction_outputs_reparse(self, tmp_path, capsys):
        a = write(tmp_path, "a.space", SIERP_TEXT)
        b = write(tmp_path, "b.space", serialize(space_to_document(chain(2), "c2")))
        for argv in (
            ["product", a, b],
            ["sum", a, b],
            ["subspace", a, "--points", "b"],
            ["quotient", a, "--classes", "a,b"],
            ["t0", a],
        ):
            assert run(argv) == 0, argv
            out = capsys.readouterr().out
            reparsed = parse(out)
            reparsed.to_space()
            assert serialize(reparsed) == out

    def test_colliding_labels_fall_back(self, tmp_path, capsys):
        xy = write(tmp_path, "xy.space", "space X\npoints x x.y\nnbhd x: x\nnbhd x.y: x x.y\n")
        yz = write(tmp_path, "yz.space", "space Y\npoints y.z z\nnbhd y.z: y.z\nnbhd z: z\n")
        q = write(
            tmp_path, "q.space", "space Q\npoints a b a+b\nnbhd a: a\nnbhd b: b\nnbhd a+b: a b a+b\n"
        )
        for argv, points in (
            (["product", xy, yz], ("p0", "p1", "p2", "p3")),
            (["quotient", q, "--classes", "a,b"], ("p0", "p1")),
        ):
            assert run(argv) == 0, argv
            out = capsys.readouterr().out
            doc = parse(out)
            assert doc.points == points
            doc.to_space()
            assert serialize(doc) == out

    def test_continuous_yes_no(self, tmp_path, capsys):
        c2 = write(tmp_path, "c2.space", serialize(space_to_document(chain(2), "c2")))
        assert run(["continuous", c2, c2, "--map", "p0:p0,p1:p1"]) == 0
        assert "continuous" in capsys.readouterr().out
        assert run(["continuous", c2, c2, "--map", "p0:p1,p1:p0"]) == 1
        assert "not continuous" in capsys.readouterr().out

    def test_continuous_incomplete_map(self, tmp_path, capsys):
        c2 = write(tmp_path, "c2.space", serialize(space_to_document(chain(2), "c2")))
        assert run(["continuous", c2, c2, "--map", "p0:p0"]) == 2

    def test_homeo_found_and_not(self, tmp_path, capsys):
        f = write(tmp_path, "s.space", SIERP_TEXT)
        flipped = write(
            tmp_path, "f.space", "space F\npoints x y\nnbhd x: x y\nnbhd y: y\n"
        )
        assert run(["homeo", f, flipped]) == 0
        out = capsys.readouterr().out
        assert "a -> y" in out and "b -> x" in out
        d2 = write(tmp_path, "d.space", serialize(space_to_document(discrete(2), "d2")))
        assert run(["homeo", f, d2]) == 1
        assert "not homeomorphic" in capsys.readouterr().out

    def test_glue_accept_and_reject(self, tmp_path, capsys):
        f = write(tmp_path, "s.space", SIERP_TEXT)
        good = write(tmp_path, "good.glue", "pair a a\nsend a a\npair b b\nsend a a\nsend b b\n")
        assert run(["glue", f, f, "--data", good]) == 0
        assert "a -> a" in capsys.readouterr().out
        bad = write(tmp_path, "bad.glue", "pair a a\nsend a a\npair b b\nsend a b\nsend b a\n")
        assert run(["glue", f, f, "--data", bad]) == 1
        assert "NotWellDefined" in capsys.readouterr().out

    def test_glue_rejection_names_the_point_by_label(self, tmp_path, capsys):
        f = write(tmp_path, "v.space", "space V\npoints a b c\nnbhd a: a\nnbhd b: a b\nnbhd c: a c\n")
        data = write(
            tmp_path, "clash.glue",
            "pair a a\nsend a a\npair b b\nsend a a\nsend b b\npair c c\nsend a c\nsend c a\n",
        )
        assert run(["glue", f, f, "--data", data]) == 1
        assert capsys.readouterr().out == (
            "rejected: NotWellDefined: local maps disagree at point 'a'\n"
        )

    def test_glue_rejects_a_source_point_sent_twice(self, tmp_path, capsys):
        f = write(tmp_path, "v.space", "space V\npoints a b c\nnbhd a: a\nnbhd b: a b\nnbhd c: a c\n")
        data = write(
            tmp_path, "twice.glue",
            "pair a a\nsend a a\npair b b\nsend a a\nsend b c\nsend b b\npair c c\nsend a a\nsend c c\n",
        )
        assert run(["glue", f, f, "--data", data]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 6, column 6: source point 'b' is sent twice for this pair\n"

    def test_gen_kinds(self, capsys):
        for argv in (
            ["gen", "chain", "4"],
            ["gen", "blocks", "2", "3"],
            ["gen", "divisor", "6", "--with-top"],
            ["gen", "discrete", "3"],
            ["gen", "indiscrete", "2"],
            ["gen", "random", "6", "--seed", "9", "--density", "0.3"],
        ):
            assert run(argv) == 0, argv
            parse(capsys.readouterr().out).to_space()

    def test_gen_wrong_arity(self, capsys):
        assert run(["gen", "chain"]) == 2

    def test_census_output(self, capsys):
        assert run(["census", "3"]) == 0
        out = capsys.readouterr().out
        assert "labeled: 29" in out
        assert "classes: 9" in out

    def test_census_5_output_unchanged(self, capsys):
        assert run(["census", "5"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "a1ee4ae50012fa11a9dcdac69f83350e5461770cd3f056a3c4a43e0e95d29781"
        )

    def test_census_too_large(self, capsys):
        assert run(["census", "7"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "chain", "0"],
            ["gen", "blocks", "0", "2"],
            ["gen", "random", "-1"],
            ["gen", "random", "4", "--density", "2"],
            ["gen", "divisor", "0"],
            ["gen", "discrete", "-1"],
            ["gen", "indiscrete", "-1"],
            ["census", "0"],
        ],
    )
    def test_out_of_range_argument_is_input_error(self, argv, capsys):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_undecodable_file_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "bad.space"
        f.write_bytes(b"space S\npoints \xff\n")
        assert run(["validate", str(f)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_stray_value_error_is_internal(self, tmp_path, capsys, monkeypatch):
        def broken(space):
            raise ValueError("a defect, not bad input")

        monkeypatch.setattr("finitetop.cli.report", broken)
        assert run(["report", write(tmp_path, "s.space", SIERP_TEXT)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "a defect, not bad input" in err

    def test_verbose_input_error_prints_a_traceback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FINITETOP_VERBOSE", "1")
        assert run(["validate", write(tmp_path, "syn.space", "points a\n")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "error:" in err
        assert err.index("Traceback") < err.index("\nerror:")

    def test_quiet_input_error_prints_no_traceback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("FINITETOP_VERBOSE", raising=False)
        assert run(["validate", write(tmp_path, "syn.space", "points a\n")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_dot_command(self, tmp_path, capsys):
        f = write(tmp_path, "s.space", SIERP_TEXT)
        assert run(["dot", f]) == 0
        assert capsys.readouterr().out.startswith("digraph space {")

    def test_unknown_subcommand(self, capsys):
        assert run(["transmogrify"]) == 2

    def test_unknown_flag(self, tmp_path, capsys):
        f = write(tmp_path, "s.space", SIERP_TEXT)
        assert run(["report", f, "--frobnicate"]) == 2

    def test_missing_file(self, capsys):
        assert run(["report", "/nonexistent/nowhere.space"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_product_overflow_is_input_error(self, tmp_path, capsys):
        big = serialize(space_to_document(discrete(70), "big"))
        f = write(tmp_path, "big.space", big)
        assert run(["product", f, f]) == 2

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(space):
            raise InternalError("index exceeds min")

        monkeypatch.setattr("finitetop.cli.report", broken)
        f = write(tmp_path, "s.space", SIERP_TEXT)
        assert run(["report", f]) == 3
        assert "internal error:" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(finitetop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "finitetop", "census", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0
    assert "classes: 9" in done.stdout


def test_python_dash_m_cli_module_runs():
    src = str(Path(finitetop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "finitetop.cli", "census", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    # stderr is not checked: runpy warns that finitetop.cli is already imported
    assert done.returncode == 0
    assert done.stdout.startswith("n: 3\n")


def test_closed_pipe_exits_quietly():
    src = str(Path(finitetop.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # Unbuffered text output drops the rest of a short write instead of
    # failing, so keep stdout buffered: the ~850 kB document then outgrows
    # the pipe and the writer is still blocked when the reader leaves.
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "finitetop", "gen", "chain", "600"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"space chain-600\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
