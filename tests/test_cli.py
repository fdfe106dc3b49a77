import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import re
import stat
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from povmquad.cli import (
    EXIT_INSUFFICIENT,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    _shared_parser,
    default_grid_dir,
    main,
)
from povmquad import cli, harmonics, orthopoly, povm, quadrature, simulate
from povmquad.errors import ParseError
from povmquad.povm import (
    FinitePovm,
    exact_score,
    povm_from_json,
    povm_from_quadrature,
    povm_to_csv,
    povm_to_json,
)
from povmquad.quadrature import FOUR_PI, SphericalQuadrature, _fmt, product_rule
from povmquad.sphere import angles_to_xyz

from _oracles import rotate_angles, rotation_matrix

GOLDEN = Path(__file__).parent / "data" / "golden_povm_n1.json"

OCTAHEDRON = """\
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
"""


@pytest.fixture
def octa_file(tmp_path):
    path = tmp_path / "octahedron.txt"
    path.write_text(OCTAHEDRON)
    return path


@pytest.fixture
def povm1_file(tmp_path):
    path = tmp_path / "povm1.json"
    assert main(["construct", "1", "--out", str(path)]) == EXIT_OK
    return path


def test_construct_writes_povm_and_reports(tmp_path, capsys):
    out = tmp_path / "povm3.json"
    code = main(["construct", "3", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "n: 8" in captured
    assert "score_exact: 0.8" in captured
    obj = json.loads(out.read_text())
    assert obj["N"] == 3 and obj["n"] == 8 and len(obj["elements"]) == 8
    assert obj["score_exact"] == pytest.approx(0.8, abs=1e-15)


def test_construct_csv_format(tmp_path):
    out = tmp_path / "povm2.csv"
    assert main(["construct", "2", "--out", str(out), "--format", "csv"]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# N=2"
    assert lines[3] == "c,theta,phi"
    assert len(lines) == 4 + 6


@pytest.mark.parametrize("extra", [
    ["--format", "json"],
    ["--format", "csv"],
    ["--out", "s.csv"],
    ["--out", "s.csv", "--format", "json"],
])
def test_score_flags_without_grid_are_usage_errors(povm1_file, tmp_path, capsys, extra, monkeypatch):
    # --out and --format only shape the --grid table; without it they were
    # silently ignored (exit 0, the plain report, no file written)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for path in (povm1_file, tmp_path / "missing.json"):  # refused before any file is read
        assert main(["score", str(path)] + extra) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_construct_format_without_out_is_usage_error(capsys, fmt):
    assert main(["construct", "3", "--format", fmt]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_explicit_default_formats_keep_working(povm1_file, octa_file, tmp_path):
    out = tmp_path / "p.json"
    assert main(["construct", "1", "--out", str(out), "--format", "json"]) == EXIT_OK
    assert out.read_text() == povm1_file.read_text()
    grid = tmp_path / "g.csv"
    assert main(["score", str(povm1_file), "--grid", str(octa_file), "--out", str(grid)]) == EXIT_OK
    assert grid.read_text().startswith("theta,phi,score\n")


def test_construct_zero_is_usage_error(capsys):
    assert main(["construct", "0"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_construct_io_failure(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "povm.json"
    assert main(["construct", "1", "--out", str(target)]) == EXIT_IO


def test_construct_golden_json_schema(tmp_path):
    out = tmp_path / "povm1.json"
    assert main(["construct", "1", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == GOLDEN.read_text()


def test_certify_octahedron_strength(octa_file, capsys):
    assert main(["certify", str(octa_file), "--lmax", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "strength: 3" in out
    assert main(["certify", str(octa_file), "--lmax", "5", "--expect", "3"]) == EXIT_OK
    assert main(["certify", str(octa_file), "--lmax", "5", "--expect", "5"]) == EXIT_VERIFY


def test_certify_json_format(octa_file, capsys):
    assert main(["certify", str(octa_file), "--lmax", "4", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["strength"] == 3
    assert set(obj["residual_per_l"]) == {"1", "2", "3", "4"}


def test_certify_icosahedron_from_bundled_grids(capsys):
    path = default_grid_dir() / "design_0012.txt"
    assert main(["certify", str(path), "--lmax", "6", "--expect", "5"]) == EXIT_OK
    assert "strength: 5" in capsys.readouterr().out


def test_certify_zero_vector_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 1\n0 0 0\n")
    assert main(["certify", str(path)]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_certify_malformed_line_reports_number(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 1\nnot numbers here\n")
    assert main(["certify", str(path)]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_certify_missing_file_is_io_error(tmp_path):
    assert main(["certify", str(tmp_path / "nope.txt")]) == EXIT_IO


def test_certify_signed_grid_requires_flag(capsys):
    path = default_grid_dir() / "lebedev_0074.txt"
    assert main(["certify", str(path), "--lmax", "14"]) == EXIT_VERIFY
    assert "non-positive" in capsys.readouterr().err
    assert main(
        ["certify", str(path), "--lmax", "14", "--signed", "--expect", "13"]
    ) == EXIT_OK


def test_strength_prints_single_number(octa_file, capsys):
    assert main(["strength", str(octa_file), "--cap", "6"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "3"


def test_simulate_reference_run(povm1_file, capsys):
    code = main(["simulate", str(povm1_file), "--trials", "1000000", "--seed", "12345"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    mean = float(next(l for l in out.splitlines() if l.startswith("mean_score")).split(":")[1])
    assert abs(mean - 2.0 / 3.0) < 0.002


def test_simulate_json_schema_and_determinism(povm1_file, capsys):
    argv = ["simulate", str(povm1_file), "--trials", "20000", "--seed", "9", "--format", "json"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    obj = json.loads(first)
    assert set(obj) == {"N", "trials", "seed", "mean_score", "std_error", "expected", "chunks"}


def test_simulate_requires_seed(povm1_file, capsys):
    assert main(["simulate", str(povm1_file), "--trials", "100"]) == EXIT_USAGE


def test_simulate_insufficient_trials(povm1_file, capsys):
    assert main(["simulate", str(povm1_file), "--trials", "1", "--seed", "4"]) == EXIT_INSUFFICIENT
    out = capsys.readouterr()
    assert "std_error: 0" in out.out
    assert "insufficient trials" in out.err


def test_simulate_corrupt_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{totally broken")
    assert main(["simulate", str(path), "--seed", "1"]) == EXIT_PARSE


def test_simulate_invalid_povm_normalization(tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(
        '{"N": 1, "elements": [{"c": 1.2, "theta": 0, "phi": 0},'
        ' {"c": 1.0, "theta": 3.141592653589793, "phi": 0}]}'
    )
    assert main(["simulate", str(path), "--trials", "200", "--seed", "1"]) == EXIT_PARSE


def test_score_cross_check(povm1_file, capsys):
    assert main(["score", str(povm1_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "score_exact: 0.666666666666666" in out
    assert "score_quadrature_avg" in out


def test_score_grid_emits_table(povm1_file, octa_file, capsys):
    assert main(["score", str(povm1_file), "--grid", str(octa_file)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "theta,phi,score"
    assert len(lines) == 7
    # poles score 1 for the antipodal N=1 POVM, equator scores 1/2
    scores = [float(l.split(",")[2]) for l in lines[1:]]
    assert max(scores) == pytest.approx(1.0, abs=1e-12)
    assert min(scores) == pytest.approx(0.5, abs=1e-12)


def test_score_grid_json(povm1_file, octa_file, tmp_path):
    out = tmp_path / "scores.json"
    assert main([
        "score", str(povm1_file), "--grid", str(octa_file),
        "--format", "json", "--out", str(out),
    ]) == EXIT_OK
    obj = json.loads(out.read_text())
    assert obj["N"] == 1 and len(obj["scores"]) == 6


def _record_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("copies", [1, 15, 40])
def test_construct_certifies_once(copies, tmp_path, monkeypatch):
    calls = _record_calls(monkeypatch, povm, "certify")
    cli_calls = _record_calls(monkeypatch, cli, "certify")
    assert main(["construct", str(copies), "--out", str(tmp_path / "p.json")]) == EXIT_OK
    assert len(calls) == 1 and calls[0][1] == copies
    assert cli_calls == []


@pytest.mark.parametrize("copies", [1, 15])
def test_score_sums_the_povm_once(copies, octa_file, tmp_path, monkeypatch, capsys):
    path = tmp_path / "p.json"
    assert main(["construct", str(copies), "--out", str(path)]) == EXIT_OK
    n = product_rule(copies).n
    sums = _record_calls(monkeypatch, simulate, "_ring_sums")
    certified = _record_calls(monkeypatch, povm, "certify")
    kernel = _record_calls(monkeypatch, quadrature, "_ring_sums")
    dfs = _record_calls(monkeypatch, quadrature, "_dfs_harmonic_sums")
    # one certification of the POVM's own weights to order N, on certify's
    # route in quadrature, and no grid sum: the averaged line is a closed form
    for argv in (["score", str(path)], ["score", str(path), "--grid", str(octa_file)]):
        certified.clear()
        kernel.clear()
        assert main(argv) == EXIT_OK
        assert [(args[0].n, args[1]) for args in certified] == [(n, copies)]
        assert [(args[0], args[1].size) for args in kernel] == [(copies, n)]
        assert sums == [] and dfs == []


def _refuse(monkeypatch, name):
    """Make every povmquad module's `name` raise when called."""
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")

    for module in (cli, povm, quadrature, simulate, harmonics, orthopoly):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, refused)


def test_score_builds_no_rule(povm1_file, octa_file, tmp_path, monkeypatch, capsys):
    path = tmp_path / "p40.json"
    assert main(["construct", "40", "--out", str(path)]) == EXIT_OK
    _refuse(monkeypatch, "product_rule")
    _refuse(monkeypatch, "gauss_legendre_rule")
    for argv in (["score", str(povm1_file)], ["score", str(path)],
                 ["score", str(path), "--grid", str(octa_file)]):
        assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "score_quadrature_avg: " in out and "difference: 0.000e+00" in out


def test_score_of_a_rotated_povm_takes_certifys_route(tmp_path, monkeypatch, capsys):
    # n = 3321 points on as many latitudes: past the double-Fourier-sphere
    # crossover of certify's cost model, so the POVM's sums go through it
    q = product_rule(80)
    theta, phi = rotate_angles(q.theta, q.phi, rotation_matrix([0.3, -1.0, 0.7], 0.9))
    path = tmp_path / "rotated.json"
    path.write_text(povm_to_json(FinitePovm(80, 81 / FOUR_PI * q.weights, theta, phi)))
    dfs = _record_calls(monkeypatch, quadrature, "_dfs_harmonic_sums")
    assert main(["score", str(path)]) == EXIT_OK
    assert [(args[0], args[1].size) for args in dfs] == [(80, 3321)]
    out = capsys.readouterr().out
    score = exact_score(povm_from_json(path.read_text()))
    assert f"score_exact: {score!r}\n" in out
    assert float(out.split("difference:")[1]) <= 1e-14


def test_score_grid_reads_both_point_layouts(povm1_file, tmp_path, capsys):
    # x y z w, the layout of the bundled Lebedev grids: only the directions count
    weighted = default_grid_dir() / "lebedev_0050.txt"
    assert main(["score", str(povm1_file), "--grid", str(weighted)]) == EXIT_OK
    table = capsys.readouterr().out
    assert len(table.splitlines()) == 51
    rows = np.loadtxt(weighted)
    plain = tmp_path / "plain.txt"
    np.savetxt(plain, rows[:, :3], fmt="%.17g")
    assert main(["score", str(povm1_file), "--grid", str(plain)]) == EXIT_OK
    assert capsys.readouterr().out == table


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_score_grid_table_matches_the_per_value_writer(fmt, povm1_file, octa_file,
                                                       monkeypatch, capsys):
    values = np.array([-0.0, 5e-324, 2.0 * math.pi, 1e300])
    grid = SphericalQuadrature(values, values[::-1], np.ones(4))
    scores = np.roll(values, 1)
    monkeypatch.setattr(cli, "_load_pointset", lambda path, mode: grid)
    monkeypatch.setattr(cli, "score_by_direction", lambda p, directions: scores)
    assert main(["score", str(povm1_file), "--grid", str(octa_file), "--format", fmt]) == EXIT_OK
    rows = zip(grid.theta, grid.phi, scores)
    if fmt == "csv":
        expected = "theta,phi,score\n" + "".join(
            f"{_fmt(t)},{_fmt(p)},{_fmt(v)}\n" for t, p, v in rows
        )
    else:
        points = ",\n    ".join(
            f'{{"theta": {_fmt(t)}, "phi": {_fmt(p)}, "score": {_fmt(v)}}}' for t, p, v in rows
        )
        expected = f'{{\n  "N": 1,\n  "scores": [\n    {points}\n  ]\n}}\n'
    assert capsys.readouterr().out == expected


def test_simulate_still_certifies_the_file_once(povm1_file, monkeypatch, capsys):
    calls = _record_calls(monkeypatch, povm, "certify")
    assert main(["simulate", str(povm1_file), "--trials", "1000", "--seed", "3"]) == EXIT_OK
    assert len(calls) == 1


def test_construct_prints_operator_residual_at_the_paper_order(capsys):
    assert main(["construct", "131"]) == EXIT_OK
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("operator_residual:")]
    assert len(line) == 1
    assert float(line[0].split(":")[1]) < 1e-12


def test_score_write_failure_is_io_error(povm1_file, octa_file, tmp_path):
    target = tmp_path / "no_such_dir" / "scores.csv"
    assert main([
        "score", str(povm1_file), "--grid", str(octa_file), "--out", str(target)
    ]) == EXIT_IO


def test_construct_over_an_existing_file_never_opens_it_with_o_trunc(tmp_path, monkeypatch):
    # a truncating open frees the file's blocks and waits for their
    # writeback; the file is rewritten in place instead
    path = tmp_path / "f.json"
    assert main(["construct", "40", "--out", str(path)]) == EXIT_OK
    flags = []
    real_open = os.open

    def spy(file, mode, *args, **kwargs):
        if os.fspath(file) == str(path):
            flags.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert main(["construct", "3", "--out", str(path)]) == EXIT_OK
    assert flags and not any(mode & os.O_TRUNC for mode in flags)


@pytest.mark.parametrize("fmt, writer", [("json", povm_to_json), ("csv", povm_to_csv)])
def test_a_rewrite_over_a_longer_file_holds_exactly_the_new_bytes(fmt, writer, tmp_path):
    path = tmp_path / "f"
    for copies in (40, 3):
        assert main(["construct", str(copies), "--out", str(path), "--format", fmt]) == EXIT_OK
    assert path.read_bytes() == writer(povm_from_quadrature(product_rule(3), 3)).encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_grid_table_over_a_longer_one_holds_exactly_the_new_bytes(fmt, povm1_file, octa_file,
                                                                     tmp_path, capsys):
    table = tmp_path / "t"
    longer = default_grid_dir() / "lebedev_0086.txt"
    for grid in (longer, octa_file):
        argv = ["score", str(povm1_file), "--grid", str(grid), "--format", fmt]
        assert main(argv + ["--out", str(table)]) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert table.read_bytes() == capsys.readouterr().out.encode()


def test_a_povm_refused_before_its_first_piece_leaves_an_empty_file(tmp_path, monkeypatch, capsys):
    # c summing past the largest double: povm._povm_pieces refuses it before
    # yielding anything, and the file is left empty, as a truncating open
    # leaves it
    path = tmp_path / "f.json"
    assert main(["construct", "40", "--out", str(path)]) == EXIT_OK
    build = cli.povm_from_quadrature
    monkeypatch.setattr(cli, "povm_from_quadrature",
                        lambda q, copies: dataclasses.replace(build(q, copies), c=build(q, copies).c * 1e308))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["construct", "3", "--out", str(path)]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "povmquad construct: score_exact is inf: the sum of c overflows a double\n"
    )
    assert path.read_bytes() == b""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_write_that_fails_after_the_first_piece_leaves_that_piece(fmt, tmp_path, monkeypatch, capsys):
    path = tmp_path / "f"
    assert main(["construct", "40", "--out", str(path)]) == EXIT_OK
    first = []

    def failing(p, csv=False):
        first.append(next(povm._povm_pieces(p, csv)))
        yield first[0]
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_povm_pieces", failing)
    capsys.readouterr()
    assert main(["construct", "3", "--out", str(path), "--format", fmt]) == EXIT_IO
    assert capsys.readouterr() == ("", f"povmquad construct: [Errno 28] {os.strerror(errno.ENOSPC)}\n")
    assert path.read_bytes() == first[0].encode()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_new_out_file_gets_the_mode_of_a_new_file_from_open(umask, povm1_file, octa_file, tmp_path):
    povm_path, table = tmp_path / "new.json", tmp_path / "new.csv"
    old = os.umask(umask)
    try:
        assert main(["construct", "2", "--out", str(povm_path)]) == EXIT_OK
        assert main(["score", str(povm1_file), "--grid", str(octa_file), "--out", str(table)]) == EXIT_OK
    finally:
        os.umask(old)
    for path in (povm_path, table):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


def test_out_to_dev_null_or_a_fifo_is_written_and_not_cut(tmp_path, monkeypatch):
    cut = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, length: (cut.append(fd), ftruncate(fd, length))[1])
    assert main(["construct", "3", "--out", os.devnull]) == EXIT_OK
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["construct", "3", "--out", str(fifo)]) == EXIT_OK
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [povm_to_json(povm_from_quadrature(product_rule(3), 3)).encode()]
    assert cut == []


@pytest.mark.parametrize("target", ["a_dir", "no_dir/f.json", "read_only.json"])
def test_an_out_path_that_cannot_be_written_keeps_the_message_of_a_truncating_open(
        target, tmp_path, monkeypatch, capsys):
    # the same target in two directories: one opened as open(path, "w")
    # opens it, one passed to construct. A read-only file refuses a writer
    # only when it is not run with root's privileges; as root both succeed
    def make(root):
        (root / "a_dir").mkdir(parents=True)
        (root / "read_only.json").write_text("kept\n")
        (root / "read_only.json").chmod(0o444)
        return root

    monkeypatch.chdir(make(tmp_path / "truncating"))
    try:
        with open(target, "w"):
            pass
    except OSError as exc:
        expected = (EXIT_IO, f"povmquad construct: {exc}\n")
    else:
        expected = (EXIT_OK, "")
    monkeypatch.chdir(make(tmp_path / "in_place"))
    capsys.readouterr()
    code = main(["construct", "1", "--out", target])
    assert (code, capsys.readouterr().err) == expected
    if code == EXIT_IO and target == "read_only.json":
        assert Path(target).read_text() == "kept\n"


REFERENCE_TABLE_CSV = """\
N,latorre,legendre,lebedev,design,legendre_mixed,lebedev_mixed
1,2,2,,2,2,2
2,4,6,,4,7,
3,6,8,6,6,10,8
4,10,15,,12,22,
5,12,18,14,12,28,22
6,18,28,,,50,
7,22,32,26,,60,48
"""


def test_table_reproduces_reference_counts(capsys):
    assert main(["table", "--nmax", "7", "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == REFERENCE_TABLE_CSV


def test_table_full_range_against_reference(capsys):
    assert main(["table", "--nmax", "15", "--format", "csv"]) == EXIT_OK
    rows = [l.split(",") for l in capsys.readouterr().out.strip().splitlines()[1:]]
    legendre = [int(r[2]) for r in rows]
    assert legendre == [2, 6, 8, 15, 18, 28, 32, 45, 50, 66, 72, 91, 98, 120, 128]
    mixed = [int(r[5]) for r in rows]
    assert mixed == [2, 7, 10, 22, 28, 50, 60, 95, 110, 161, 182, 252, 280, 372, 408]
    lebedev = [r[3] for r in rows]
    assert [v for v in lebedev if v] == ["6", "14", "26", "38", "50", "74", "86"]
    lebedev_mixed = [r[6] for r in rows]
    assert [v for v in lebedev_mixed if v] == ["2", "8", "22", "48", "86", "136", "210", "296"]


def test_table_missing_grids_dir_marks_absent(tmp_path, capsys):
    assert main(["table", "--nmax", "5", "--grids", str(tmp_path / "nowhere")]) == EXIT_OK
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert "lebedev" in rows[0]
    # no ingested columns, but computed ones still present
    assert main(["table", "--nmax", "3", "--grids", str(tmp_path / "nowhere"), "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["rows"][2]["lebedev"] is None
    assert obj["rows"][2]["legendre"] == 8


def test_table_env_var_grid_dir(octa_file, tmp_path, capsys, monkeypatch):
    grids = tmp_path / "grids"
    grids.mkdir()
    (grids / "design_0006.txt").write_text(OCTAHEDRON)
    monkeypatch.setenv("POVMQUAD_GRIDS", str(grids))
    assert main(["table", "--nmax", "3", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["rows"][2]["design"] == 6
    assert obj["rows"][2]["lebedev"] is None
    assert obj["rows"][0]["sources"]["design"] == "ingested"
    assert obj["rows"][0]["sources"]["latorre"] == "reference"


def test_table_json_row_schema(capsys):
    assert main(["table", "--nmax", "2", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    row = obj["rows"][0]
    assert set(row) == {
        "N", "latorre", "legendre", "lebedev", "design",
        "legendre_mixed", "lebedev_mixed", "sources",
    }


def test_usage_errors(octa_file, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["unknown-command"]) == EXIT_USAGE
    assert main(["construct"]) == EXIT_USAGE
    assert main(["simulate", "x.json", "--seed", "-3"]) == EXIT_USAGE
    assert main(["table", "--nmax", "0"]) == EXIT_USAGE
    for tol in ("nan", "-1", "0", "inf"):
        assert main(["construct", "3", "--residual-tol", tol]) == EXIT_USAGE
    assert main(["certify", str(octa_file), "--expect", "-3"]) == EXIT_USAGE
    # an infinite tolerance would certify the octahedron (strength 3) to order 9
    assert main(["certify", str(octa_file), "--lmax", "9", "--expect", "9", "--tol", "inf"]) == EXIT_USAGE
    assert main(["strength", str(octa_file), "--tol", "inf"]) == EXIT_USAGE
    assert main(["certify", str(octa_file), "--lmax", "2", "--expect", "3"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_certify_expect_above_lmax_is_refused_before_reading(tmp_path, capsys):
    # strength never exceeds --lmax, so the file cannot meet the expectation
    assert main(["certify", str(tmp_path / "absent.txt"), "--lmax", "2", "--expect", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--expect 3" in captured.err and "--lmax 2" in captured.err


@pytest.mark.parametrize("argv", [
    ["certify", "{points}", "--lmax", "100000"],
    ["strength", "{points}", "--cap", "100000"],
    ["table", "--nmax", "20000"],
    ["construct", "100000"],
], ids=["certify-lmax", "strength-cap", "table-nmax", "construct"])
def test_size_budget_is_a_usage_error(argv, octa_file, capsys):
    # each once ended in a MemoryError traceback: at once for the 149 GiB and
    # 6 GiB coefficient tables, after 47 s for construct; the budget is now
    # checked from closed-form sizes before anything is allocated
    argv = [a.format(points=octa_file) for a in argv]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "size budget" in captured.err
    assert captured.err.count("\n") == 1  # no traceback, no per-grid "skipping" lines
    assert elapsed < 1.0


def test_main_builds_its_parser_once_and_leaks_no_arguments(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["construct", "2", "--format", "csv", "--out", str(a)]) == EXIT_OK
    assert main(["construct", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_text().startswith("# N=2")
    assert json.loads(b.read_text())["N"] == 2
    assert _shared_parser.cache_info().misses == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "construct" in capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    {"N": 2.7}, {"N": "3"}, {"N": True}, {"n": "x"}, {"c_nan": True},
])
@pytest.mark.parametrize("command", ["score", "simulate"])
def test_malformed_povm_file_is_parse_error(edit, command, tmp_path, capsys):
    path = tmp_path / "povm3.json"
    assert main(["construct", "3", "--out", str(path)]) == EXIT_OK
    obj = json.loads(path.read_text())
    if "c_nan" in edit:
        obj["elements"][-1]["c"] = float("nan")
    else:
        obj.update(edit)
    path.write_text(json.dumps(obj))
    argv = [command, str(path)] + (["--trials", "1000", "--seed", "1"] if command == "simulate" else [])
    assert main(argv) == EXIT_PARSE


@pytest.mark.parametrize("edit, code", [
    ("scale", EXIT_PARSE), ("negate", EXIT_VERIFY), ("move", EXIT_PARSE),
])
def test_score_rejects_weights_that_are_not_a_povm(edit, code, octa_file, tmp_path, capsys):
    # score_quadrature_avg equals sum(c)/(N+2) for any directions, so the
    # cross-check alone passes these files (0.808 > optimum 0.8, 0.6, and
    # the optimum itself for moved directions)
    path = tmp_path / "povm3.json"
    assert main(["construct", "3", "--out", str(path)]) == EXIT_OK
    obj = json.loads(path.read_text())
    if edit == "scale":
        for element in obj["elements"]:
            element["c"] *= 1.01
    elif edit == "negate":
        obj["elements"][0]["c"] *= -1
    else:
        obj["elements"][0]["theta"] += 0.3
        obj["elements"][1]["phi"] += 1.0
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["score", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert main(["score", str(path), "--grid", str(octa_file)]) == code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["score", "simulate"])
def test_zero_weight_element_is_rejected_by_score_and_simulate(command, povm1_file, capsys):
    # the rejection sampler admits c = 0, so simulate ran this file to exit 0
    obj = json.loads(povm1_file.read_text())
    obj["elements"].append(dict(obj["elements"][0], c=0.0))
    obj["n"] += 1
    povm1_file.write_text(json.dumps(obj))
    capsys.readouterr()
    argv = [command, str(povm1_file)]
    if command == "simulate":
        argv += ["--trials", "10000", "--seed", "1"]
    assert main(argv) == EXIT_VERIFY
    assert "non-positive element weight" in capsys.readouterr().err


def test_construct_paper_order(capsys):
    assert main(["construct", "131"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "n: 8712" in out
    assert float(out.split("scalar_residual:")[1].split()[0]) < 1e-9


@pytest.mark.parametrize("lines", [
    ("1 0 0", "nan 0 0", "0 0 1"),
    ("1 0 0 1", "0 1 0 nan", "0 0 1 1"),
    ("1 0 0 1", "0 1 0 inf", "0 0 1 1"),
    ("1 0 0", "0 -inf 0", "0 0 1"),
], ids=["nan-coordinate", "nan-weight", "inf-weight", "inf-coordinate"])
def test_certify_non_finite_value_is_parse_error_on_its_line(lines, tmp_path, capsys, recwarn):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["certify", str(path), "--lmax", "2"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 2: non-finite value" in err
    assert err.count("\n") == 1
    assert len(recwarn) == 0


@pytest.mark.parametrize("text, code, message", [
    ("0 0 1\n0 0 1.5\n", EXIT_PARSE, "line 2: vector norm 1.5 off unit by more than 1e-06"),
    ("0 0 1 1.0\n0 0 -1 -1.0\n", EXIT_VERIFY,
     "explicit weights sum to 0.0; cannot rescale to 4*pi"),
    # weights 1, 1, -1 rescale to 4 pi, 4 pi, -4 pi
    ("0 0 1 1\n0 0 -1 1\n1 0 0 -1\n", EXIT_VERIFY,
     "points.txt has a non-positive weight (min -12.566370614359172)"),
], ids=["vector-norm", "weight-sum", "weight-min"])
def test_point_file_messages_print_numbers_as_floats(text, code, message, tmp_path, capsys):
    path = tmp_path / "points.txt"
    path.write_text(text)
    assert main(["certify", str(path), "--lmax", "2"]) == code
    assert capsys.readouterr().err == f"povmquad certify: {message}\n"


@pytest.mark.parametrize("argv", [
    ["certify", "{bad}"],
    ["strength", "{bad}"],
    ["score", "{bad}"],
    ["score", "{povm}", "--grid", "{bad}"],
    ["simulate", "{bad}", "--trials", "200", "--seed", "1"],
], ids=["certify", "strength", "score", "score-grid", "simulate"])
def test_non_utf8_file_is_parse_error_naming_it(argv, povm1_file, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main([a.format(bad=bad, povm=povm1_file) for a in argv]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "latin1.txt" in err and "UTF-8" in err


def test_table_skips_non_utf8_grid(tmp_path, capsys):
    (tmp_path / "design_latin1.txt").write_bytes(b"\xff" + OCTAHEDRON.encode())
    (tmp_path / "design_0006.txt").write_text(OCTAHEDRON)
    assert main(["table", "--nmax", "3", "--grids", str(tmp_path), "--format", "json"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err.startswith("povmquad table: skipping design_latin1.txt:") and err.count("\n") == 1
    assert [row["design"] for row in json.loads(out)["rows"]] == [6, 6, 6]


@pytest.mark.parametrize("text", [
    '{"N": 1, "elements": ' + "[" * 5000 + "]" * 5000 + "}",
    '{"N": 1' + "0" * 5000 + ', "elements": []}',
    '{"N": 1, "elements": [{"c": 1' + "0" * 399 + ', "theta": 0, "phi": 0}]}',
], ids=["nested-5000-deep", "5001-digit-N", "400-digit-c"])
@pytest.mark.parametrize("command", ["score", "simulate"])
def test_povm_json_past_nesting_or_number_limits_is_parse_error(text, command, tmp_path, capsys):
    path = tmp_path / "povm.json"
    path.write_text(text)
    argv = [command, str(path)] + (["--trials", "200", "--seed", "1"] if command == "simulate" else [])
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1


# Property tests over input files: whatever a bounded point or POVM file
# holds, the CLI answers with one of its exit codes, never a traceback.
EXIT_CODES = {EXIT_OK, EXIT_VERIFY, EXIT_IO, EXIT_INSUFFICIENT, EXIT_USAGE, EXIT_PARSE}
POVM3 = povm_to_json(povm_from_quadrature(product_rule(3), 3))

_tokens = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["#", "nan", "-inf", "1e400", "1e-320", "1_0", "0x10", "", "\t", "\u00a0", "\r"]),
    st.text(max_size=6),
)
_json_leaves = (
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=5)
    | st.sampled_from([10**400, -(10**30), 1e308])
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
# N is bounded by 40; everything else about it may be wrong
_copies = st.integers(-2, 40) | _json_values.filter(lambda v: type(v) is not int)


@st.composite
def point_files(draw):
    """Bytes of a point file of at most 40 lines: unit vectors with or
    without weights, some lines replaced or joined by arbitrary tokens and
    text; or arbitrary bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xyz = rng.normal(size=(draw(st.integers(0, 40)), 3))
    xyz /= np.linalg.norm(xyz, axis=1)[:, None]
    weights = rng.uniform(0.0, 1.0, (len(xyz), 1)) if draw(st.booleans()) else np.empty((len(xyz), 0))
    lines = [" ".join(repr(float(v)) for v in row) for row in np.hstack((xyz, weights))]
    edit = st.tuples(st.booleans(), st.integers(0, 40), st.lists(_tokens, max_size=5).map(" ".join))
    for replace, k, line in draw(st.lists(edit, max_size=4)):
        lines[k:k + replace] = [line]
    return "\n".join(lines[:40]).encode()


@st.composite
def povm_files(draw):
    """Bytes of a POVM file: a mutated construct-3 file, a truncated one,
    arbitrary JSON or arbitrary bytes."""
    kind = draw(st.sampled_from(["mutated", "mutated", "truncated", "json", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    if kind == "json":
        return json.dumps(draw(_json_values)).encode()
    if kind == "truncated":
        return POVM3[:draw(st.integers(0, len(POVM3)))].encode()
    obj = json.loads(POVM3)
    mutations = st.one_of(
        st.tuples(st.just("set"), st.sampled_from(["n", "elements", "label", "extra"]), _json_values),
        st.tuples(st.just("set"), st.just("N"), _copies),
        st.tuples(st.just("delete"), st.sampled_from(["N", "n", "elements"]), st.none()),
        st.tuples(st.just("element"), st.integers(0, 39),
                  st.tuples(st.sampled_from(["c", "theta", "phi", "extra"]), _json_values)),
        st.tuples(st.just("drop"), st.integers(0, 39), st.none()),
        st.tuples(st.just("copy"), st.integers(0, 39), st.none()),
    )
    for op, key, value in draw(st.lists(mutations, max_size=3)):
        elements = obj.get("elements")
        if op == "set":
            obj[key] = value
        elif op == "delete":
            obj.pop(key, None)
        elif not isinstance(elements, list) or key >= len(elements):
            continue
        elif op == "element" and isinstance(elements[key], dict):
            elements[key][value[0]] = value[1]
        elif op == "drop":
            del elements[key]
        elif op == "copy" and len(elements) < 40:
            elements.append(elements[key])
    return json.dumps(obj).encode()


_file_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_file_settings
@given(
    content=point_files(),
    command=st.sampled_from(["certify", "strength"]),
    order=st.integers(1, 6),
    flags=st.lists(st.sampled_from(["--signed", "--weights=uniform", "--weights=explicit"]),
                   max_size=2, unique=True),
)
def test_any_point_file_gets_an_exit_code(content, command, order, flags, tmp_path_factory):
    path = tmp_path_factory.mktemp("points") / "points.txt"
    path.write_bytes(content)
    bound = "--lmax" if command == "certify" else "--cap"
    assert main([command, str(path), bound, str(order), *flags]) in EXIT_CODES


@_file_settings
@given(content=povm_files(), grid=st.none() | point_files())
def test_any_povm_file_gets_an_exit_code_from_score(content, grid, tmp_path_factory):
    work = tmp_path_factory.mktemp("score")
    (work / "povm.json").write_bytes(content)
    argv = ["score", str(work / "povm.json")]
    if grid is not None:
        (work / "grid.txt").write_bytes(grid)
        argv += ["--grid", str(work / "grid.txt"), "--out", str(work / "scores.csv")]
    assert main(argv) in EXIT_CODES


@_file_settings
@given(content=povm_files())
def test_any_povm_file_gets_an_exit_code_from_simulate(content, tmp_path_factory):
    path = tmp_path_factory.mktemp("simulate") / "povm.json"
    path.write_bytes(content)
    assert main(["simulate", str(path), "--trials", "200", "--seed", "1"]) in EXIT_CODES


# Any argv: the file half above varies the files, this the command line.
_FLAGS = ["--out", "--format", "--residual-tol", "--lmax", "--tol", "--expect", "--weights",
          "--signed", "--cap", "--trials", "--seed", "--grid", "--nmax", "--grids", "--help"]
_VALUES = st.one_of(
    # sizes stay small: the size budget and its exit code are tested above
    st.integers(-2, 40).map(str),
    st.sampled_from(["0.5", "1e-12", "0", "-1e-9", "nan", "inf", "-inf", "1e400", "2**64",
                     "18446744073709551616", "1_000", "0x10", "", " ", "-", "--", "=",
                     "json", "csv", "text", "auto", "uniform", "explicit", "a\0b"]),
    # no separators: a bare token after --out is written in the work directory
    st.text(st.characters(exclude_characters="/\\"), max_size=6),
)
_COMMANDS = st.sampled_from(["construct", "certify", "strength", "simulate", "score", "table"])


@st.composite
def argvs(draw):
    """A command (or not), then up to six flags, values and file names."""
    head = draw(st.one_of(_COMMANDS.map(lambda c: [c]), st.just([]), st.lists(st.text(max_size=6), max_size=1)))
    files = st.sampled_from(["{points}", "{povm}", "{missing}", "{dir}", "{out}"])
    tail = draw(st.lists(st.one_of(st.sampled_from(_FLAGS), _VALUES, files), max_size=6))
    return head + tail


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_any_argv_gets_an_exit_code_and_no_traceback(argv, tmp_path_factory):
    work = tmp_path_factory.mktemp("argv")
    (work / "points.txt").write_text(OCTAHEDRON)
    povm_path = work / "povm.json"
    povm_path.write_text(povm_to_json(povm_from_quadrature(product_rule(2), 2)))
    names = {"points": work / "points.txt", "povm": povm_path, "missing": work / "absent.txt",
             "dir": work, "out": work / "written.txt"}
    argv = [a.format(**names) if a.startswith("{") and a.endswith("}") and a[1:-1] in names else a
            for a in argv]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # a bare token after --out lands here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert type(code) is int and code in EXIT_CODES
    assert "Traceback" not in err.getvalue()


# score and simulate read the layout construct writes in blocks
# (povm._read_povm) and any other file through json.loads.


@pytest.mark.parametrize("command", [["score"], ["simulate", "--trials", "200", "--seed", "1"]])
def test_a_povm_file_is_read_within_its_arrays_and_one_block(command, tmp_path, monkeypatch):
    # the read ends where the command validates the POVM, so the traced peak
    # up to validate() is the read's: the three arrays of 24 bytes per element
    # and one block of text with its copies; json.loads of the whole text
    # alone took 11.5 MiB for this file (N = 300, 4 MB)
    path = tmp_path / "p300.json"
    assert main(["construct", "300", "--out", str(path)]) == EXIT_OK
    peaks = []
    validate = FinitePovm.validate

    def traced_validate(self, *args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(FinitePovm, "validate", traced_validate)
    tracemalloc.start()
    try:
        main([command[0], str(path), *command[1:]])
    finally:
        tracemalloc.stop()
    block = (povm._BLOCK_ELEMS // 16) * povm._MIN_ROW_BYTES
    assert peaks[0] < 24 * 301 * 151 + 8 * block


def test_other_layouts_are_admitted_by_size_before_they_are_read(tmp_path, monkeypatch, capsys):
    written = tmp_path / "written.json"
    written.write_text(povm_to_json(povm_from_quadrature(product_rule(3), 3)))
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(json.loads(written.read_text()), indent=1))
    size = indented.stat().st_size
    monkeypatch.setattr(quadrature, "SIZE_BUDGET_BYTES", cli._JSON_BYTES_FACTOR * size - 1)
    read_text = cli._read_text
    monkeypatch.setattr(cli, "_read_text", lambda path: pytest.fail(f"{path.name} read"))
    assert main(["score", str(indented)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("povmquad score: reading indented.json as a JSON object tree needs about")
    assert err.endswith(" GiB size budget\n") and err.count("\n") == 1
    # the writer's layout is read in blocks, whatever its size
    assert main(["score", str(written)]) == EXIT_OK
    monkeypatch.setattr(quadrature, "SIZE_BUDGET_BYTES", cli._JSON_BYTES_FACTOR * size)
    monkeypatch.setattr(cli, "_read_text", read_text)
    assert main(["score", str(indented)]) == EXIT_OK


def test_a_povm_file_that_grows_after_it_is_sized_is_read_only_to_its_admission(
        tmp_path, monkeypatch, capsys):
    # sized on the open handle and read from it, never more than one byte
    # past the size the budget admits: the grown file exits 64 as a file of
    # that size from the start does, instead of being read whole
    path = tmp_path / "p.json"
    path.write_text(povm_to_json(povm_from_quadrature(product_rule(3), 3)))
    monkeypatch.setattr(quadrature, "SIZE_BUDGET_BYTES", 4 << 20)

    def grow(fh, size, label=""):
        with path.open("ab") as out:
            out.write(b" " * (4 << 20))

    monkeypatch.setattr(cli, "_read_povm", grow)
    assert main(["score", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("povmquad score: reading p.json as a JSON object tree needs about")
    assert err.endswith(" GiB size budget\n")


def test_a_povm_file_that_is_not_utf8_keeps_the_decode_message(tmp_path, capsys):
    data = povm_to_json(povm_from_quadrature(product_rule(3), 3)).encode()
    path = tmp_path / "latin.json"
    path.write_bytes(data[:300] + b"\xe9" + data[301:])
    with pytest.raises(ParseError) as exc:
        cli._read_text(path)
    for command in (["score"], ["simulate", "--trials", "200", "--seed", "1"]):
        assert main([command[0], str(path), *command[1:]]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"povmquad {command[0]}: {exc.value}\n")


def test_a_povm_file_from_a_named_pipe_is_read_once(tmp_path, capsys):
    # the block reader needs a file it can read again; a pipe goes to
    # json.loads alone, opened once
    data = povm_to_json(povm_from_quadrature(product_rule(3), 3)).encode()
    fifo = tmp_path / "povm.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    codes = []
    reader = threading.Thread(target=lambda: codes.append(main(["score", str(fifo)])), daemon=True)
    reader.start()
    reader.join(timeout=30)
    assert not reader.is_alive() and codes == [EXIT_OK]
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert capsys.readouterr().out.startswith("score_exact: ")


def _score_through_fifo(fifo, data):
    """Exit code of `score` of a named pipe that a thread writes `data` to,
    and whether the write ended early (the reader closed the pipe)."""
    os.mkfifo(fifo)
    broken = []

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            broken.append(True)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    codes = []
    reader = threading.Thread(target=lambda: codes.append(main(["score", str(fifo)])), daemon=True)
    reader.start()
    # a second open of the pipe, with no writer left, would never return
    reader.join(timeout=30)
    writer.join(timeout=30)
    assert not reader.is_alive() and not writer.is_alive()
    fifo.unlink()
    return codes[0], bool(broken)


def test_a_povm_file_from_a_named_pipe_is_admitted_by_size(tmp_path, monkeypatch, capsys):
    # a pipe is read once, up to one byte past the size that the budget
    # admits as a JSON object tree: the same bytes exit 64 as from a
    # regular file of their size, and the reader does not wait for the
    # rest of a longer stream (4 MiB of trailing blanks, past any pipe's
    # buffer)
    data = povm_to_json(povm_from_quadrature(product_rule(3), 3)).encode()
    fifo = tmp_path / "povm.fifo"
    regular = tmp_path / "indented.json"
    regular.write_text(json.dumps(json.loads(data), indent=1))
    for budget, sent, broken in ((cli._JSON_BYTES_FACTOR * len(data) - 1, data, False),
                                 (cli._JSON_BYTES_FACTOR * 64, data + b" " * (4 << 20), True)):
        monkeypatch.setattr(quadrature, "SIZE_BUDGET_BYTES", budget)
        assert _score_through_fifo(fifo, sent) == (EXIT_USAGE, broken)
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("povmquad score: reading povm.fifo as a JSON object tree needs about")
        assert err.endswith(" GiB size budget\n") and err.count("\n") == 1
        assert main(["score", str(regular)]) == EXIT_USAGE
        capsys.readouterr()
    monkeypatch.setattr(quadrature, "SIZE_BUDGET_BYTES", cli._JSON_BYTES_FACTOR * len(data))
    assert _score_through_fifo(fifo, data) == (EXIT_OK, False)
    assert capsys.readouterr().out.startswith("score_exact: ")


def test_a_povm_file_from_a_named_pipe_keeps_the_decode_message(tmp_path, capsys):
    data = povm_to_json(povm_from_quadrature(product_rule(3), 3)).encode()
    data = data[:300] + b"\xe9" + data[301:]
    path = tmp_path / "povm.fifo"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        cli._read_text(path)
    path.unlink()
    assert _score_through_fifo(path, data) == (EXIT_PARSE, False)
    assert capsys.readouterr() == ("", f"povmquad score: {exc.value}\n")


def test_a_point_file_from_a_named_pipe_is_read_once(tmp_path, capsys):
    # point files are read forward once, in blocks, from a pipe as from a file
    q = product_rule(80)
    regular = tmp_path / "pr80.txt"
    np.savetxt(regular, np.column_stack((angles_to_xyz(q.theta, q.phi), q.weights)), fmt="%.17g")
    argv = ["--lmax", "82", "--expect", "80"]
    assert main(["certify", str(regular), *argv]) == EXIT_OK
    expected = capsys.readouterr()
    fifo = tmp_path / "points.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(regular.read_bytes())

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    codes = []
    reader = threading.Thread(target=lambda: codes.append(main(["certify", str(fifo), *argv])), daemon=True)
    reader.start()
    reader.join(timeout=30)
    assert not reader.is_alive() and codes == [EXIT_OK]
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("block", [256, 300, 1000, 4096])
def test_povm_files_read_the_same_in_blocks_of_any_size(block, tmp_path):
    # the writer's last row and trailer fall across the blocks' ends at every
    # place; mutated files go to json.loads (None) at every block size
    for copies in range(1, 7):
        data = povm_to_json(povm_from_quadrature(product_rule(copies), copies)).encode()
        for edit in (data, data + b"\n", data[:-3] + b"}\n", data.replace(b"},\n", b"},\r\n", 1)):
            expected = povm._read_povm(io.BytesIO(edit), len(edit))
            with mock.patch.object(quadrature, "_BLOCK_BYTES", block):
                got = povm._read_povm(io.BytesIO(edit), len(edit))
            assert (got is None) == (expected is None) == (edit is not data)
            if got is not None:
                assert _read_outcome(lambda: got) == _read_outcome(lambda: expected)


def _read_outcome(read):
    """(N, and the bits of c, theta and phi) of a POVM read, or its ParseError message."""
    try:
        p = read()
    except ParseError as exc:
        return str(exc)
    return (p.copies,) + tuple(np.asarray(a).view(np.int64).tolist() for a in (p.c, p.theta, p.phi))


_NUMBER = re.compile(rb"-?[0-9][0-9.eE+-]*")
# tokens numpy reads and JSON refuses (NaN and Infinity json.loads reads as
# floats), tokens both read, and other values
_SWAPS = [b"NaN", b"Infinity", b"-Infinity", b"+1", b".5", b"1_0", b"01", b"-01", b"1.", b"-.5",
          b"1.e5", b"-0", b"-0.0", b"0e5", b"1E5", b"1.50", b"1e400", b"2e-400", b"0x10", b" 1",
          b"1" + b"0" * 400, b"true", b'"1"']


@st.composite
def mutated_povm_files(draw):
    """Bytes of a written POVM file with one to three edits: a number
    replaced, a row dropped, n off by one, trailing bytes, score_exact
    broken, theta and phi swapped in a row, CRLF line ends, or a byte
    inserted."""
    copies = draw(st.integers(1, 6))
    data = povm_to_json(povm_from_quadrature(product_rule(copies), copies)).encode()
    edits = st.one_of(
        st.tuples(st.just("number"), st.integers(0, 999), st.sampled_from(_SWAPS)),
        st.tuples(st.just("drop"), st.integers(0, 999), st.none()),
        st.tuples(st.just("n"), st.sampled_from([-1, 1]), st.none()),
        st.tuples(st.just("trailing"), st.none(),
                  st.sampled_from([b"\n", b" ", b"x", b"{}", b"\x00", b"\r\n", b"\n\n"])),
        st.tuples(st.just("score"), st.none(),
                  st.sampled_from([b"NaN", b"", b"1.", b'"x"', b"[1]", b"1e999", b"-", b"null",
                                   b"1" * 5000, b"0.5 0.5", b"+0.5"])),
        st.tuples(st.just("swap"), st.integers(0, 999), st.none()),
        st.tuples(st.just("crlf"), st.none(), st.none()),
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from([b"\xff", b" ", b"\t", b","])),
    )
    for op, k, value in draw(st.lists(edits, min_size=1, max_size=3)):
        lines = data.split(b"\n")
        rows = [i for i, line in enumerate(lines) if line.startswith(b'    {"c"')]
        if op == "number":
            tokens = list(_NUMBER.finditer(data))
            if tokens:
                t = tokens[k % len(tokens)]
                data = data[: t.start()] + value + data[t.end() :]
        elif op == "drop" and rows:
            del lines[rows[k % len(rows)]]
            data = b"\n".join(lines)
        elif op == "n":
            data = re.sub(rb'"n": (\d+)', lambda m: b'"n": %d' % (int(m[1]) + k), data, count=1)
        elif op == "trailing":
            data += value
        elif op == "score":
            data = re.sub(rb'"score_exact": [^\n]*', lambda m: b'"score_exact": ' + value, data)
        elif op == "swap" and rows:
            i = rows[k % len(rows)]
            lines[i] = re.sub(rb'("theta": [^,]*), ("phi": [^}]*)', rb"\2, \1", lines[i])
            data = b"\n".join(lines)
        elif op == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif op == "insert":
            i = k % (len(data) + 1)
            data = data[:i] + value + data[i:]
    return data


@pytest.mark.parametrize("command", [["score"], ["simulate", "--seed", "1"]])
def test_a_povm_whose_weights_sum_past_the_largest_double_exits_65_alone(command, tmp_path, capsys):
    # numpy's overflow warning came before the message
    path = tmp_path / "p.json"
    path.write_text(povm_to_json(povm_from_quadrature(product_rule(1), 1)).replace('"c": 1,', '"c": 1e308,'))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command[0], str(path), *command[1:]]) == EXIT_PARSE
    assert capsys.readouterr() == ("", f"povmquad {command[0]}: p.json: element weights sum to inf, expected 2\n")


@contextlib.contextmanager
def _povm_blocks(size):
    """Reads of `size` bytes for povm._read_povm; yields the list that the
    blocks it takes are appended to."""
    blocks = []
    line_blocks = povm._line_blocks

    def counted(fh, grow):
        for block in line_blocks(fh, grow):
            blocks.append(block)
            yield block

    with mock.patch.object(quadrature, "_BLOCK_BYTES", size), mock.patch.object(povm, "_line_blocks", counted):
        yield blocks


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=mutated_povm_files())
def test_block_reader_and_json_loads_agree_on_mutated_files(data, tmp_path_factory):
    # the same doubles, bit for bit, or the same ParseError message; the
    # block reader never reads a file that json.loads refuses
    path = tmp_path_factory.mktemp("mutated") / "povm.json"
    path.write_bytes(data)
    expected = _read_outcome(lambda: povm._povm_from_tree(cli._read_text(path), label=path.name))
    assert _read_outcome(lambda: cli._load_povm(path)) == expected
    for size in (128, 1 << 10):
        with _povm_blocks(size) as blocks, path.open("rb") as fh:
            block = povm._read_povm(fh, len(data), label=path.name)
        if block is not None:
            assert _read_outcome(lambda: block) == expected
            assert len(blocks) > 1 or len(data) <= size  # one block per read
    try:
        text = data.decode()
    except UnicodeDecodeError:
        return
    assert _read_outcome(lambda: povm_from_json(text)) == _read_outcome(lambda: povm._povm_from_tree(text))


@pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"+1", b".5", b"1_0", b"01", b"-0", b"1e400"])
def test_numbers_json_refuses_or_reads_otherwise_take_json_loads(token, tmp_path):
    data = povm_to_json(povm_from_quadrature(product_rule(3), 3)).encode()
    first = _NUMBER.search(data, data.index(b'"c": '))
    data = data[: first.start()] + token + data[first.end() :]
    path = tmp_path / "povm.json"
    path.write_bytes(data)
    with path.open("rb") as fh:
        assert povm._read_povm(fh, len(data)) is None
    expected = _read_outcome(lambda: povm._povm_from_tree(cli._read_text(path), label=path.name))
    assert _read_outcome(lambda: cli._load_povm(path)) == expected


@pytest.mark.parametrize("argv", [
    ["certify", "\ud800"],
    ["simulate", "\ud800", "--seed", "1"],
    ["score", "\ud800"],
    ["construct", "2", "--out", "\ud800"],
    ["table", "--grids", "\ud800"],
])
def test_unencodable_path_is_a_usage_error(argv, capsys):
    # a lone surrogate cannot be encoded as a file name: opening it ended in
    # a UnicodeEncodeError traceback
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_construct_prints_operator_residual_past_the_old_cap(capsys):
    # N = 301 printed "skipped (N > 300)"; a product rule's rings leave the
    # Gram its diagonal, so the check runs at every N
    assert main(["construct", "301"]) == EXIT_OK
    line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("operator_residual:")]
    assert len(line) == 1 and float(line[0].split(":")[1]) < 1e-11


def test_construct_1000_is_complete_and_scores(tmp_path, capsys):
    path = tmp_path / "p1000.json"
    assert main(["construct", "1000", "--out", str(path)]) == EXIT_OK
    out = dict(l.split(": ") for l in capsys.readouterr().out.splitlines())
    assert float(out["scalar_residual"]) < 1e-9
    assert float(out["operator_residual"]) < 1e-9
    assert main(["score", str(path)]) == EXIT_OK


def test_simulate_help_states_the_cost_of_a_trial(capsys):
    assert main(["simulate", "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert "O(1)" in text and "chunk" in text


@pytest.mark.parametrize("argv", [
    ["construct", "2", "--out", "a\x00b"],
    ["certify", "a\x00b"],
    ["strength", "a\x00b"],
    ["simulate", "a\x00b", "--seed", "1"],
    ["score", "a\x00b"],
    ["score", "{povm}", "--grid", "a\x00b"],
    ["table", "--grids", "a\x00b"],
])
def test_nul_byte_in_a_path_is_a_usage_error(argv, povm1_file, capsys):
    # the operating system refuses such a path with ValueError, which ended
    # in a traceback
    code = main([a.format(povm=povm1_file) for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "Traceback" not in captured.err and captured.out == ""
