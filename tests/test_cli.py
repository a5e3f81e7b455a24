"""CLI subcommands, report shapes, exit codes, and report determinism."""

import argparse
import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from triprof import (IntegrityError, ProfileVector, SampleParams, compute_profile,
                     load_edge_list, sample_mask, subgraph_from_mask)
from triprof.cli import _emit, accuracy_ratio, main
from triprof.oracle import ego_serial

from conftest import chung_lu

K4_TEXT = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
C5_TEXT = "0 1\n1 2\n2 3\n3 4\n4 0\n"

# one call of each command that computes on the graph ("{g}"), the sampled
# profile as well as the exact one
COMMAND_ARGVS = [["profile", "{g}"], ["profile", "{g}", "--p", "0.5"], ["ego", "{g}", "--all"],
                 ["sparsifier-check", "{g}", "--p", "0.5", "--epsilon", "0.1", "--gamma", "1"],
                 ["polys", "{g}", "--p", "0.5"]]


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestProfileCommand:
    def test_k4_profile(self, capsys, k4_file):
        code, report = run_cli(capsys, "profile", k4_file)
        assert code == 0
        assert report["global"] == {"n0": 0, "n1": 0, "n2": 0, "n3": 4}

    def test_sampled_run_report_shape(self, capsys, c5_file):
        code, report = run_cli(capsys, "profile", c5_file, "--p", "0.5",
                               "--seed", "7", "--runs", "20", "--compare-exact")
        assert code == 0
        for key in ("estimate_mean", "estimate_stddev", "accuracy_ratio", "runs"):
            assert key in report
        assert len(report["runs"]) == 20
        assert report["sampling"] == {"p": 0.5, "seed": 7, "runs": 20}

    def test_sampled_phases_keyed_by_seed(self, capsys, c5_file):
        code, report = run_cli(capsys, "profile", c5_file, "--p", "0.5",
                               "--seed", "7", "--runs", "3", "--no-timing")
        assert code == 0
        assert [ph["name"] for ph in report["phases"]] == [
            "load", "sampled-run:7", "sampled-run:8", "sampled-run:9", "sampled-runs"]

    @pytest.mark.parametrize("extra", [["--compare-exact"], ["--local-tsv", "local.tsv"]])
    def test_exact_and_sampled_share_one_orientation(self, capsys, c5_file, tmp_path,
                                                     monkeypatch, extra):
        from triprof import cli, profiles, sampling

        calls, real = [], profiles.orient

        def counted(g):
            calls.append(g)
            return real(g)

        for module in (cli, profiles, sampling):
            monkeypatch.setattr(module, "orient", counted)
        monkeypatch.chdir(tmp_path)
        code, _ = run_cli(capsys, "profile", c5_file, "--p", "0.5", "--runs", "3", *extra)
        assert code == 0
        assert len(calls) == 1

    def test_local_tsv(self, capsys, c5_file, tmp_path):
        out = tmp_path / "local.tsv"
        code, report = run_cli(capsys, "profile", c5_file, "--local-tsv", str(out))
        assert code == 0
        assert report["local_path"] == str(out)
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["vertex", "n0", "n1_e", "n1_d", "n2_e", "n2_c", "n3"]
        assert lines[1].split("\t") == ["0", "0", "2", "1", "2", "1", "0"]

    def test_vertex_count_override(self, capsys, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("0 1\n")
        code, report = run_cli(capsys, "profile", str(path), "--vertex-count", "4")
        assert code == 0
        assert report["graph"]["vertices"] == 4
        assert report["global"]["n1"] == 2

    def test_missing_file_is_data_error(self, capsys):
        assert main(["profile", "/nonexistent/graph.txt"]) == 2

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["profile"]) == 1

    def test_bad_p_is_usage_error(self, capsys, k4_file):
        assert main(["profile", k4_file, "--p", "1.5", "--runs", "1"]) == 1

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        assert main(["profile", str(path)]) == 2


class TestHostileInput:
    """Each bad input exits 1 (usage) or 2 (data) with a one-line message."""

    @staticmethod
    def one_line_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("triprof: ") and err.count("\n") == 1, err
        return err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_threads_below_one(self, capsys, k4_file, workers):
        assert main(["profile", k4_file, "--threads", workers]) == 1
        assert "at least 1" in self.one_line_error(capsys)

    def test_non_utf8_input(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0 1\n1 caf\xe9\n")
        assert main(["profile", str(path)]) == 2
        assert "line 2: not UTF-8" in self.one_line_error(capsys)

    @pytest.mark.parametrize("command", [["ego"], ["oracle", "--ego"]])
    def test_non_utf8_centers_file(self, capsys, k4_file, tmp_path, command):
        centers = tmp_path / "centers.txt"
        centers.write_bytes(b"1\n\xff\xfe\n")
        assert main([command[0], k4_file, *command[1:], "--centers", str(centers)]) == 2
        assert "--centers line 2: not UTF-8" in self.one_line_error(capsys)

    def test_non_utf8_centers_after_other_line_breaks(self, capsys, k4_file, tmp_path):
        centers = tmp_path / "centers.txt"
        centers.write_bytes(b"1\r\n2\r3 caf\xe9\n")
        assert main(["ego", k4_file, "--centers", str(centers)]) == 2
        assert "--centers line 3: not UTF-8" in self.one_line_error(capsys)

    @pytest.mark.parametrize("other_break", [b"\x0c", b"\x1c", b"\xc2\x85"],
                             ids=["form-feed", "file-separator", "next-line"])
    def test_non_utf8_centers_line_counts_only_line_ends(self, capsys, k4_file, tmp_path,
                                                         other_break):
        """Characters that str.splitlines() also breaks at do not end a
        line, as in the edge-list loader."""
        centers = tmp_path / "centers.txt"
        centers.write_bytes(b"1" + other_break + b"2\n\xff\n")
        assert main(["ego", k4_file, "--centers", str(centers)]) == 2
        assert "--centers line 2: not UTF-8" in self.one_line_error(capsys)

    @pytest.mark.parametrize("other_break", [b"\x0c", b"\x1c", b"\xc2\x85", b"\xe2\x80\xa8"],
                             ids=["form-feed", "file-separator", "next-line", "line-separator"])
    def test_centers_line_ends_only_at_line_ends(self, capsys, k4_file, tmp_path, other_break):
        """A line 0<sep>1 is the one label it reads as, not two centers."""
        centers = tmp_path / "centers.txt"
        centers.write_bytes(b"0" + other_break + b"1\n")
        assert main(["ego", k4_file, "--centers", str(centers)]) == 1
        label = ("0" + other_break.decode() + "1")
        assert f"unknown vertex label {label!r}" in self.one_line_error(capsys)

    def test_directory_as_centers_file(self, capsys, k4_file, tmp_path):
        assert main(["ego", k4_file, "--centers", str(tmp_path)]) == 2
        self.one_line_error(capsys)

    @pytest.mark.parametrize("message", [
        "Unable to allocate 7.45 GiB for an array with shape (1000000001,) and data type int64",
        "two\nlines", ""])
    def test_out_of_memory_is_data_error(self, capsys, k4_file, monkeypatch, message):
        from triprof import cli

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "load_edge_list", exhausted)
        assert main(["profile", k4_file]) == 2
        err = self.one_line_error(capsys)
        assert err.startswith("triprof: out of memory")
        assert " ".join(message.split()) in err

    def test_directory_as_graph(self, capsys, tmp_path):
        assert main(["profile", str(tmp_path)]) == 2
        self.one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["profile", "{p}"],
        ["profile", "{g}", "--out", "{p}"],
        ["profile", "{g}", "--local-tsv", "{p}"],
        ["ego", "{g}", "--all", "--tsv", "{p}"],
        ["ego", "{g}", "--centers", "{p}"],
    ], ids=["graph", "out", "local-tsv", "tsv", "centers"])
    @pytest.mark.parametrize("bad", ["parent-is-a-file", "name-too-long"])
    def test_unusable_path(self, capsys, k4_file, tmp_path, argv, bad):
        path = k4_file + "/x" if bad == "parent-is-a-file" else str(tmp_path / ("x" * 5000))
        assert main([a.format(g=k4_file, p=path) for a in argv]) == 2
        self.one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["profile", "{g}", "--p", "nan"],
        ["polys", "{g}", "--p", "inf"],
        ["sparsifier-check", "{g}", "--p", "0.5", "--epsilon", "inf", "--gamma", "1"],
        ["sparsifier-check", "{g}", "--p", "0.5", "--epsilon", "0.1", "--gamma", "nan"],
        ["sparsifier-check", "{g}", "--p", "0.5", "--epsilon", "0.1", "--gamma=-inf"],
    ])
    def test_non_finite_parameter(self, capsys, c5_file, argv):
        assert main([a.format(g=c5_file) for a in argv]) == 1
        assert "must be finite" in self.one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["profile", "{g}", "--p", "0.5", "--seed", "-1"],
        ["ego", "{g}", "--random", "2", "--seed", "-1"],
        ["polys", "{g}", "--p", "0.5", "--seed", "-1"],
        ["profile", "{g}", "--vertex-count", "-1"],
    ])
    def test_negative_count(self, capsys, c5_file, argv):
        assert main([a.format(g=c5_file) for a in argv]) == 1
        assert "must be non-negative" in self.one_line_error(capsys)

    @pytest.mark.parametrize("command", ["profile", "polys"])
    @pytest.mark.parametrize("seed", [str(2 ** 64), str(2 ** 64 + 1)])
    def test_seed_beyond_64_bits(self, capsys, c5_file, command, seed):
        assert main([command, c5_file, "--p", "0.5", "--seed", seed]) == 1
        assert "must be below 2**64" in self.one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["profile", "{g}", "--local-tsv", "{out}"],
        ["ego", "{g}", "--all"],
        ["ego", "{g}", "--centers", "{centers}"],
    ], ids=["profile-local-tsv", "ego-all", "ego-centers"])
    def test_padding_label_clash_is_a_usage_error(self, capsys, tmp_path, argv):
        # the file's label 7 would share its name with padding vertex 7
        path, centers = tmp_path / "g.txt", tmp_path / "centers.txt"
        path.write_text("a b\nb c\nc a\n7 a\n7 b\n7 c\n")
        centers.write_text("7\n")
        argv = [a.format(g=path, out=tmp_path / "local.tsv", centers=centers) for a in argv]
        assert main(argv + ["--vertex-count", "10"]) == 1
        assert "input label '7' is also the label of padding vertex 7" in \
            self.one_line_error(capsys)
        assert not (tmp_path / "local.tsv").exists()

    def test_largest_seed_accepted(self, capsys, c5_file):
        code, report = run_cli(capsys, "profile", c5_file, "--p", "0.5",
                               "--seed", str(2 ** 64 - 1), "--runs", "2")
        assert code == 0
        assert [run["seed"] for run in report["runs"]] == [2 ** 64 - 1, 0]

    @pytest.mark.parametrize("argv", [
        ["profile", "--p", "0"],
        ["profile", "--p", "1.5"],
        ["profile", "--p", "0.5", "--runs", "0"],
        ["sparsifier-check", "--p", "0", "--epsilon", "0.1", "--gamma", "1"],
        ["sparsifier-check", "--p", "0.5", "--epsilon", "-1", "--gamma", "1"],
        ["sparsifier-check", "--p", "0.5", "--epsilon", "0.1", "--gamma", "0"],
        ["polys", "--p", "2"],
        ["polys", "--p", "0.5", "--runs", "0"],
        ["ego", "--random", "-3"],
        ["oracle", "--ego", "--random", "-3"],
        ["profile", "--threads", "0"],
        ["ego", "--all", "--threads", "-3"],
    ])
    def test_bad_parameter_refused_before_graph_is_read(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "missing.txt")
        assert main([argv[0], missing, *argv[1:]]) == 1
        self.one_line_error(capsys)

    @pytest.mark.parametrize("param", [
        ["--epsilon", "1e-200", "--gamma", "1"],
        ["--epsilon", "0.1", "--gamma", "1e300"],
        ["--epsilon", "1e300", "--gamma", "1"],
    ])
    def test_bound_beyond_float_range(self, capsys, c5_file, param):
        assert main(["sparsifier-check", c5_file, "--p", "0.5"] + param) == 1
        assert "beyond float range" in self.one_line_error(capsys)

    def test_report_is_strict_json(self, capsys):
        args = argparse.Namespace(out=None)
        with pytest.raises(IntegrityError, match="not strict JSON"):
            _emit(args, {"ratio": float("nan")})
        assert capsys.readouterr().out == ""


class TestEgoCommand:
    def test_all_centers_embedded(self, capsys, k4_file):
        code, report = run_cli(capsys, "ego", k4_file, "--all")
        assert code == 0
        assert report["centers"] == 4
        assert report["egos"] == [["0", 0, 0, 0, 1], ["1", 0, 0, 0, 1],
                                  ["2", 0, 0, 0, 1], ["3", 0, 0, 0, 1]]

    def test_tsv_output(self, capsys, k4_file, tmp_path):
        out = tmp_path / "ego.tsv"
        code, report = run_cli(capsys, "ego", k4_file, "--all", "--tsv", str(out))
        assert code == 0
        assert report["table_path"] == str(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "center\tf0\tf1\tf2\tf3"
        assert lines[1] == "0\t0\t0\t0\t1"

    def test_centers_file(self, capsys, k4_file, tmp_path):
        centers = tmp_path / "centers.txt"
        centers.write_text("1\n3\n")
        code, report = run_cli(capsys, "ego", k4_file, "--centers", str(centers))
        assert code == 0
        assert [row[0] for row in report["egos"]] == ["1", "3"]

    def test_centers_file_line_ends(self, capsys, k4_file, tmp_path):
        """LF, CR LF and a lone CR each end a --centers line."""
        centers = tmp_path / "centers.txt"
        centers.write_bytes(b"0\r1\r2\r\n3\n")
        code, report = run_cli(capsys, "ego", k4_file, "--centers", str(centers))
        assert code == 0
        assert [row[0] for row in report["egos"]] == ["0", "1", "2", "3"]

    @pytest.mark.parametrize("padding", [
        [], pytest.param(["--vertex-count", "7"], id="padding-below-label")])
    def test_file_label_wins_over_padding_vertex_id(self, capsys, tmp_path, padding):
        # vertex "7" is joined to the triangle a b c; padding that would add an
        # isolated vertex 7 is refused (test_padding_label_clash_is_a_usage_error)
        path = tmp_path / "g.txt"
        path.write_text("a b\nb c\nc a\n7 a\n7 b\n7 c\n")
        centers = tmp_path / "centers.txt"
        centers.write_text("7\n")
        code, report = run_cli(capsys, "ego", str(path), "--centers", str(centers), *padding)
        assert code == 0
        assert report["egos"] == [["7", 0, 0, 0, 1]]

    def test_random_centers_deterministic(self, capsys, c5_file):
        _, r1 = run_cli(capsys, "ego", c5_file, "--random", "3", "--seed", "5")
        _, r2 = run_cli(capsys, "ego", c5_file, "--random", "3", "--seed", "5")
        assert r1["egos"] == r2["egos"]

    def test_serial_matches_parallel(self, capsys, k4_file):
        _, report = run_cli(capsys, "ego", k4_file, "--all")
        g = load_edge_list(k4_file)
        serial = ego_serial(g, range(g.vertex_count))
        assert report["egos"] == [[g.label_of(v), *serial[v].as_tuple()] for v in serial]

    def test_one_orientation_one_enumeration(self, capsys, c5_file, monkeypatch):
        from triprof import cli, ego, profiles

        orients, steps = [], []
        real_orient, real_steps = profiles.orient, profiles._triangle_steps

        def counted_orient(g, *rest):
            orients.append(g)
            return real_orient(g, *rest)

        def counted_steps(o, *rest, **kwargs):
            steps.append(o)
            return real_steps(o, *rest, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("ego must not scatter per-edge scalars")

        for module in (cli, profiles, ego):
            monkeypatch.setattr(module, "orient", counted_orient, raising=False)
            monkeypatch.setattr(module, "edge_triangle_counts", forbidden, raising=False)
            monkeypatch.setattr(module, "scatter_edge_scalars", forbidden, raising=False)
        monkeypatch.setattr(ego, "_triangle_steps", counted_steps)
        code, report = run_cli(capsys, "ego", c5_file, "--all", "--no-timing")
        assert code == 0
        assert len(orients) == len(steps) == 1
        assert [ph["name"] for ph in report["phases"]] == [
            "load", "ego:scatter-triangles-cliques", "ego:gather-pivots"]

    def test_table_bytes_pinned(self, capsys, tmp_path):
        path = tmp_path / "labelled.txt"
        path.write_text("hub a\nhub b\nhub c\nhub d\na b\nb c\nc a\nd caf\u00e9\nx y\n",
                        encoding="utf-8")
        egos, local = tmp_path / "ego.tsv", tmp_path / "local.tsv"
        assert main(["ego", str(path), "--all", "--tsv", str(egos)]) == 0
        assert main(["profile", str(path), "--local-tsv", str(local)]) == 0
        assert egos.read_bytes() == (
            "center\tf0\tf1\tf2\tf3\n"
            "hub\t0\t3\t0\t1\na\t0\t0\t0\t1\nb\t0\t0\t0\t1\nc\t0\t0\t0\t1\n"
            "d\t0\t0\t0\t0\ncaf\u00e9\t0\t0\t0\t0\nx\t0\t0\t0\t0\ny\t0\t0\t0\t0\n"
        ).encode()
        assert local.read_bytes() == (
            "vertex\tn0\tn1_e\tn1_d\tn2_e\tn2_c\tn3\n"
            "hub\t2\t11\t1\t1\t3\t3\n"
            "a\t4\t11\t2\t1\t0\t3\nb\t4\t11\t2\t1\t0\t3\nc\t4\t11\t2\t1\t0\t3\n"
            "d\t6\t7\t4\t3\t1\t0\ncaf\u00e9\t8\t5\t7\t1\t0\t0\n"
            "x\t7\t6\t8\t0\t0\t0\ny\t7\t6\t8\t0\t0\t0\n"
        ).encode()

    def test_needs_exactly_one_selector(self, capsys, k4_file):
        assert main(["ego", k4_file]) == 1
        assert main(["ego", k4_file, "--all", "--random", "2"]) == 1

    def test_unknown_center_label(self, capsys, k4_file, tmp_path):
        centers = tmp_path / "centers.txt"
        centers.write_text("zz\n")
        assert main(["ego", k4_file, "--centers", str(centers)]) == 1


class TestOracleCommand:
    def test_profile_cross_check(self, capsys, c5_file):
        code, report = run_cli(capsys, "oracle", c5_file)
        assert code == 0
        assert report["global"] == {"n0": 0, "n1": 5, "n2": 5, "n3": 0}
        assert report["method"] == "brute-force"

    def test_ego_and_four_cliques(self, capsys, k4_file):
        code, report = run_cli(capsys, "oracle", k4_file, "--ego", "--all",
                               "--four-cliques")
        assert code == 0
        assert report["egos"][0] == ["0", 0, 0, 0, 1]
        assert report["four_cliques"] == 1

    @pytest.mark.parametrize("argv, star, size, message", [
        ([], False, 257, "brute-force profile is capped at 256 vertices, got 257"),
        (["--four-cliques"], False, 129,
         "brute-force 4-clique count is capped at 128 vertices, got 129"),
        (["--ego", "--all"], True, 258, "brute-force ego is capped at degree 256, got 257"),
    ])
    def test_caps_are_usage_errors(self, capsys, tmp_path, argv, star, size, message):
        """One past each brute-force cap (a path, or a star whose center 0 has
        degree 257) exits 1 with one stderr line naming the cap."""
        graph = tmp_path / "g.txt"
        graph.write_text("".join(f"{0 if star else i - 1} {i}\n" for i in range(1, size)))
        assert main(["oracle", str(graph), *argv]) == 1
        assert capsys.readouterr().err == f"triprof: usage error: {message}\n"


class TestSparsifierCheckCommand:
    def test_c5_report(self, capsys, c5_file):
        code, report = run_cli(capsys, "sparsifier-check", c5_file,
                               "--p", "0.5", "--epsilon", "0.1", "--gamma", "1")
        assert code == 0
        assert report["feasible"] is False
        assert len(report["conditions"]) == 4
        assert report["extremes"] == {"alpha": 1, "beta": 2, "delta": 0}
        assert report["confidence"] == 1 - 1 / 5

    def test_epsilon_scaling_via_cli(self, capsys, c5_file):
        _, r1 = run_cli(capsys, "sparsifier-check", c5_file,
                        "--p", "0.5", "--epsilon", "0.1", "--gamma", "1")
        _, r2 = run_cli(capsys, "sparsifier-check", c5_file,
                        "--p", "0.5", "--epsilon", "0.2", "--gamma", "1")
        for c1, c2 in zip(r1["conditions"], r2["conditions"]):
            assert c2["rhs"] == c1["rhs"] / 4


class TestPolysCommand:
    def test_residuals_are_zero(self, capsys, c5_file):
        code, report = run_cli(capsys, "polys", c5_file, "--p", "0.5",
                               "--seed", "3", "--runs", "4")
        assert code == 0
        assert len(report["runs"]) == 4
        for run in report["runs"]:
            assert run["identity_residuals"] == [0, 0]

    def test_one_triangle_pass_for_every_run(self, capsys, c5_file, monkeypatch):
        from triprof import theory

        steps = []
        real_steps = theory._triangle_steps

        def counted_steps(o, *rest):
            steps.append(o)
            return real_steps(o, *rest)

        monkeypatch.setattr(theory, "_triangle_steps", counted_steps)
        code, report = run_cli(capsys, "polys", c5_file, "--p", "0.5", "--runs", "3",
                               "--no-timing")
        assert code == 0
        assert len(report["runs"]) == 3
        assert len(steps) == 1
        assert [ph["name"] for ph in report["phases"]] == ["load", "polys:triangle-pass"]

    def test_star_beyond_fifty_million_open_wedges(self, capsys, tmp_path):
        # C(10001, 2) = 50_005_000 open wedges, and not one is enumerated
        path = tmp_path / "star.txt"
        path.write_text("".join(f"0 {i}\n" for i in range(1, 10_002)))
        code, report = run_cli(capsys, "polys", str(path), "--p", "0.5", "--runs", "2")
        assert code == 0
        g = load_edge_list(str(path))
        for run in report["runs"]:
            mask = sample_mask(g, SampleParams(0.5, run["seed"]))
            prof, _ = compute_profile(subgraph_from_mask(g, mask))
            got = run["values"]
            assert (got["y0"], got["y1"], got["y2"], got["y3"]) == prof.as_tuple()


class TestDeterminism:
    def test_reports_identical_across_worker_counts(self, capsys, c5_file):
        reports = []
        for workers in ("1", "4", "16"):
            code = main(["profile", c5_file, "--p", "0.5", "--seed", "7",
                         "--runs", "3", "--compare-exact", "--no-timing",
                         "--threads", workers])
            assert code == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] == reports[2]

    def test_ego_tables_identical_across_modes_and_worker_counts(self, capsys, tmp_path):
        graph = tmp_path / "skewed.txt"
        g = chung_lu(150, 900, 1.7, seed=4)
        g.write_edge_list(graph)
        tables = []
        for workers in ("1", "2"):
            tsv = tmp_path / "ego.tsv"
            assert main(["ego", str(graph), "--all", "--no-timing", "--tsv", str(tsv),
                         "--threads", workers]) == 0
            tables.append(tsv.read_bytes())
        capsys.readouterr()
        loaded = load_edge_list(str(graph))
        serial = ego_serial(loaded, range(loaded.vertex_count))
        expected = "center\tf0\tf1\tf2\tf3\n" + "".join(
            "\t".join(map(str, [loaded.label_of(v), *serial[v].as_tuple()])) + "\n"
            for v in serial)
        assert len(tables[0].splitlines()) == 1 + int((g.degrees > 0).sum())
        assert tables[0] == tables[1] == expected.encode()

    @pytest.mark.parametrize("argv", [
        ["polys", "--p", "0.5", "--seed", "3", "--runs", "10"],
        ["sparsifier-check", "--p", "0.5", "--epsilon", "0.1", "--gamma", "1"]],
        ids=["polys", "sparsifier-check"])
    def test_pass_reports_identical_across_worker_counts(self, capsys, tmp_path, monkeypatch,
                                                         argv):
        """With steps of 7 pairs, two workers share many steps of the one
        triangle pass, and the reports match one worker's byte for byte."""
        from triprof import engine, profiles

        graph = tmp_path / "skewed.txt"
        chung_lu(200, 1200, 1.6, seed=5).write_edge_list(graph)
        monkeypatch.setattr(profiles, "PAIR_BUDGET", 7)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        reports = []
        for workers in ("1", "2"):
            assert main([argv[0], str(graph), *argv[1:], "--no-timing",
                         "--threads", workers]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["command"] == argv[0]

    @pytest.mark.parametrize("runs", ["1", "2", "3", "5"])
    def test_sampled_runs_identical_across_worker_counts(self, capsys, tmp_path, monkeypatch,
                                                         runs):
        """Fewer, as many and more runs than workers: the runs, their
        enumeration steps of 7 pairs and their phases give one report."""
        from triprof import engine, profiles

        graph = tmp_path / "skewed.txt"
        chung_lu(200, 1200, 1.6, seed=8).write_edge_list(graph)
        monkeypatch.setattr(profiles, "PAIR_BUDGET", 7)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 3)
        reports = []
        for workers in ("1", "2", "3"):
            assert main(["profile", str(graph), "--p", "0.4", "--seed", "11", "--runs", runs,
                         "--compare-exact", "--no-timing", "--threads", workers]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] == reports[2]
        assert len(json.loads(reports[0])["runs"]) == int(runs)

    def test_one_sampled_run_splits_its_count(self, capsys, c5_file, monkeypatch):
        """With one run, the run's own count still reaches sum_steps on an
        engine of every worker, after the load's one-piece pass."""
        from triprof import engine
        from triprof.engine import Engine

        calls, real = [], Engine.sum_steps

        def spy(self, steps, shapes, add_step):
            calls.append((self.workers, list(shapes)))
            return real(self, steps, shapes, add_step)

        monkeypatch.setattr(Engine, "sum_steps", spy)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        assert main(["profile", c5_file, "--p", "0.9", "--runs", "1", "--threads", "2"]) == 0
        capsys.readouterr()
        assert calls == [(2, []), (2, []), (2, [()])]

    def test_nested_runs_start_no_more_workers_than_cpus(self, capsys, tmp_path, monkeypatch):
        """Eight workers asked for on two CPUs: the pass of runs starts one
        thread for the second run, and each run counts on one worker."""
        from triprof import engine, profiles

        class CountingThread(threading.Thread):
            started = 0

            def start(self):
                CountingThread.started += 1
                super().start()

        graph = tmp_path / "skewed.txt"
        chung_lu(200, 1200, 1.6, seed=5).write_edge_list(graph)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        monkeypatch.setattr(profiles, "PAIR_BUDGET", 7)
        monkeypatch.setattr(threading, "Thread", CountingThread)
        assert main(["profile", str(graph), "--p", "0.9", "--runs", "2", "--threads", "8"]) == 0
        assert len(json.loads(capsys.readouterr().out)["runs"]) == 2
        assert CountingThread.started == 1

    def test_run_failing_on_a_worker_thread_exits_2(self, capsys, c5_file, monkeypatch):
        from triprof import engine, sampling

        real, threads = sampling.estimate_profile, []

        def failing(g, params, *args):
            if params.seed == 8:
                threads.append(threading.current_thread())
                raise IntegrityError("run 8 went wrong")
            return real(g, params, *args)

        monkeypatch.setattr(sampling, "estimate_profile", failing)
        monkeypatch.setattr(engine, "usable_cpus", lambda: 2)
        assert main(["profile", c5_file, "--p", "0.5", "--seed", "7", "--runs", "2",
                     "--threads", "2"]) == 2
        captured = capsys.readouterr()
        assert threads and threads[0] is not threading.main_thread()
        assert captured.err == "triprof: run 8 went wrong\n"
        assert captured.out == ""

    def test_ego_reports_identical_across_worker_counts(self, capsys, k4_file):
        reports = []
        for workers in ("1", "4"):
            code = main(["ego", k4_file, "--all", "--no-timing",
                         "--threads", workers])
            assert code == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_digit_and_general_label_keys_give_the_same_reports(self, capsys, tmp_path,
                                                                monkeypatch):
        """Decimal labels take the decimal keys and their 'v'-prefixed copies
        the general keys; both number the vertices alike, so the reports
        and tables match once the path and the prefix are dropped."""
        from triprof import graph

        g = chung_lu(300, 1500, 1.8, seed=6)
        rng = np.random.default_rng(6)
        names = [str(x) for x in rng.permutation(10 ** 6)[:g.vertex_count]]
        names[:3] = ["7", "07", "0000007"]  # one value, three labels
        flip = rng.random(g.edge_count) < 0.5
        ends = np.where(flip[:, None], np.stack([g.edge_w, g.edge_u], 1),
                        np.stack([g.edge_u, g.edge_w], 1))[rng.permutation(g.edge_count)]
        taken, real = [], graph._decimal_keys

        def spy(*args):
            keys = real(*args)
            taken.append(keys is not None)
            return keys

        monkeypatch.setattr(graph, "_decimal_keys", spy)
        outputs = []
        for prefix in ("", "v"):
            path = tmp_path / f"g{prefix}.txt"
            path.write_text("".join(f"{prefix}{names[a]} {prefix}{names[b]}\n"
                                    for a, b in ends.tolist()))
            tsv = tmp_path / f"ego{prefix}.tsv"
            reports = []
            for argv in (["profile"], ["ego", "--random", "50", "--tsv", str(tsv)]):
                code, report = run_cli(capsys, argv[0], str(path), *argv[1:], "--no-timing")
                assert code == 0
                del report["graph"]["path"]
                report.pop("table_path", None)
                reports.append(report)
            rows = tsv.read_text().splitlines()
            outputs.append((reports, rows[0], [row[len(prefix):] for row in rows[1:]]))
        assert taken == [True, True, False, False]
        assert outputs[0] == outputs[1]
        assert len(outputs[0][2]) == 50


class TestLoadsOnlyWhatItReads:
    """No command builds the CSR, and only the commands that write labels
    decode them."""

    TEXT = "hub a\nhub b\nhub c\nhub d\na b\nb c\nc a\nd caf\u00e9\nx y\n"

    @pytest.fixture
    def labelled(self, tmp_path):
        path = tmp_path / "labelled.txt"
        path.write_text(self.TEXT, encoding="utf-8")
        return str(path)

    @pytest.fixture
    def loaded(self, monkeypatch):
        """The graphs the CLI loads, in order."""
        from triprof import cli

        graphs = []

        def load(*args, **kwargs):
            graphs.append(load_edge_list(*args, **kwargs))
            return graphs[-1]

        monkeypatch.setattr(cli, "load_edge_list", load)
        return graphs

    @pytest.mark.parametrize("argv", [
        ["profile"], ["profile", "--p", "0.3", "--runs", "3"],
        ["profile", "--p", "0.3", "--runs", "3", "--compare-exact"],
        ["profile", "--local-tsv", "{tmp}/local.tsv"],
        ["ego", "--random", "4", "--tsv", "{tmp}/ego.tsv"], ["ego", "--all"],
        ["polys", "--p", "0.5", "--runs", "3"],
        ["sparsifier-check", "--p", "0.5", "--epsilon", "0.1", "--gamma", "1"],
    ], ids=lambda argv: " ".join(argv))
    def test_no_command_builds_the_csr(self, capsys, labelled, tmp_path, monkeypatch,
                                       argv):
        from triprof.graph import UndirectedGraph

        def forbidden(self):
            raise AssertionError("a command built the CSR")

        monkeypatch.setattr(UndirectedGraph, "_csr_arrays", forbidden)
        code, _ = run_cli(capsys, argv[0], labelled,
                          *[a.format(tmp=tmp_path) for a in argv[1:]], "--out",
                          str(tmp_path / "report.json"))
        assert code == 0

    @pytest.mark.parametrize("argv, decoded", [
        (["profile"], False), (["profile", "--p", "0.3", "--runs", "3"], False),
        (["polys", "--p", "0.5", "--runs", "3"], False),
        (["sparsifier-check", "--p", "0.5", "--epsilon", "0.1", "--gamma", "1"], False),
        (["profile", "--local-tsv", "{tmp}/local.tsv"], True), (["ego", "--all"], True),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_labels_decoded_only_when_written(self, capsys, labelled, tmp_path, loaded,
                                              argv, decoded):
        code, _ = run_cli(capsys, argv[0], labelled,
                          *[a.format(tmp=tmp_path) for a in argv[1:]], "--no-timing")
        assert code == 0
        (g,) = loaded
        assert isinstance(g._labels, list) == decoded
        assert g.labels == ["hub", "a", "b", "c", "d", "caf\u00e9", "x", "y"]


class TestAccuracyRatio:
    def test_equal_profiles(self):
        exact = ProfileVector(1, 2, 3, 4)
        ratios, warnings = accuracy_ratio(exact, exact)
        assert ratios == [1.0, 1.0, 1.0, 1.0]
        assert warnings == []

    def test_double_estimate(self):
        ratios, _ = accuracy_ratio(ProfileVector(0, 0, 0, 4),
                                   ProfileVector(1, 1, 1, 8.0))
        assert ratios[3] == 0.5

    def test_zero_estimate_yields_null(self):
        ratios, warnings = accuracy_ratio(ProfileVector(1, 2, 3, 4),
                                          ProfileVector(1.0, 0.0, 3.0, 4.0))
        assert ratios[1] is None
        assert any("n1" in w for w in warnings)


def test_module_entry_point(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    proc = subprocess.run([sys.executable, "-m", "triprof", "profile", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["global"]["n3"] == 4


def test_no_command_imports_scipy(tmp_path):
    """Every command the CLI runs on a graph works where scipy cannot be imported."""
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    argvs = [[a.format(g=path) for a in argv] for argv in COMMAND_ARGVS]
    script = ("import sys; sys.modules['scipy'] = None\n"
              "from triprof.cli import main\n"
              f"print([main(argv + ['--out', {str(tmp_path / 'r.json')!r}]) "
              f"for argv in {argvs!r}])")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(argvs), proc.stderr


@pytest.mark.parametrize("argv", COMMAND_ARGVS + [["oracle", "{g}"]],
                         ids=lambda argv: " ".join(argv[:1] + argv[2:]))
@pytest.mark.parametrize("no_timing", [False, True], ids=["timed", "no-timing"])
def test_report_skeleton(capsys, k4_file, argv, no_timing):
    """Every report has the same head and accounting, with the load first
    among the phases; the worker count is recorded once, not per phase."""
    extra = ["--threads", "3"] + (["--no-timing"] if no_timing else [])
    code, report = run_cli(capsys, *[a.format(g=k4_file) for a in argv], *extra)
    assert code == 0
    assert report["command"] == argv[0]
    assert report["graph"] == {"path": k4_file, "vertices": 4, "edges": 6}
    assert report["workers"] == (None if no_timing else 3)
    assert (report["elapsed_seconds"] is None) == no_timing
    load = report["phases"][0]
    assert (load["name"], load["bytes_scattered"], load["bytes_gathered"]) == ("load", 0, 0)
    for phase in report["phases"]:
        assert "workers" not in phase
        assert (phase["seconds"] is None) == no_timing
