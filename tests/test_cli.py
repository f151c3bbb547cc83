from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cogmap.cli
import cogmap.eigen
import cogmap.impulse
from cogmap import (
    CognitiveMap,
    EigenConvergenceError,
    FIXTURE_NAMES,
    InfluenceReport,
    ValidationError,
    fixture_path,
    general_influence,
    influence_matrix,
    load_fixture,
    load_map,
    save_map,
)
from cogmap.cli import main


@pytest.fixture()
def run(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def invoke(*argv: str):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def run_subprocess(*argv: str, env_extra: dict | None = None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "cogmap", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


SANITATION = str(fixture_path("sanitation"))
CITY_WASTE = str(fixture_path("city_waste"))
FOUR_STABLE = str(fixture_path("four_stable"))
FOUR_UNSTABLE = str(fixture_path("four_unstable"))
FOUR_HEAVY = str(fixture_path("four_heavy"))


class TestAnalyze:
    def test_table_reproduces_recorded_ranking(self, run):
        code, out, _ = run("analyze", SANITATION)
        assert code == 0
        ranks = [line.split()[1] for line in out.splitlines() if line.strip()[:1].isdigit()]
        # ranking column: 5, 3, 1, 4, 7, 6, 2
        assert ranks[-7:] == ["5", "3", "1", "4", "7", "6", "2"]

    def test_city_waste_ranking(self, run):
        code, out, _ = run("analyze", CITY_WASTE)
        assert code == 0
        ranks = [line.split()[1] for line in out.splitlines() if line.strip()[:1].isdigit()]
        assert ranks[-7:] == ["5", "3", "6", "2", "4", "7", "1"]

    def test_json_round_trips(self, run):
        code, out, _ = run("analyze", FOUR_STABLE, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "accumulated"
        assert doc["ranking"] == [3, 2, 4, 1]
        Z = influence_matrix(load_fixture("four_stable"))
        assert np.array_equal(np.array(doc["influence"]), Z)

    def test_csv_reloads_to_same_values(self, run, tmp_path):
        labelled = tmp_path / "labelled.json"
        save_map(LABELLED, labelled, "json")
        for path in [*(fixture_path(name) for name in FIXTURE_NAMES), labelled]:
            code, out, err = run("analyze", str(path), "--format", "csv")
            assert (code, err) == (0, "")
            cmap = load_map(path, path.suffix[1:])
            reloaded = load_map(out, "csv")
            assert np.array_equal(reloaded.weights, influence_matrix(cmap)), path.name
            assert reloaded.labels == cmap.labels

    def test_map_saved_to_a_json_path_reads_back(self, run, tmp_path):
        # save_map picks the format from the suffix, as load_map and the CLI do
        path = tmp_path / "m.json"
        save_map(LABELLED, path)
        assert json.loads(path.read_text())["labels"] == list(LABELLED.labels)
        assert load_map(path) == LABELLED
        code, out, err = run("analyze", str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["influence"] == influence_matrix(LABELLED).tolist()

    @pytest.mark.parametrize(
        "labels",
        [("1", "2"), ("a,b", "c"), (" a", "b"), ("",)],
        ids=["numbers", "comma", "space", "empty"],
    )
    def test_csv_refuses_labels_it_cannot_read_back(self, run, tmp_path, labels):
        path = tmp_path / "labelled.json"
        save_map(CognitiveMap(np.zeros((len(labels), len(labels))), labels), path, "json")
        code, out, err = run("analyze", str(path), "--format", "csv")
        assert (code, out) == (2, "")
        assert err == (
            f"validation error: label {labels[0]!r} would not read back from CSV; "
            "save the map as JSON\n"
        )
        assert run("analyze", str(path), "--format", "json")[0] == 0

    def test_empty_file_is_validation_error(self, run, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run("analyze", str(empty))
        assert code == 2
        assert "validation error" in err

    def test_non_utf8_file_is_validation_error(self, run, tmp_path):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"0,1\n1,\xe9\n")
        code, out, err = run("analyze", str(latin1))
        assert (code, out) == (2, "")
        assert err == "validation error: not UTF-8 text: byte 0xe9 at offset 6\n"

    def test_missing_file_is_validation_error(self, run):
        code, _, err = run("analyze", "/nonexistent/map.csv")
        assert code == 2

    def test_overflowing_weights_are_exit_3(self, run, tmp_path):
        cycle = tmp_path / "cycle.csv"
        cycle.write_text("0,1e308,0\n0,0,1e308\n1e308,0,0\n")
        code, out, err = run("analyze", str(cycle), "--format", "json")
        assert (code, out) == (3, "")
        assert err == (
            "error: influence of vertex 1 on vertex 3 is inf: weights this large "
            "overflow the accumulation (largest |weight| 1e+308)\n"
        )

    def test_budget_exceeded_is_exit_3(self, run):
        code, _, err = run("analyze", FOUR_STABLE, "--max-paths", "1")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize(
        "weights, message",
        [
            ("[" * 100_000 + "]" * 100_000, "invalid JSON: "),
            ("[[0, 1" + "0" * 5000 + "], [1, 0]]", "non-finite cell at row 1, column 2: inf\n"),
            ("[[0, 1" + "0" * 400 + "], [1, 0]]", "non-finite cell at row 1, column 2: inf\n"),
        ],
        ids=["nested-100000-deep", "5001-digit-integer", "401-digit-integer"],
    )
    def test_hostile_json_is_validation_error(self, tmp_path, weights, message):
        hostile = tmp_path / "hostile.json"
        hostile.write_text('{"weights": ' + weights + "}")
        code, out, err = run_subprocess("analyze", str(hostile))
        assert (code, out) == (2, "")
        assert err.startswith("validation error: " + message)
        assert "Traceback" not in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("tall.csv", "0\n" * 200_000),
            ("tall.json", '{"weights": [' + ", ".join(["[0]"] * 200_000) + "]}"),
        ],
        ids=["csv", "json"],
    )
    def test_tall_map_is_validation_error(self, run, tmp_path, name, text):
        # an n x n array for n = 200 000 would need 298 GiB; the first short
        # row must be reported before anything that size is allocated
        tall = tmp_path / name
        tall.write_text(text)
        code, out, err = run("analyze", str(tall))
        assert (code, out) == (2, "")
        assert err.startswith(
            "validation error: matrix must be square: row 1 has 1 values, expected 200000"
        )

    def test_threads_do_not_change_output(self, run):
        _, out1, _ = run("analyze", CITY_WASTE, "--threads", "1", "--format", "json")
        _, out4, _ = run("analyze", CITY_WASTE, "--threads", "4", "--format", "json")
        assert out1 == out4

    def test_huge_values_print_in_scientific_notation(self, run, tmp_path):
        chain = tmp_path / "chain.csv"
        chain.write_text("0,0,0,0\n0,0,1e200,0\n0,0,0,1e200\n0,0,0,0\n")
        code, out, err = run("analyze", str(chain))
        assert (code, err) == (0, "")
        assert max(len(line) for line in out.splitlines()) <= 120
        assert "    1  2                            1.865e+200\n" in out
        # JSON keeps full precision; its bytes are pinned like PINNED_OUTPUT
        code, out, _ = run("analyze", str(chain), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "314c1ed382da7113"

    @pytest.mark.parametrize("ext", ["csv", "json"])
    def test_bom_file_output_is_byte_identical(self, run, tmp_path, ext):
        plain = fixture_path("four_stable", ext)
        bom = tmp_path / f"bom.{ext}"
        bom.write_text(plain.read_text(encoding="utf-8"), encoding="utf-8-sig")
        code_plain, out_plain, _ = run("analyze", str(plain), "--format", "json")
        code_bom, out_bom, err = run("analyze", str(bom), "--format", "json")
        assert (code_plain, code_bom, err) == (0, 0, "")
        assert out_bom == out_plain

    def test_decimal_comma_input(self, run, tmp_path):
        comma = tmp_path / "m.csv"
        comma.write_text("0;0,391\n1;0\n")
        code, out, _ = run("analyze", str(comma), "--format", "json", "--decimal-comma")
        assert code == 0
        assert json.loads(out)["influence"][0][1] == 0.391


class TestUsageErrors:
    def test_unknown_command(self, run):
        code, _, err = run("frobnicate", FOUR_STABLE)
        assert code == 1

    def test_unknown_flag(self, run):
        code, _, _ = run("analyze", FOUR_STABLE, "--bogus")
        assert code == 1

    def test_paths_same_endpoints(self, run):
        code, _, err = run("paths", FOUR_STABLE, "--from", "2", "--to", "2")
        assert code == 1
        assert "differ" in err

    def test_out_of_range_vertex(self, run):
        code, _, err = run("paths", FOUR_STABLE, "--from", "1", "--to", "9")
        assert code == 1

    def test_bad_eta(self, run):
        code, _, _ = run("scale-check", SANITATION, "--eta", "-2")
        assert code == 1

    def test_bad_threads(self, run):
        code, _, _ = run("analyze", FOUR_STABLE, "--threads", "0")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", FOUR_STABLE, "--max-len", "0"],
            ["analyze", FOUR_STABLE, "--max-paths", "0"],
            ["paths", FOUR_STABLE, "--from", "1", "--to", "4", "--max-len", "-3"],
            ["kosko", FOUR_STABLE, "--from", "1", "--to", "2", "--max-paths", "-1"],
            ["impulse", FOUR_STABLE, "--max-steps", "0"],
            ["impulse", FOUR_STABLE, "--scores", "--max-steps", "0"],
            ["compare", FOUR_STABLE, "--max-steps", "0"],
            ["compare", FOUR_STABLE, "--eps", "0"],
            ["compare", FOUR_STABLE, "--eps", "nan"],
            ["impulse", FOUR_STABLE, "--eps", "nan"],
            ["scale-check", FOUR_STABLE, "--eta", "inf"],
        ],
        ids=lambda argv: " ".join(a for a in argv if a != FOUR_STABLE),
    )
    def test_out_of_range_option_is_usage_error(self, run, argv):
        code, out, err = run(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: Invalid value for '{argv[-2]}'")


class TestVersion:
    def test_version_without_installed_metadata(self, run):
        code, out, err = run("--version")
        assert (code, out, err) == (0, "cogmap, version 0.1.0\n", "")


# Leading hex digits of the SHA-256 of stdout, recorded before the renderers
# were called directly.  Table output rounds to 3 decimals and paths/kosko csv
# and json print weights read from the file, so no BLAS or LAPACK difference
# between machines moves them.
PINNED_OUTPUT = {
    "four_stable table analyze": "7f85d42ce1a5f79d",
    "four_stable table compare": "500d1ad813eeaea2",
    "four_stable table scale-check --eta 2 --eta 0.5": "b853dbca4754210b",
    "four_stable table stability": "c518a1899284072b",
    "four_stable table impulse --scores": "f2169326bbf951ba",
    "four_stable table impulse --from 2": "ae25926332099b5d",
    "four_stable table paths --from 1 --to 4": "2a34ae3fe8ccc96e",
    "four_stable csv paths --from 1 --to 4": "c621f63b730368e7",
    "four_stable json paths --from 1 --to 4": "0d3eee18ae347fd4",
    "four_stable table kosko --from 1 --to 4": "0241039f3049b3e2",
    "four_stable csv kosko --from 1 --to 4": "9fefe867c521840a",
    "four_stable json kosko --from 1 --to 4": "acda9a34ff463cb5",
    "sanitation table analyze": "aa9e976058592e55",
    "sanitation table compare": "fe2bad3c6d463ba1",
    "sanitation table scale-check --eta 2 --eta 0.5": "39dc9f4ad826b4b2",
    "sanitation table stability": "854c87a0da3979a4",
    "sanitation table impulse --scores": "f472485141204cab",
    "sanitation table impulse --from 2": "462c69b88c0e962c",
    "sanitation table paths --from 1 --to 4": "48c2cfc438cb3b42",
    "sanitation csv paths --from 1 --to 4": "e667603fbea2df51",
    "sanitation json paths --from 1 --to 4": "58f7af6c8e8e388a",
    "sanitation table kosko --from 1 --to 4": "f5ecbc56fa4b97fa",
    "sanitation csv kosko --from 1 --to 4": "951c84573e25315f",
    "sanitation json kosko --from 1 --to 4": "3cdea298e3e00587",
}


@pytest.mark.parametrize("run_id", PINNED_OUTPUT)
def test_rendered_output_is_pinned(run, run_id):
    name, fmt, command, *args = run_id.split()
    code, out, err = run(command, str(fixture_path(name)), *args, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == PINNED_OUTPUT[run_id]


@pytest.mark.parametrize(
    "argv, pair",
    [
        (("paths", FOUR_STABLE, "--from", "1", "--to", "4"), "from vertex 1 to vertex 4"),
        (("analyze", SANITATION), "from vertex 1 to vertex 6"),
    ],
    ids=["paths", "analyze"],
)
def test_budget_error_numbers_vertices_from_1(run, argv, pair):
    code, out, err = run(*argv, "--max-paths", "1")
    assert (code, out) == (3, "")
    assert err == (
        f"error: path enumeration {pair} exceeded the budget of 1 paths "
        "(2 found before aborting)\n"
    )


class TestPathsCommand:
    def test_one_path_per_line_with_weights(self, run):
        code, out, _ = run("paths", FOUR_STABLE, "--from", "1", "--to", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1 -> 2 -> 4  [0.391, 1.000]"
        assert lines[1] == "1 -> 3 -> 4  [-0.121, -1.000]"

    def test_no_paths_prints_nothing(self, run):
        code, out, _ = run("paths", FOUR_HEAVY, "--from", "1", "--to", "2")
        assert code == 0
        assert out == ""

    def test_json_count(self, run):
        code, out, _ = run("paths", CITY_WASTE, "--from", "2", "--to", "6", "--format", "json")
        doc = json.loads(out)
        assert doc["count"] == len(doc["paths"]) > 0
        for entry in doc["paths"]:
            assert entry["vertices"][0] == 2 and entry["vertices"][-1] == 6

    def test_csv_with_no_paths_prints_nothing(self, run):
        code, out, err = run("paths", FOUR_HEAVY, "--from", "1", "--to", "2", "--format", "csv")
        assert (code, out, err) == (0, "", "")

    def test_csv_rows_are_vertex_sequences(self, run):
        code, out, _ = run("paths", FOUR_STABLE, "--from", "1", "--to", "4", "--format", "csv")
        assert out.splitlines() == ["1,2,4", "1,3,4"]

    def test_chain_longer_than_the_recursion_limit(self, run, tmp_path):
        n = 1500
        w = np.zeros((n, n))
        w[np.arange(n - 1), np.arange(1, n)] = 0.5
        chain = tmp_path / "chain.csv"
        save_map(CognitiveMap(w), chain)
        code, out, err = run("paths", str(chain), "--from", "1", "--to", str(n), "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines() == [",".join(str(v) for v in range(1, n + 1))]


class TestKoskoCommand:
    def test_table(self, run):
        code, out, _ = run("kosko", FOUR_STABLE, "--from", "1", "--to", "4")
        assert code == 0
        assert "1 -> 2 -> 4  weakest link 0.391" in out
        assert "total influence (strongest path): 0.391" in out

    def test_unreachable(self, run):
        code, out, _ = run("kosko", FOUR_HEAVY, "--from", "1", "--to", "2")
        assert code == 0
        assert "none" in out

    def test_abs_weights_flag(self, run):
        code, out, _ = run(
            "kosko", FOUR_STABLE, "--from", "1", "--to", "4", "--abs-weights", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["abs_weights"] is True
        assert doc["total"] == 0.391


class TestStabilityCommand:
    def test_stable_map(self, run):
        code, out, _ = run("stability", FOUR_STABLE)
        assert code == 0
        assert "stable: yes" in out
        assert "0.800, 0.800, 0.800" in out

    def test_unstable_map(self, run):
        code, out, _ = run("stability", FOUR_HEAVY)
        assert code == 0
        assert "stable: no" in out

    def test_json_payload(self, run):
        code, out, _ = run("stability", SANITATION, "--format", "json")
        doc = json.loads(out)
        assert doc["stable"] is True
        assert len(doc["magnitudes"]) == 5
        assert doc["magnitudes"][0] == pytest.approx(0.6861, abs=1e-3)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_each_magnitude_is_the_verdicts(self, run, name):
        code, out, _ = run("stability", str(fixture_path(name)), "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert [e["magnitude"] for e in doc["eigenvalues"]] == doc["magnitudes"]

    def test_csv_eigenvalue_rows(self, run):
        code, out, _ = run("stability", FOUR_STABLE, "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "re,im,magnitude"
        assert len(lines) == 4

    def test_eigensolver_failure_is_exit_3(self, run, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cogmap.eigen.np.linalg, "eigvals", no_convergence)
        with pytest.raises(EigenConvergenceError):
            cogmap.eigen.eigenvalues(np.eye(3))
        code, out, err = run("stability", FOUR_STABLE)
        assert code == 3
        assert out == ""
        assert err.startswith("error: eigenvalue computation did not converge for a 4x4 matrix")


class TestImpulseCommand:
    def test_convergence_summary(self, run):
        code, out, _ = run("impulse", FOUR_STABLE, "--from", "1")
        assert code == 0
        assert "converged after 61 steps" in out

    def test_trace_csv(self, run):
        code, out, _ = run("impulse", FOUR_STABLE, "--from", "1", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "t,v_1,v_2,v_3,v_4,p_1,p_2,p_3,p_4"
        assert lines[1].startswith("0,")
        first = lines[1].split(",")
        assert [float(x) for x in first[5:]] == [1.0, 0.0, 0.0, 0.0]
        assert len(lines) == 63  # header + t = 0..61

    def test_table_builds_no_trace(self, run, tmp_path):
        # a 50-cycle never converges; only JSON and CSV print its trace, which
        # as Python lists takes four times the memory of the arrays
        n = 50
        cycle = CognitiveMap(np.roll(np.eye(n), 1, axis=1))
        path = tmp_path / "cycle.csv"
        save_map(cycle, path)
        tracemalloc.start()
        try:
            cogmap.simulate(cycle, np.eye(n)[0], max_steps=4000)
            simulated = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            code, out, _ = run("impulse", str(path), "--max-steps", "4000")
            printed = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "did not converge within 4000 steps" in out
        assert printed < 1.25 * simulated

    def test_non_convergence_reported(self, run):
        code, out, _ = run("impulse", FOUR_UNSTABLE, "--from", "1", "--max-steps", "50")
        assert code == 0
        assert "did not converge within 50 steps" in out

    def test_scores_on_stable_map(self, run):
        code, out, _ = run("impulse", FOUR_STABLE, "--scores", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ranking"] == [3, 2, 4, 1]

    def test_scores_on_unstable_map_exit_4(self, run):
        code, _, err = run("impulse", FOUR_UNSTABLE, "--scores")
        assert code == 4
        assert "not applicable" in err


class TestCompareCommand:
    def test_stable_map_agreement(self, run):
        code, out, _ = run("compare", FOUR_STABLE)
        assert code == 0
        assert "stability: stable" in out
        assert "rank the vertices identically" in out

    def test_unstable_map_marks_impulse_not_applicable(self, run):
        code, out, _ = run("compare", FOUR_UNSTABLE)
        assert code == 0
        assert "(unstable: not applicable)" in out
        ranks = [line.split()[1] for line in out.splitlines() if line.strip()[:1].isdigit()]
        assert ranks[:4] == ["1", "4", "3", "2"]

    def test_sanitation_discrepancy_noted(self, run):
        code, out, _ = run("compare", SANITATION)
        assert code == 0
        assert "rankings differ" in out

    def test_stable_map_that_does_not_converge_is_exit_4(self, run):
        code, out, err = run("compare", FOUR_STABLE, "--max-steps", "3")
        assert (code, out) == (4, "")
        assert "despite a stable verdict" in err

    @pytest.mark.parametrize("name", ["four_stable", "sanitation"])
    def test_one_eigensolve_per_run(self, run, monkeypatch, name):
        calls = []

        def counting(a):
            calls.append(a)
            return cogmap.eigen.eigenvalues(a)

        monkeypatch.setattr(cogmap.impulse, "eigenvalues", counting)
        code, _, _ = run("compare", str(fixture_path(name)))
        assert (code, len(calls)) == (0, 1)

    def test_json_payload(self, run):
        code, out, _ = run("compare", FOUR_STABLE, "--format", "json")
        doc = json.loads(out)
        assert doc["rankings_agree"] is True
        assert doc["accumulated"]["ranking"] == doc["impulse"]["ranking"] == [3, 2, 4, 1]


# a nilpotent chain is stable, but its impulses overflow at step 2 while
# every accumulated influence stays below twice the largest weight
HUGE_CHAIN = "0,1e200,0,0\n0,0,1e200,0\n0,0,0,1e200\n0,0,0,0\n"
DIVERGED = "warning: impulse simulation from vertex 1 diverged: non-finite value at step 2\n"


class TestCompareDiverged:
    @pytest.fixture()
    def chain(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text(HUGE_CHAIN)
        return str(path)

    def test_table_marks_impulse_diverged(self, run, chain):
        code, out, err = run("compare", chain)
        assert (code, err) == (0, DIVERGED)
        assert out == (
            "stability: stable\n"
            " rank  accumulated                  impulse\n"
            "    1  1 [1.976e+200]               (diverged)\n"
            "    2  2 [1.865e+200]\n"
            "    3  3 [1.000e+200]\n"
            "    4  4 [0.000]\n"
            "ranking agreement: impulse method diverged\n"
        )

    def test_json_keeps_the_keys(self, run, chain):
        code, out, err = run("compare", chain, "--format", "json")
        assert (code, err) == (0, DIVERGED)
        doc = json.loads(out)
        assert (doc["stable"], doc["impulse"], doc["rankings_agree"]) == (True, None, None)
        acc = general_influence(influence_matrix(load_map(HUGE_CHAIN)))
        assert doc["accumulated"] == {"scores": list(acc.scores), "ranking": [1, 2, 3, 4]}

    def test_csv_leaves_impulse_cells_empty(self, run, chain):
        code, out, err = run("compare", chain, "--format", "csv")
        assert (code, err) == (0, DIVERGED)
        rows = out.splitlines()
        assert rows[0] == "rank,accumulated_vertex,accumulated_score,impulse_vertex,impulse_score"
        assert [row.split(",")[1] for row in rows[1:]] == ["1", "2", "3", "4"]
        assert all(row.endswith(",,") for row in rows[1:])

    def test_impulse_scores_still_exit_3(self, run, chain):
        code, out, err = run("impulse", chain, "--scores")
        assert (code, out) == (3, "")
        assert err == DIVERGED.replace("warning", "error")


LABELLED = CognitiveMap(
    [[0, 0.5, -0.2, 0], [0, 0, 0, 0.7], [0.1, 0, 0, 0.3], [0, -0.4, 0, 0]],
    ("a", "b b", "c", "d"),
)


def _bits(value):
    """``value`` with every float replaced by its hex form, so -0.0 != 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("labelled", [True, False], ids=["labelled", "unlabelled"])
def test_json_carries_the_api_values_bit_for_bit(run, tmp_path, labelled):
    cmap = LABELLED if labelled else CognitiveMap(LABELLED.weights)
    path = tmp_path / "map.json"
    save_map(cmap, path, "json")

    def doc(*argv):
        code, out, _ = run(argv[0], str(path), *argv[1:], "--format", "json")
        assert code == 0
        return _bits(json.loads(out))

    labels = list(cmap.labels) if labelled else None
    Z = influence_matrix(cmap)
    acc = general_influence(Z)
    imp = cogmap.impulse_general_influence(cmap)
    verdict = cogmap.stability_check(cmap)
    analyze = doc("analyze")
    assert analyze["labels"] == labels
    assert analyze["influence"] == _bits(Z.tolist())
    assert [analyze["scores"], analyze["ranking"]] == _bits((acc.scores, acc.ranking))
    compare = doc("compare")
    assert compare["labels"] == labels
    assert compare["accumulated"] == _bits({"scores": acc.scores, "ranking": acc.ranking})
    assert compare["impulse"] == _bits({"scores": imp.scores, "ranking": imp.ranking})
    scores = doc("impulse", "--scores")
    assert scores["labels"] == labels
    assert [scores["scores"], scores["ranking"]] == _bits((imp.scores, imp.ranking))
    check = doc("scale-check", "--eta", "3")
    scaled = general_influence(influence_matrix(cogmap.scale_map(cmap, 3.0)))
    assert check["labels"] == labels
    assert [check["base_scores"], check["base_ranking"]] == _bits((acc.scores, acc.ranking))
    assert check["checks"][0]["scores"] == _bits(scaled.scores)
    stability = doc("stability")
    assert stability["magnitudes"] == _bits(verdict.magnitudes)
    assert stability["spectral_radius"] == _bits(verdict.spectral_radius)
    assert [(e["re"], e["im"]) for e in stability["eigenvalues"]] == [
        (e.real.hex(), e.imag.hex()) for e in verdict.eigenvalues
    ]
    pathset = cogmap.enumerate_with_budget(cmap, 0, 3)
    assert doc("paths", "--from", "1", "--to", "4")["paths"] == [
        {"vertices": [v + 1 for v in p], "weights": _bits(pathset.edge_weights(cmap, p))}
        for p in pathset
    ]
    kosko = cogmap.total_influence(cmap, 0, 3)
    assert doc("kosko", "--from", "1", "--to", "4")["paths"] == [
        {"vertices": [v + 1 for v in p], "weakest": weakest.hex()}
        for p, weakest in kosko.per_path.items()
    ]


@pytest.mark.parametrize("name", ["four_stable", "sanitation"])
def test_csv_carries_the_api_values(run, name):
    """Each CSV renderer prints the API's values, exactly, with repr."""
    cmap = load_fixture(name)
    path = str(fixture_path(name))

    def csv(*argv):
        code, out, err = run(argv[0], path, *argv[1:], "--format", "csv")
        assert (code, err) == (0, "")
        return out

    acc = general_influence(influence_matrix(cmap))
    imp = cogmap.impulse_general_influence(cmap)
    scaled = [general_influence(influence_matrix(cogmap.scale_map(cmap, eta))) for eta in (2, 0.5)]
    assert csv("scale-check", "--eta", "2", "--eta", "0.5") == "vertex,base,eta_2,eta_0.5\n" + (
        "".join(
            f"{i + 1},{acc.scores[i]!r},{scaled[0].scores[i]!r},{scaled[1].scores[i]!r}\n"
            for i in range(cmap.n)
        )
    )
    rank_of = {v: pos for pos, v in enumerate(imp.ranking, start=1)}
    assert csv("impulse", "--scores") == "vertex,score,rank\n" + "".join(
        f"{i + 1},{s!r},{rank_of[i + 1]}\n" for i, s in enumerate(imp.scores)
    )
    assert csv("compare") == (
        "rank,accumulated_vertex,accumulated_score,impulse_vertex,impulse_score\n"
        + "".join(
            f"{pos},{a},{acc.scores[a - 1]!r},{i},{imp.scores[i - 1]!r}\n"
            for pos, (a, i) in enumerate(zip(acc.ranking, imp.ranking), start=1)
        )
    )


class TestScaleCheckCommand:
    def test_eta_one_has_zero_deviation(self, run):
        code, out, _ = run("scale-check", FOUR_STABLE, "--eta", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"][0]["max_rel_deviation"] == 0.0
        assert doc["checks"][0]["ranking_identical"] is True

    def test_multiple_etas(self, run):
        code, out, _ = run(
            "scale-check", SANITATION, "--eta", "0.01", "--eta", "2", "--eta", "100"
        )
        assert code == 0
        assert out.count("ranking identical") == 3

    def test_overflowing_scale_is_exit_3(self, run):
        code, out, err = run("scale-check", SANITATION, "--eta", "1e308")
        assert (code, out) == (3, "")
        assert err == (
            "error: influence score of vertex 1 is inf: the sum of |influence| "
            "over its row overflows\n"
        )

    def test_scaling_that_overflows_a_weight_is_exit_3(self, run, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1e10\n1,0\n")
        code, out, err = run("scale-check", str(path), "--eta", "1e300")
        assert (code, out) == (3, "")
        assert err == (
            "error: scaling by eta 1e+300 overflows the weight 10000000000.0 at row 1, column 2\n"
        )

    def test_requires_eta(self, run):
        code, _, _ = run("scale-check", SANITATION)
        assert code == 1

    def test_changed_ranking_is_exit_3(self, run, monkeypatch):
        calls = []

        def reorder_second_call(Z):
            report = general_influence(Z)
            calls.append(report)
            if len(calls) == 2:
                return InfluenceReport(report.scores, report.ranking[::-1])
            return report

        monkeypatch.setattr(cogmap.cli, "general_influence", reorder_second_call)
        code, out, err = run("scale-check", FOUR_STABLE, "--eta", "2", "--eta", "3")
        assert code == 3
        assert "eta 2: max relative deviation" in out
        assert "; ranking DIFFERS\n" in out
        assert "eta 3: max relative deviation" in out
        assert err == "error: ranking changed under scaling; this indicates a numerical problem\n"


# spellings of numbers and non-numbers that float() and json.loads meet in map files
CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", " 0 ", "-0", "nan", "NaN", "inf", "-Infinity", "1e999", "1_0", "\u0663"]),
    st.text(max_size=2),
)


def _grid(draw, cell, n: int) -> list[list]:
    """n x n cells or ragged rows, the diagonal often zero so that some grids are maps."""
    square = st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    rows = draw(square | st.lists(st.lists(cell, max_size=n + 1), max_size=n + 1))
    if draw(st.booleans()):
        for i, cells in enumerate(rows):
            if i < len(cells):
                cells[i] = 0
    return rows


@st.composite
def fuzzed_csv(draw) -> bytes:
    """A grid of hostile cells, maybe under a header, with any line ending and maybe a BOM."""
    n = draw(st.integers(1, 4))
    rows = _grid(draw, CELLS, n)
    if draw(st.booleans()):
        rows.insert(0, draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return (bom + newline.join(",".join(map(str, cells)) for cells in rows)).encode()


@st.composite
def fuzzed_json(draw) -> bytes:
    """A grid of any JSON values, NaN and Infinity included, maybe labelled."""
    n = draw(st.integers(1, 4))
    value = st.floats() | st.integers(-(10**400), 10**400) | st.booleans() | st.none() | st.text()
    doc = {"weights": _grid(draw, value, n)}
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.text(max_size=3) | st.integers(), max_size=n + 1))
    return json.dumps(doc).encode()


HOSTILE_INPUTS = {
    "crlf.csv": b"0,1\r\n1,0\r\n",
    "empty.csv": b"",
    "header-only.csv": b"a,b\n",
    "nan.csv": b"0,NaN\n1,0\n",
    "huge.csv": b"0,1e999\n1,0\n",
    "binary.csv": bytes(range(256)),
    "empty-row.json": b'{"weights": [[]]}',
    "boolean.json": b'{"weights": [[0, true], [1, 0]]}',
    "top-level-list.json": b"[[0, 1], [1, 0]]",
    "label-mismatch.json": b'{"labels": ["a"], "weights": [[0, 1], [1, 0]]}',
    "directory": None,
    "missing.csv": None,
    "ragged.csv": b"0,1\n1\n",
    "bom-crlf.csv": b"\xef\xbb\xbfa,b\r\n0,1\r\n1,0\r\n",
    "inf-spellings.csv": b"0,Infinity\n-inf,0\n",
    "nan.json": b'{"weights": [[0, NaN], [1, 0]]}',
    "near-max.csv": b"0,1e308\n1,0\n",
    "wide.csv": b"0," * 100_000 + b"0\n",
    "wide-header-only.csv": b"a," * 100_000 + b"a\n",
    "wide.json": b'{"weights": [[' + b"0, " * 100_000 + b"0]]}",
    "fuzzed.csv": fuzzed_csv(),
    "fuzzed.json": fuzzed_json(),
}
HOSTILE_COMMANDS = {
    "analyze": (),
    "compare": (),
    "stability": (),
    "impulse": ("--scores",),
    "paths": ("--from", "1", "--to", "2"),
    "scale-check": ("--eta", "3"),
}


@pytest.mark.parametrize("command", HOSTILE_COMMANDS)
@pytest.mark.parametrize("name", HOSTILE_INPUTS)
def test_every_input_ends_in_a_documented_exit_code(run, tmp_path, name, command):
    """The loader returns a map or raises ValidationError; the CLI exits 2 just when it raises."""
    path = tmp_path / name

    def check(data):
        refused = True  # a directory or a missing file cannot be read
        if data is not None:
            path.write_bytes(data)
            try:
                assert isinstance(load_map(data, path.suffix[1:] or "csv"), CognitiveMap)
                refused = False
            except ValidationError:
                pass
        code, out, _ = run(command, str(path), *HOSTILE_COMMANDS[command])
        assert code in range(5)
        assert (code == 2) == refused
        if refused:
            assert out == ""

    spec = HOSTILE_INPUTS[name]
    if name == "directory":
        path.mkdir()
    if isinstance(spec, st.SearchStrategy):
        settings(max_examples=25, deadline=None)(given(spec)(check))()
    else:
        check(spec)


class TestDeterminism:
    def test_byte_identical_runs(self):
        first = run_subprocess("analyze", CITY_WASTE, "--format", "json")
        second = run_subprocess("analyze", CITY_WASTE, "--format", "json")
        assert first == second
        assert first[0] == 0

    def test_threads_env_var_byte_identical(self):
        # COGMAP_THREADS is not read, so even an invalid value changes nothing
        base = run_subprocess("analyze", SANITATION)
        assert base[0] == 0
        for value in ("3", "0", "abc"):
            assert run_subprocess("analyze", SANITATION, env_extra={"COGMAP_THREADS": value}) == base

    def test_exit_code_for_scores_on_unstable_map(self):
        code, _, err = run_subprocess("impulse", FOUR_UNSTABLE, "--scores")
        assert code == 4
