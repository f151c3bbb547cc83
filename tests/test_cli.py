from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cogmap.eigen
from cogmap import (
    CognitiveMap,
    EigenConvergenceError,
    fixture_path,
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

    def test_csv_reloads_to_same_values(self, run):
        code, out, _ = run("analyze", SANITATION, "--format", "csv")
        assert code == 0
        reloaded = load_map(out, "csv")
        Z = influence_matrix(load_fixture("sanitation"))
        assert np.array_equal(reloaded.weights, Z)
        assert reloaded.labels == load_fixture("sanitation").labels

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

    def test_threads_do_not_change_output(self, run):
        _, out1, _ = run("analyze", CITY_WASTE, "--threads", "1", "--format", "json")
        _, out4, _ = run("analyze", CITY_WASTE, "--threads", "4", "--format", "json")
        assert out1 == out4

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

    def test_json_payload(self, run):
        code, out, _ = run("compare", FOUR_STABLE, "--format", "json")
        doc = json.loads(out)
        assert doc["rankings_agree"] is True
        assert doc["accumulated"]["ranking"] == doc["impulse"]["ranking"] == [3, 2, 4, 1]


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

    def test_requires_eta(self, run):
        code, _, _ = run("scale-check", SANITATION)
        assert code == 1


class TestDeterminism:
    def test_byte_identical_runs(self):
        first = run_subprocess("analyze", CITY_WASTE, "--format", "json")
        second = run_subprocess("analyze", CITY_WASTE, "--format", "json")
        assert first == second
        assert first[0] == 0

    def test_threads_env_var_byte_identical(self):
        base = run_subprocess("analyze", SANITATION)
        threaded = run_subprocess("analyze", SANITATION, env_extra={"COGMAP_THREADS": "3"})
        assert base[0] == threaded[0] == 0
        assert base[1] == threaded[1]

    def test_exit_code_for_scores_on_unstable_map(self):
        code, _, err = run_subprocess("impulse", FOUR_UNSTABLE, "--scores")
        assert code == 4
