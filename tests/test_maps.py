from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogmap import (
    CognitiveMap,
    CogmapError,
    ValidationError,
    dumps_map,
    fixture_path,
    load_map,
    max_abs_weight,
    reachability_closure,
    save_map,
    scale_map,
)
from conftest import cognitive_maps

from oracles import brute_force_paths


class TestLoadCsv:
    def test_four_vertex_map(self, fixture_maps):
        m = fixture_maps["four_stable"]
        assert m.n == 4
        assert m.weights[0, 1] == 0.391
        assert m.weights[0, 2] == -0.121
        assert m.weights[1, 3] == 1
        assert m.weights[2, 3] == -1
        assert m.weights[3, 0] == 1
        assert np.count_nonzero(m.weights) == 5

    def test_single_vertex(self):
        m = load_map("0\n", "csv")
        assert m.n == 1
        assert max_abs_weight(m) == 0.0

    def test_non_square_names_row(self):
        with pytest.raises(ValidationError, match="row 1"):
            load_map("1,2,3,0\n0,0,1,0\n0,0,0,1\n", "csv")

    def test_non_numeric_cell_names_position(self):
        with pytest.raises(ValidationError, match="row 2, column 1"):
            load_map("0,1\nx,0\n", "csv")

    def test_nan_cell_rejected(self):
        with pytest.raises(ValidationError, match="row 1, column 2"):
            load_map("0,nan\n0,0\n", "csv")

    def test_inf_cell_rejected(self):
        with pytest.raises(ValidationError, match="row 2, column 1"):
            load_map("0,1\ninf,0\n", "csv")

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="vertex 2"):
            load_map("0,1\n0,0.5\n", "csv")

    def test_empty_input(self):
        with pytest.raises(ValidationError, match="empty"):
            load_map("", "csv")

    def test_header_labels(self):
        m = load_map("a,b\n0,1\n-1,0\n", "csv")
        assert m.labels == ("a", "b")

    def test_decimal_comma(self):
        m = load_map("0;0,391\n-0,5;0\n", "csv", decimal_comma=True)
        assert m.weights[0, 1] == 0.391
        assert m.weights[1, 0] == -0.5


class TestLoadJson:
    def test_labels_round(self):
        m = load_map('{"labels": ["x", "y"], "weights": [[0, 1], [2, 0]]}', "json")
        assert m.labels == ("x", "y")
        assert m.weights[1, 0] == 2

    def test_non_square_names_row(self):
        with pytest.raises(ValidationError, match="row 2"):
            load_map('{"weights": [[0, 1], [2, 0, 3]]}', "json")

    def test_bad_json(self):
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_map("{", "json")

    def test_non_numeric_cell(self):
        with pytest.raises(ValidationError, match="row 1, column 2"):
            load_map('{"weights": [[0, "x"], [1, 0]]}', "json")

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError, match="labels"):
            load_map('{"labels": ["a"], "weights": [[0, 1], [1, 0]]}', "json")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            load_map("0", "xml")


class TestDefaultFormat:
    def test_suffix_picks_the_format(self, tmp_path, fixture_maps):
        m = fixture_maps["four_stable"]
        for name, fmt in (("a.json", "json"), ("b.JSON", "json"), ("c.csv", "csv"), ("d", "csv")):
            path = tmp_path / name
            save_map(m, str(path))
            assert path.read_text() == dumps_map(m, fmt)
            assert load_map(path) == m

    def test_explicit_format_wins(self, tmp_path, fixture_maps):
        m = fixture_maps["four_stable"]
        path = tmp_path / "m.json"
        save_map(m, path, "csv")
        assert path.read_text() == dumps_map(m, "csv")
        assert load_map(path, "csv") == m
        with pytest.raises(ValidationError):
            load_map(path)

    def test_text_and_streams_default_to_csv(self, fixture_maps):
        m = fixture_maps["four_stable"]
        assert load_map(dumps_map(m, "csv")) == m
        assert load_map(io.StringIO(dumps_map(m, "csv"))) == m
        out = io.StringIO()
        save_map(m, out)
        assert out.getvalue() == dumps_map(m, "csv")


class TestByteOrderMark:
    """A UTF-8 BOM, as Excel writes it, is not part of the first row."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bom_loads_like_the_plain_file(self, fmt, tmp_path):
        plain = fixture_path("four_stable", fmt).read_text(encoding="utf-8")
        want = load_map(plain, fmt)
        bom_file = tmp_path / f"bom.{fmt}"
        bom_file.write_text(plain, encoding="utf-8-sig")
        assert load_map("\ufeff" + plain, fmt) == want
        assert load_map(bom_file.read_bytes(), fmt) == want
        assert load_map(bom_file, fmt) == want
        with bom_file.open("rb") as stream:
            assert load_map(stream, fmt) == want


class TestEncoding:
    def test_non_utf8_is_validation_error_naming_the_offset(self, tmp_path):
        data = b"\xe9,1\n1,0\n"
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(data)
        for source in (data, latin1, io.BytesIO(data)):
            with pytest.raises(ValidationError, match="byte 0xe9 at offset 0"):
                load_map(source)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fixtures_round_trip_both_formats(self, fmt, fixture_maps):
        for m in fixture_maps.values():
            assert load_map(dumps_map(m, fmt), fmt) == m

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=60)
    @given(m=cognitive_maps())
    def test_random_maps_round_trip(self, fmt, m):
        assert load_map(dumps_map(m, fmt), fmt) == m

    @pytest.mark.parametrize(
        "labels",
        [("1", "2"), ("a,b", "c"), (" a", "b"), ("",), ("a", "b\n"), ("x", "y\u2028z"), ("nan",)],
    )
    def test_csv_refuses_labels_it_cannot_read_back(self, labels):
        m = CognitiveMap(np.zeros((len(labels), len(labels))), labels)
        with pytest.raises(ValidationError, match="would not read back from CSV"):
            dumps_map(m, "csv")
        assert load_map(dumps_map(m, "json"), "json") == m

    @pytest.mark.parametrize("labels", [("b b", "c"), ("", "a"), ("1", "x"), ("", "")])
    def test_csv_keeps_labels_it_can_read_back(self, labels):
        m = CognitiveMap(np.zeros((len(labels), len(labels))), labels)
        assert load_map(dumps_map(m, "csv"), "csv") == m

    @settings(max_examples=200)
    @given(labels=st.lists(st.text(), min_size=1, max_size=4))
    def test_any_labels_round_trip_or_are_refused(self, labels):
        m = CognitiveMap(np.zeros((len(labels), len(labels))), labels)
        assert load_map(dumps_map(m, "json"), "json") == m
        try:
            text = dumps_map(m, "csv")
        except ValidationError as exc:
            assert "save the map as JSON" in str(exc)
        else:
            assert load_map(text, "csv") == m

    def test_save_to_stream(self, fixture_maps):
        buf = io.StringIO()
        save_map(fixture_maps["sanitation"], buf, "csv")
        assert load_map(buf.getvalue(), "csv") == fixture_maps["sanitation"]


class TestMaxAbsWeight:
    def test_fixture_values(self, fixture_maps):
        assert max_abs_weight(fixture_maps["four_stable"]) == 1.0
        assert max_abs_weight(fixture_maps["four_heavy"]) == 9.0

    def test_zero_map(self):
        assert max_abs_weight(CognitiveMap(np.zeros((3, 3)))) == 0.0

    @given(m=cognitive_maps(), eta=st.floats(0.01, 100))
    @settings(max_examples=40)
    def test_scales_with_eta(self, m, eta):
        assert max_abs_weight(scale_map(m, eta)) == pytest.approx(
            eta * max_abs_weight(m), rel=1e-12
        )


class TestReachability:
    def test_no_outgoing_edges(self, fixture_maps):
        reach = reachability_closure(fixture_maps["four_heavy"])
        assert not reach[0].any()

    def test_strongly_connected_matches_bfs(self, fixture_maps):
        m = fixture_maps["four_unstable"]
        reach = reachability_closure(m)
        for i in range(m.n):
            for j in range(m.n):
                has_path = bool(brute_force_paths(m.weights, i, j)) if i != j else None
                if i != j:
                    assert reach[i, j] == has_path
        assert all(reach[i, j] for i in range(4) for j in range(4) if i != j)

    def test_edgeless(self):
        reach = reachability_closure(CognitiveMap(np.zeros((3, 3))))
        assert not reach.any()

    @given(m=cognitive_maps())
    @settings(max_examples=50)
    def test_edges_imply_reachability(self, m):
        reach = reachability_closure(m)
        assert np.all(reach[m.weights != 0.0])


class TestScaleMap:
    def test_doubling_matches_bundled_fixture(self, fixture_maps):
        doubled = scale_map(fixture_maps["sanitation"], 2)
        assert np.allclose(
            doubled.weights, fixture_maps["sanitation_doubled"].weights, atol=1e-12
        )

    def test_identity(self, fixture_maps):
        m = fixture_maps["four_stable"]
        assert scale_map(m, 1) == m

    def test_elementwise(self, fixture_maps):
        m = fixture_maps["sanitation"]
        scaled = scale_map(m, 0.1)
        assert np.allclose(scaled.weights, m.weights * 0.1, rtol=1e-15)

    @pytest.mark.parametrize("eta", [0, -1, math.inf, math.nan])
    def test_bad_eta(self, eta, fixture_maps):
        with pytest.raises(ValueError):
            scale_map(fixture_maps["four_stable"], eta)

    def test_overflow_names_eta_and_the_first_overflowing_weight(self):
        m = CognitiveMap([[0, 1e10, 0], [-1e300, 0, 1], [2e10, 0, 0]])
        with pytest.raises(CogmapError) as info:
            scale_map(m, 1e300)
        assert not isinstance(info.value, ValidationError)
        assert str(info.value) == (
            "scaling by eta 1e+300 overflows the weight 10000000000.0 at row 1, column 2"
        )

    @given(m=cognitive_maps(), a=st.floats(0.1, 10), b=st.floats(0.1, 10))
    @settings(max_examples=40)
    def test_composition(self, m, a, b):
        twice = scale_map(scale_map(m, a), b)
        once = scale_map(m, a * b)
        assert np.allclose(twice.weights, once.weights, rtol=1e-12, atol=0)


class TestCognitiveMapValidation:
    def test_weights_are_frozen(self, fixture_maps):
        with pytest.raises(ValueError):
            fixture_maps["four_stable"].weights[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            CognitiveMap(np.zeros((2, 3)))

    def test_rejects_nan(self):
        w = np.zeros((2, 2))
        w[0, 1] = np.nan
        with pytest.raises(ValidationError, match="row 1, column 2: nan$"):
            CognitiveMap(w)
