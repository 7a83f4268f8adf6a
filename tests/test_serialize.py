import numpy as np
import pytest

from topocorr.complexes import HeightGrid, build_flag_complex
from topocorr.errors import ParseError
from topocorr.metrics import DistanceMatrix
from topocorr.models import ModelSpec, generate
from topocorr.persistence import PersistenceDiagram, compute_persistence, diagram_betti_count
from topocorr.serialize import (
    curve_to_csv,
    diagram_from_csv,
    diagram_to_csv,
    landscape_to_text,
    matrix_from_csv,
    matrix_to_csv,
    render_heatmap,
)
from topocorr.summaries import StepCurve, landscape_from_diagram
from tests.test_persistence import four_cycle


class TestDiagramCsv:
    def test_roundtrip(self):
        d = PersistenceDiagram(((0.0, 1.5, 0), (0.25, 2.0, 1)))
        assert np.array_equal(diagram_from_csv(diagram_to_csv(d)).points, d.points)

    def test_roundtrip_keeps_essential_bars(self):
        d = compute_persistence(four_cycle())
        back = diagram_from_csv(diagram_to_csv(d))
        assert np.array_equal(back.essential, d.essential)
        assert diagram_betti_count(back, 2.0, 2.0, 0) == \
            diagram_betti_count(d, 2.0, 2.0, 0) == 1

    @pytest.mark.parametrize("source", [
        four_cycle,
        lambda: build_flag_complex(generate(ModelSpec("er", 12, seed=3)), 2),
        lambda: HeightGrid.from_array(np.full((3, 4), 2.0)),  # an empty diagram
    ], ids=["four-cycle", "er-12", "all-equal-grid"])
    def test_roundtrip_is_byte_exact(self, source):
        d = compute_persistence(source())
        back = diagram_from_csv(diagram_to_csv(d))
        assert back.points.tobytes() == d.points.tobytes()
        assert back.essential.tobytes() == d.essential.tobytes()

    def test_reads_three_column_files(self):
        d = diagram_from_csv("degree,birth,death\n1,0.5,2.0\n0,0.0,1.0\n")
        assert np.array_equal(d.points, [(0.0, 1.0, 0), (0.5, 2.0, 1)])
        assert d.essential.tolist() == [False, False]

    def test_malformed_row(self):
        with pytest.raises(ParseError):
            diagram_from_csv("degree,birth,death\n1,0.0,oops\n")

    @pytest.mark.parametrize("text, line", [
        ("degree,birth,death\n\n\n1,abc,2\n", 4),
        ("\n\ndegree,birth\n", 3),
        ("degree,birth,death\n1,0,1\n\n1,2,inf\n", 4),
    ], ids=["row-after-blank-lines", "header-after-blank-lines", "non-finite-after-blank-line"])
    def test_error_names_the_file_line(self, text, line):
        with pytest.raises(ParseError) as err:
            diagram_from_csv(text)
        assert err.value.line == line

    @pytest.mark.parametrize("row", ["1,0.0,inf", "1,nan,2.0", "1,-inf,2.0"])
    def test_rejects_non_finite(self, row):
        with pytest.raises(ParseError):
            diagram_from_csv(f"degree,birth,death\n{row}\n")

    @pytest.mark.parametrize("flag", ["2", "yes", ""])
    def test_rejects_bad_essential_flag(self, flag):
        with pytest.raises(ParseError):
            diagram_from_csv(f"degree,birth,death,essential\n1,0.0,1.0,{flag}\n")


class TestLandscapeText:
    def test_exact_text(self):
        lan = landscape_from_diagram(
            PersistenceDiagram(((0.0, 4.0, 1), (1.0, 3.5, 1), (0.5, 0.75, 1))))
        assert landscape_to_text(lan) == (
            "0.0 0.0 2.0 2.0 4.0 0.0\n"
            "0.5 0.0 0.625 0.125 0.75 0.0 1.0 0.0 2.25 1.25 3.5 0.0\n")


class TestCurveCsv:
    def test_exact_text(self):
        c = StepCurve((0.0, 1.0, 2.5), (4, 2))
        assert curve_to_csv(c) == "breakpoint,value\r\n0.0,4\r\n1.0,2\r\n2.5,0\r\n"


class TestMatrixCsv:
    def test_roundtrip(self):
        m = DistanceMatrix(np.array([[0.0, 1.0, 2.0],
                                        [1.0, 0.0, 0.5],
                                        [2.0, 0.5, 0.0]]), "wasserstein:p=1")
        back = matrix_from_csv(matrix_to_csv(m))
        assert back.label == m.label
        assert np.array_equal(back.entries, m.entries)

    def test_invariants_revalidated_on_load(self):
        with pytest.raises(ValueError):
            matrix_from_csv("d,d\n0.0,-1.0\n-1.0,0.0\n")

    def test_nonsquare_rejected(self):
        with pytest.raises(ParseError):
            matrix_from_csv("d,d,d\n0.0,1.0,2.0\n1.0,0.0,0.5\n")

    @pytest.mark.parametrize("text, line", [
        ("d,d\n\n0.0,1.0\nx,0.0\n", 4),
        ("d,d\n0.0,1.0\n\n\n1.0\n", 5),
    ], ids=["malformed-after-blank-line", "ragged-after-blank-lines"])
    def test_error_names_the_file_line(self, text, line):
        with pytest.raises(ParseError) as err:
            matrix_from_csv(text)
        assert err.value.line == line


class TestRenderHeatmap:
    def test_single_cell(self):
        svg = render_heatmap(np.array([[1.0]]), ["only"], [[False]])
        assert svg.startswith("<svg") and "1.00" in svg

    def test_negative_flag_sentinel(self):
        svg = render_heatmap(np.array([[1.0, 0.2], [0.2, 1.0]]), ["a", "b"],
                             flags=[[False, True], [True, False]])
        assert "#c51b8a" in svg

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            render_heatmap(np.eye(2), ["a"], [[False] * 2] * 2)

    def test_exact_bytes(self):
        # -0.5 clamps to the white end of the scale and 0.75 takes white text;
        # the flagged cell takes the sentinel color and black text.
        svg = render_heatmap(np.array([[0.25, -0.5], [0.75, 0.5]]), ["a", "b:p=1"],
                             [[False, False], [False, True]])
        assert svg == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="292" height="292">\n'
            '<style>text{font-family:monospace;font-size:11px;}</style>\n'
            '<rect width="292" height="292" fill="white"/>\n'
            '<text x="4" y="202.0">a</text>\n'
            '<text x="198.0" y="162" transform="rotate(-60 198.0 162)">a</text>\n'
            '<text x="4" y="258.0">b:p=1</text>\n'
            '<text x="254.0" y="162" transform="rotate(-60 254.0 162)">b:p=1</text>\n'
            '<rect x="170" y="170" width="56" height="56" fill="#c1d1e1" stroke="#999"/>\n'
            '<text x="198.0" y="202.0" text-anchor="middle" fill="black">0.25</text>\n'
            '<rect x="226" y="170" width="56" height="56" fill="#ffffff" stroke="#999"/>\n'
            '<text x="254.0" y="202.0" text-anchor="middle" fill="black">-0.50</text>\n'
            '<rect x="170" y="226" width="56" height="56" fill="#4676a5" stroke="#999"/>\n'
            '<text x="198.0" y="258.0" text-anchor="middle" fill="white">0.75</text>\n'
            '<rect x="226" y="226" width="56" height="56" fill="#c51b8a" stroke="#999"/>\n'
            '<text x="254.0" y="258.0" text-anchor="middle" fill="black">0.50</text>\n'
            '</svg>\n')
