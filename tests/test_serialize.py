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
        m = DistanceMatrix(3, np.array([[0.0, 1.0, 2.0],
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
