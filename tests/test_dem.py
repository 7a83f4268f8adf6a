import json
import math

import numpy as np
import pytest

from topocorr import __version__
from topocorr.complexes import HeightGrid, build_cubical_complex
from topocorr.dem import (
    chunk_grid,
    load_grid,
    synth_terrain,
    tri,
)
from topocorr.errors import ConfigurationError, ParseError
from topocorr.experiment import dem_from_grid, run_dem_pipeline
from topocorr.metrics import pairwise_matrix, parse_metric_spec
from topocorr.models import derive_seed
from topocorr.persistence import compute_persistence
from topocorr.summaries import simplex_count_curve
from tests.oracles import diamond_square_loop


class TestLoadGrid:
    def test_headerless_matrix(self):
        g = load_grid("1 2 3\n4 5 6\n")
        assert (g.rows, g.cols) == (2, 3)
        assert g.values[1, 2] == 6.0

    def test_comma_separated(self):
        g = load_grid("1,2\n3,4\n")
        assert g.values[1, 0] == 3.0

    def test_esri_header(self):
        text = ("ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
                "1 2 3\n4 5 6\n")
        g = load_grid(text)
        assert (g.rows, g.cols) == (2, 3)

    def test_esri_header_with_centre_keys(self):
        body = "nrows 2\ncellsize 10\n1 2 3\n4 5 6\n"
        corner = load_grid("ncols 3\nxllcorner 5\nyllcorner 5\n" + body)
        centre = load_grid("ncols 3\nXLLCENTER 10\nYLLCENTER 10\n" + body)
        assert centre.values.tobytes() == corner.values.tobytes()

    def test_ragged_rows_rejected_with_line(self):
        with pytest.raises(ParseError) as err:
            load_grid("1 2 3\n4 5\n")
        assert err.value.line == 2

    def test_nodata_rejected(self):
        text = ("ncols 2\nnrows 1\nnodata_value -9999\n1 -9999\n")
        with pytest.raises(ParseError):
            load_grid(text)

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(ParseError):
            load_grid("ncols 3\nnrows 2\n1 2 3 4 5\n")

    def test_bad_token_rejected(self):
        with pytest.raises(ParseError, match="'oops'") as err:
            load_grid("1 2\n3 oops\n")
        assert err.value.line == 2


class TestChunkGrid:
    def test_count_and_shape(self):
        g = HeightGrid.from_array(np.zeros((65, 65)))
        chunks = chunk_grid(g, 16, 8)
        assert len(chunks) == 49
        block, center = chunks[0]
        assert (block.rows, block.cols) == (16, 16)
        assert center == (7.5, 7.5)

    def test_row_major_order(self):
        g = HeightGrid.from_array(np.arange(36.0).reshape(6, 6))
        chunks = chunk_grid(g, 3, 3)
        centers = [c for _, c in chunks]
        assert centers == [(1.0, 1.0), (1.0, 4.0), (4.0, 1.0), (4.0, 4.0)]

    def test_max_chunks_truncates(self):
        g = HeightGrid.from_array(np.zeros((8, 8)))
        assert len(chunk_grid(g, 3, 2, max_chunks=3)) == 3

    def test_max_chunks_takes_the_first(self):
        g = HeightGrid.from_array(np.arange(63.0).reshape(7, 9))
        full = chunk_grid(g, 3, 2)
        for k in range(1, len(full) + 2):
            chunks = chunk_grid(g, 3, 2, max_chunks=k)
            assert [c for _, c in chunks] == [c for _, c in full[:k]]
            for (block, _), (whole, _) in zip(chunks, full[:k], strict=True):
                assert np.array_equal(block.values, whole.values)

    def test_oversized_chunk_rejected(self):
        g = HeightGrid.from_array(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            chunk_grid(g, 5, 1)

    def test_chunkspec_validation(self):
        g = HeightGrid.from_array(np.zeros((8, 8)))
        for args, message in (((0, 1), "chunk_size must be >= 3"),
                              ((2, 1), "chunk_size must be >= 3"),
                              ((3, 0), "need 1 <= stride <= chunk_size"),
                              ((3, 4), "need 1 <= stride <= chunk_size"),
                              ((3, 1, 0), "max_chunks must be positive")):
            with pytest.raises(ConfigurationError, match=message):
                chunk_grid(g, *args)


class TestTri:
    def test_flat_grid_zero(self):
        assert tri(HeightGrid.from_array(np.full((5, 5), 3.0))) == 0.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(0)
        v = rng.random((6, 6))
        a = tri(HeightGrid.from_array(v))
        b = tri(HeightGrid.from_array(v + 100.0))
        assert a == pytest.approx(b)

    def test_scales_linearly(self):
        rng = np.random.default_rng(1)
        v = rng.random((6, 6))
        assert tri(HeightGrid.from_array(3.0 * v)) == pytest.approx(
            3.0 * tri(HeightGrid.from_array(v)))

    def test_hand_value(self):
        # Single interior pixel 1 surrounded by zeros: sqrt(8 * 1).
        v = np.zeros((3, 3))
        v[1, 1] = 1.0
        assert tri(HeightGrid.from_array(v)) == pytest.approx(np.sqrt(8.0))

    def test_requires_interior(self):
        with pytest.raises(ValueError):
            tri(HeightGrid.from_array(np.zeros((2, 5))))


def k23_terrain():
    """Five 7x7 chunks in a row whose H1 bottleneck distances are those of the
    graph K_{2,3}, a metric not of negative type: 2 within each side, 1 across.

    Chunk i holds three loops, each a ring of four squares at a base height
    around a square 10 + x_i higher; the x_i are the distances to a1, b1 and
    b2 (the chunks go a1, b1, a2, b2, b3).  The bases lie 20 apart, so every
    loop matches its own kind.  A pit in the a-chunks raises their TRI, so the
    TRI distances cut the two sides apart and dcov with them is negative.
    """
    chunks = []
    for x, side in (((0, 1, 1), "a"), ((1, 0, 2), "b"), ((2, 1, 1), "a"),
                    ((1, 2, 0), "b"), ((1, 2, 2), "b")):
        v = np.full((7, 7), 100.0)
        for (r, c), base, dx in zip(((0, 0), (0, 4), (4, 0)), (0, 20, 40), x):
            v[r + 1, c + 1] = base + 10 + dx
            for dr, dc in ((0, 1), (1, 0), (1, 2), (2, 1)):
                v[r + dr, c + dc] = base
        v[5, 5] = 0.0 if side == "a" else 100.0
        chunks.append(v)
    return HeightGrid.from_array(np.hstack(chunks))


class TestDemFromGrid:
    METRICS = [parse_metric_spec("wasserstein:p=1")]

    def test_returns_negative_dcov_flags(self):
        result = dem_from_grid(k23_terrain(), 7, 7, [parse_metric_spec("bottleneck")])
        assert result["matrices"][0].entries.tolist() == [
            [0, 1, 2, 1, 1], [1, 0, 1, 2, 2], [2, 1, 0, 1, 1], [1, 2, 1, 0, 2], [1, 2, 1, 2, 0]]
        assert result["flags"] == [[True, False]]
        assert result["rows"][0][1] == 0.0  # a negative dcov reads as dCor 0

    def grid(self, rows, cols):
        return HeightGrid.from_array(np.random.default_rng(5).random((rows, cols)))

    def test_planar_euclidean(self):
        # 3x3 chunks at stride 1 on a 7x6 grid: centres (1, 1) to (5, 4), a
        # 4-3-5 triangle between the first and the last chunk.
        result = dem_from_grid(self.grid(7, 6), 3, 1, self.METRICS, resolution=10.0)
        _, centers = zip(*chunk_grid(self.grid(7, 6), 3, 1))
        geo = result["geo_matrix"].entries
        assert geo[0, -1] == geo[-1, 0] == 50.0
        assert geo.tolist() == [[10.0 * math.hypot(a[0] - b[0], a[1] - b[1])
                                 for b in centers] for a in centers]

    def test_count_and_diagram_matrices_match_cubical_complex(self):
        # The run takes each chunk's diagram and cell counts from the grid;
        # both agree with its cubical complex, ties of 0.0 and -0.0 included.
        values = np.random.default_rng(5).choice([-0.0, 0.0, 0.5, 1.0], (12, 11))
        grid = HeightGrid.from_array(values)
        specs = ("count0:p=1", "count1:p=1", "count2:p=2", "wasserstein:p=2")
        metrics = [parse_metric_spec(spec) for spec in specs]
        result = dem_from_grid(grid, 5, 3, metrics)
        complexes = [build_cubical_complex(block) for block, _ in chunk_grid(grid, 5, 3)]
        expected = [
            *(pairwise_matrix([simplex_count_curve(cx, dim) for cx in complexes], metrics[dim])
              for dim in range(3)),
            pairwise_matrix([compute_persistence(cx).restrict(1) for cx in complexes], metrics[3])]
        for got, want in zip(result["matrices"], expected, strict=True):
            assert got.entries.tobytes() == want.entries.tobytes()

    def test_no_complex_is_built(self, monkeypatch):
        # Persistence and every cell count read the grid's lattice walk.
        def refuse(*args):
            raise AssertionError("a cubical complex was built")

        monkeypatch.setattr("topocorr.complexes._assemble", refuse)
        metrics = [parse_metric_spec(f"count{dim}:p=1") for dim in range(3)]
        result = dem_from_grid(self.grid(12, 11), 5, 3, metrics)
        assert [mat.label for mat in result["matrices"]] == [m.label for m in metrics]

    def test_manifest_of_synthetic_terrain(self, tmp_path):
        for out in ("a", "b"):
            run_dem_pipeline(17, 0.5, 3, 8, 4, self.METRICS, out=tmp_path / out,
                             resolution=2, max_chunks=5)
        data = (tmp_path / "a" / "manifest.json").read_bytes()
        assert json.loads(data) == {
            "version": __version__,
            "grid": {"rows": 17, "cols": 17, "size": 17, "roughness": 0.5, "seed": 3},
            "chunk_size": 8, "stride": 4, "max_chunks": 5, "resolution": 2.0,
            "metrics": ["wasserstein:p=1"], "degree": 1, "chunks": 5}
        assert data == (tmp_path / "b" / "manifest.json").read_bytes()

    def test_manifest_of_loaded_grid(self, tmp_path):
        dem_from_grid(self.grid(7, 6), 3, 2, self.METRICS, out=tmp_path,
                      source={"input": "data/dem.asc"})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["grid"] == {"rows": 7, "cols": 6, "input": "data/dem.asc"}
        assert (manifest["max_chunks"], manifest["chunks"]) == (None, 6)

    def test_rejects_bad_resolution(self):
        for resolution in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                dem_from_grid(self.grid(6, 6), 3, 3, self.METRICS, resolution=resolution)


class TestSynthTerrain:
    def test_deterministic(self):
        a = synth_terrain(33, 0.5, 7)
        b = synth_terrain(33, 0.5, 7)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a = synth_terrain(33, 0.5, 7)
        b = synth_terrain(33, 0.5, 8)
        assert not np.array_equal(a.values, b.values)

    def test_size_must_be_power_of_two_plus_one(self):
        for bad in (4, 10, 64):
            with pytest.raises(ValueError):
                synth_terrain(bad, 0.5, 0)
        synth_terrain(17, 0.5, 0)

    def test_roughness_bounds(self):
        with pytest.raises(ValueError):
            synth_terrain(17, 0.0, 0)
        with pytest.raises(ValueError):
            synth_terrain(17, 1.5, 0)

    @pytest.mark.parametrize("size", [3, 5, 9, 17, 33, 65, 129])
    def test_matches_loop_oracle(self, size):
        for roughness in (0.25, 0.6, 1.0):
            for seed in (0, 1, 12345):
                rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
                expected = diamond_square_loop(size, roughness, rng)
                got = synth_terrain(size, roughness, seed).values
                assert got.tobytes() == expected.tobytes(), (roughness, seed)

    def test_values_finite(self):
        g = synth_terrain(65, 0.9, 1)
        assert np.all(np.isfinite(g.values))
