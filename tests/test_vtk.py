"""Legacy ASCII VTK output: headers, ordering, counts."""

import numpy as np
import pytest

from mdtube.grid import BulkGrid
from mdtube.network import (Segment, TubeNetwork, discretize_network)
from mdtube.vtk import write_network_polydata, write_structured_points


def read_scalars(lines, name, count):
    idx = lines.index(f"SCALARS {name} double 1")
    assert lines[idx + 1] == "LOOKUP_TABLE default"
    values = []
    for line in lines[idx + 2:]:
        values.extend(float(t) for t in line.split())
        if len(values) >= count:
            break
    return np.array(values[:count])


class TestStructuredPoints:
    def test_header_and_ordering_3d(self, tmp_path):
        grid = BulkGrid("3d", [0.0, 1.0, 2.0], [2.0, 3.0, 4.0], (2, 3, 4))
        field = np.arange(grid.n_cells, dtype=float)
        path = tmp_path / "bulk.vtk"
        write_structured_points(path, grid, {"pressure": field})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "ASCII" in lines
        assert "DATASET STRUCTURED_POINTS" in lines
        # point dimensions are cell counts plus one
        assert "DIMENSIONS 3 4 5" in lines
        assert any(line.startswith("ORIGIN 0 1 2") for line in lines)
        assert f"CELL_DATA {grid.n_cells}" in lines
        data = read_scalars(lines, "pressure", grid.n_cells)
        # x must vary fastest: the writer transposes the (nx, ny, nz) block
        expect = field.reshape(2, 3, 4).transpose(2, 1, 0).ravel()
        assert np.array_equal(data, expect)

    def test_bytes_of_two_fields(self, tmp_path):
        # the whole file, each value in 10 significant digits on its own
        # line: signs, exponents, integers, zeros and a non-finite value
        grid = BulkGrid("3d", [-0.04, 0.0, -0.15], [0.08, 0.1, 0.15],
                        (3, 2, 2))
        field = np.array([-1.25e5, 0.0, -0.0, 3.0, 1.0 / 3.0, -2.5e-12,
                          6.02214076e23, np.nan, 12345678901.0, -7.0,
                          1e-300, 0.1])
        path = tmp_path / "bulk.vtk"
        write_structured_points(path, grid, {"p": field,
                                             "q": np.arange(12.0)})
        # x varies fastest: cell (i, j, k) is value 4i + 2j + k
        expect = ("# vtk DataFile Version 3.0\nmdtube bulk field\nASCII\n"
                  "DATASET STRUCTURED_POINTS\nDIMENSIONS 4 3 3\n"
                  "ORIGIN -0.04 0 -0.15\nSPACING 0.02666666667 0.05 0.075\n"
                  "CELL_DATA 12\nSCALARS p double 1\nLOOKUP_TABLE default\n"
                  "-125000\n0.3333333333\n1.23456789e+10\n-0\n"
                  "6.02214076e+23\n1e-300\n0\n-2.5e-12\n-7\n3\nnan\n0.1\n"
                  "SCALARS q double 1\nLOOKUP_TABLE default\n"
                  "0\n4\n8\n2\n6\n10\n1\n5\n9\n3\n7\n11\n")
        assert path.read_bytes() == expect.encode()

    def test_every_value_on_its_own_line_past_one_write(self, tmp_path):
        # 2,520 values, more than one block of lines per write
        grid = BulkGrid("3d", [0.0] * 3, [1.0] * 3, (15, 14, 12))
        field = np.random.default_rng(3).normal(size=grid.n_cells) * 1e3
        path = tmp_path / "bulk.vtk"
        write_structured_points(path, grid, {"u": field})
        lines = path.read_text().split("\n")
        start = lines.index("LOOKUP_TABLE default") + 1
        ordered = field.reshape(15, 14, 12).transpose(2, 1, 0).ravel()
        assert lines[start:] == [format(v, ".10g") for v in ordered] + [""]

    def test_2d_grid_written_as_single_slab(self, tmp_path):
        grid = BulkGrid("2d", [0.0, 0.0], [1.0, 1.0], (4, 4))
        path = tmp_path / "bulk.vtk"
        write_structured_points(path, grid,
                                {"u": np.zeros(grid.n_cells)})
        lines = path.read_text().splitlines()
        assert "DIMENSIONS 5 5 2" in lines
        assert f"CELL_DATA {grid.n_cells}" in lines

    def test_radial_grid_rejected(self, tmp_path):
        grid = BulkGrid("radial", [0.0], [1.0], (4,))
        with pytest.raises(ValueError):
            write_structured_points(tmp_path / "bulk.vtk", grid,
                                    {"u": np.zeros(4)})


class TestNetworkPolydata:
    def make_mesh(self):
        nodes = np.array([[0.0, 0.0, 0.0],
                          [0.0, 0.0, -0.06],
                          [0.03, 0.0, -0.09]])
        net = TubeNetwork(nodes=nodes,
                          segments=[Segment(0, 1, 2e-3, 3.0, 1.0, 1.0),
                                    Segment(1, 2, 1e-3, 3.0, 1.0, 1.0)])
        return discretize_network(net, 0.02)

    def test_counts_and_fields(self, tmp_path):
        mesh = self.make_mesh()
        n = mesh.n_cells
        path = tmp_path / "net.vtk"
        write_network_polydata(path, mesh,
                               {"pressure": np.arange(n, dtype=float)})
        lines = path.read_text().splitlines()
        assert "DATASET POLYDATA" in lines
        assert f"POINTS {2 * n} double" in lines
        assert f"LINES {n} {3 * n}" in lines
        assert f"CELL_DATA {n}" in lines
        data = read_scalars(lines, "pressure", n)
        assert np.array_equal(data, np.arange(n, dtype=float))
        # each line record references its own two points
        start = lines.index(f"LINES {n} {3 * n}") + 1
        for i in range(n):
            assert lines[start + i] == f"2 {2 * i} {2 * i + 1}"

    def test_points_match_cell_ends(self, tmp_path):
        mesh = self.make_mesh()
        path = tmp_path / "net.vtk"
        write_network_polydata(path, mesh)
        lines = path.read_text().splitlines()
        start = lines.index(f"POINTS {2 * mesh.n_cells} double") + 1
        first = np.array([float(t) for t in lines[start].split()])
        assert np.allclose(first, mesh.cells[0].p0)


# negative, subnormal, huge, integral and non-finite values, and signed
# zeros
AWKWARD = np.array([-1.25e5, 5e-324, -2.5e-310, 1.7976931348623157e308,
                    -1e300, 3.0, -7.0, 12345678901.0, 2.0 ** 60, 0.0, -0.0,
                    1.0 / 3.0, np.nan, np.inf, -np.inf, -2.5e-12])


def per_value_text(values, per_line=1):
    """One f-string per value: the formatting the block writer replaces."""
    values = np.asarray(values, float).reshape(-1, per_line)
    return "".join(" ".join(f"{v:.10g}" for v in row) + "\n"
                   for row in values.tolist())


class TestBlockFormatting:
    def test_structured_points_bytes_match_per_value_format(self, tmp_path):
        # 2,520 values, past one block of lines
        grid = BulkGrid("3d", [-1e-3, 0.0, 5.0], [2.0, 3.0, 4.0], (15, 14, 12))
        rng = np.random.default_rng(5)
        field = np.resize(AWKWARD, grid.n_cells) * rng.choice(
            [1.0, -1.0, 0.5, 1e-7], grid.n_cells)
        path = tmp_path / "bulk.vtk"
        write_structured_points(path, grid, {"u": field})
        text = path.read_text()
        head, _, data = text.partition("LOOKUP_TABLE default\n")
        ordered = field.reshape(15, 14, 12).transpose(2, 1, 0)
        assert data == per_value_text(ordered)
        assert path.read_bytes() == (head + "LOOKUP_TABLE default\n"
                                     + per_value_text(ordered)).encode()

    def test_network_bytes_match_per_value_format(self, tmp_path):
        nodes = np.array([[0.0, 0.0, 0.0], [1e-310, -2.5e-3, -0.06],
                          [0.03, 7.0, -0.09]])
        net = TubeNetwork(nodes=nodes,
                          segments=[Segment(0, 1, 2e-3, 3.0, 1.0, 1.0),
                                    Segment(1, 2, 1e-3, 3.0, 1.0, 1.0)])
        mesh = discretize_network(net, 0.004)
        n = mesh.n_cells
        assert 2 * n > 16
        values = np.resize(AWKWARD, n)
        path = tmp_path / "net.vtk"
        write_network_polydata(path, mesh, {"q": values})
        points = np.array([p for c in mesh.cells for p in (c.p0, c.p1)])
        expect = ("# vtk DataFile Version 3.0\nmdtube network\nASCII\n"
                  f"DATASET POLYDATA\nPOINTS {2 * n} double\n"
                  + per_value_text(points, per_line=3)
                  + f"LINES {n} {3 * n}\n"
                  + "".join(f"2 {2 * i} {2 * i + 1}\n" for i in range(n))
                  + f"CELL_DATA {n}\nSCALARS q double 1\n"
                  "LOOKUP_TABLE default\n" + per_value_text(values))
        assert path.read_bytes() == expect.encode()
