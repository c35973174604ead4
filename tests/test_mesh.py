import io
import re
import struct

import numpy as np
import pytest

from pfmatch.bench import grid_mesh
from pfmatch.mesh import (MeshError, TriangleMesh, _ply_element, edge_table,
                          load_mesh, save_off, save_ply)


def test_load_tetrahedron(tetra_off):
    mesh = load_mesh(tetra_off)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 4
    assert len(mesh.boundary_edges) == 0


def test_load_single_triangle(triangle_off):
    mesh = load_mesh(triangle_off)
    assert mesh.n_vertices == 3
    assert mesh.n_triangles == 1
    assert len(mesh.boundary_edges) == 3


def test_grid_ply_boundary_edges(tmp_path, square_grid):
    # 10x10 cells: 200 triangles, 40 perimeter edges by construction.
    path = tmp_path / "grid.ply"
    save_ply(square_grid, path, binary=False)
    mesh = load_mesh(path)
    assert mesh.n_triangles == 200
    assert len(mesh.boundary_edges) == 40


def test_edge_count_identity(square_grid, sphere):
    for mesh in (square_grid, sphere):
        _, counts, _ = edge_table(mesh.triangles)
        nb = np.count_nonzero(counts == 1)
        ni = np.count_nonzero(counts == 2)
        assert nb == len(mesh.boundary_edges)
        assert nb + 2 * ni == 3 * mesh.n_triangles


@pytest.mark.parametrize("binary", [False, True])
def test_ply_round_trip(tmp_path, square_grid, binary):
    path = tmp_path / "mesh.ply"
    save_ply(square_grid, path, binary=binary)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, square_grid.vertices)
    assert np.array_equal(back.triangles, square_grid.triangles)


def test_ply_round_trip_bit_exact_random_coords(tmp_path, rng):
    verts = rng.standard_normal((4, 3))
    mesh = TriangleMesh(verts, [[0, 1, 2], [0, 2, 3]])
    path = tmp_path / "rand.ply"
    save_ply(mesh, path, binary=True)
    back = load_mesh(path)
    assert back.vertices.tobytes() == mesh.vertices.tobytes()


def test_off_round_trip(tmp_path, square_grid):
    path = tmp_path / "mesh.off"
    save_off(square_grid, path)
    back = load_mesh(path)
    assert back.vertices.tobytes() == square_grid.vertices.tobytes()
    assert np.array_equal(back.triangles, square_grid.triangles)


def test_save_ply_rejects_colors_of_the_wrong_shape(tmp_path, square_grid):
    rgba = np.zeros((square_grid.n_vertices, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match=re.escape("colors must have shape (n, 3)")):
        save_ply(square_grid, tmp_path / "rgba.ply", colors=rgba)
    assert not (tmp_path / "rgba.ply").exists()


def test_ply_with_colors_loads(tmp_path, square_grid):
    colors = np.zeros((square_grid.n_vertices, 3), dtype=np.uint8)
    colors[:, 0] = 255
    path = tmp_path / "colored.ply"
    save_ply(square_grid, path, binary=True, colors=colors)
    back = load_mesh(path)
    assert back.n_vertices == square_grid.n_vertices


def _save_ply_struct(mesh, path, colors=None):
    """Reference binary PLY writer: one struct.pack per record."""
    header = ["ply", "format binary_little_endian 1.0",
              f"element vertex {mesh.n_vertices}",
              "property double x", "property double y", "property double z"]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [f"element face {mesh.n_triangles}",
               "property list uchar int vertex_indices", "end_header"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if colors is None:
            fh.write(np.ascontiguousarray(mesh.vertices, "<f8").tobytes())
        else:
            for v, c in zip(mesh.vertices, colors):
                fh.write(struct.pack("<3d3B", *v, *c))
        for t in mesh.triangles.astype("<i4"):
            fh.write(struct.pack("<B3i", 3, *t))


@pytest.mark.parametrize("colored", [False, True])
def test_binary_ply_bytes_match_struct_writer(tmp_path, bumpy, rng, colored):
    colors = None
    if colored:
        colors = rng.integers(0, 256, size=(bumpy.n_vertices, 3)).astype(np.uint8)
    save_ply(bumpy, tmp_path / "new.ply", binary=True, colors=colors)
    _save_ply_struct(bumpy, tmp_path / "ref.ply", colors=colors)
    assert (tmp_path / "new.ply").read_bytes() == (tmp_path / "ref.ply").read_bytes()
    back = load_mesh(tmp_path / "new.ply")
    assert np.array_equal(back.triangles, bumpy.triangles)


@pytest.mark.parametrize("last_face, message", [
    (struct.pack("<B4i", 4, 0, 1, 2, 3), "only triangular faces supported"),
    (struct.pack("<B2i", 3, 0, 1), "truncated ply data"),
])
def test_binary_ply_bad_faces_rejected(tmp_path, last_face, message):
    header = ["ply", "format binary_little_endian 1.0", "element vertex 5",
              "property double x", "property double y", "property double z",
              "element face 2", "property list uchar int vertex_indices",
              "end_header"]
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0]], "<f8")
    path = tmp_path / "bad.ply"
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(verts.tobytes())
        fh.write(struct.pack("<B3i", 3, 1, 4, 2))
        fh.write(last_face)
    with pytest.raises(MeshError, match=message):
        load_mesh(path)


_ASCII_PLY = """ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


class _LineCounter(io.BytesIO):
    """Bytes read line by line, counting the lines asked for; a few reads
    past the end fail, so a reader that would go on costs no time."""

    def __init__(self, data):
        super().__init__(data)
        self.lines = 0

    def readline(self, size=-1):
        self.lines += 1
        assert self.lines < 10, "read on past the end of the file"
        return super().readline(size)

    def __next__(self):
        line = self.readline()
        if not line:
            raise StopIteration
        return line


def test_ascii_ply_rows_stop_at_end_of_file():
    stream = _LineCounter(b"0 0 0\n1 0 0\n0 1 0\n")
    fields = [(name, "float", 1) for name in "xyz"]
    with pytest.raises(MeshError, match="fewer values than its header"):
        _ply_element(stream, 10 ** 9, fields, False, "huge.ply")
    assert stream.lines == 4  # three rows, then the end of the file


@pytest.mark.parametrize("text, message", [
    (_ASCII_PLY.replace("3 0 1 2\n", ""),
     "ply data has fewer values than its header declares"),
    (_ASCII_PLY.replace("1 0 0\n", "1 0\n"),
     "ply data has fewer values than its header declares"),
    (_ASCII_PLY.replace("3 0 1 2\n", "3 0 1\n"),
     "ply data has fewer values than its header declares"),
    (_ASCII_PLY.replace("vertex_indices", "corners").replace("3 0 1 2",
                                                             "4 0 1 2 0"),
     "only triangular faces supported"),
    (_ASCII_PLY.replace("ascii", "binary_little_endian").replace("float x",
                                                                 "uint64 x"),
     "unsupported ply property type uint64"),
    (_ASCII_PLY.replace("element vertex 3\nproperty float x\n",
                        "property float x\nelement vertex 3\n"),
     "ply property before any element"),
    (_ASCII_PLY.replace("ascii", "binary_little_endian").replace(
        "element vertex 3", "element foo 2\nelement vertex 3"),
     "ply element foo has no properties"),
    (_ASCII_PLY.replace("element vertex 3", "element foo 2\nelement vertex 3"),
     "ply element foo has no properties"),
    (_ASCII_PLY.replace("property float y", "property float x"),
     "malformed ply header: field 'x' occurs more than once"),
    (_ASCII_PLY.split("end_header")[0], "unterminated ply header"),
    (_ASCII_PLY.replace("ascii", "binary_big_endian"),
     "unsupported ply format binary_big_endian"),
    (_ASCII_PLY.replace("property float z\n", ""),
     "vertex element lacks x/y/z"),
    (_ASCII_PLY.replace("property list uchar int vertex_indices",
                        "property int count"),
     "face element has no list property"),
    (_ASCII_PLY.replace("element face 1\n", "").replace(
        "property list uchar int vertex_indices\n", ""),
     "missing vertex or face element"),
], ids=["missing_row", "short_row", "short_face", "quad_any_list_name",
        "unknown_binary_type", "property_first", "binary_no_properties",
        "ascii_no_properties", "property_twice", "no_end_header",
        "big_endian", "vertex_without_z", "face_without_list", "no_face"])
def test_malformed_ply_rejected(tmp_path, text, message):
    path = tmp_path / "bad.ply"
    path.write_text(text)
    with pytest.raises(MeshError, match=re.escape(f"{path}: {message}")):
        load_mesh(path)


def test_ascii_ply_reads_any_scalar_type_and_ignores_trailing_values(tmp_path):
    # ASCII values are read as float64 whatever their declared type; an
    # element other than vertex and face is read and dropped.
    text = (_ASCII_PLY.replace("property float y", "property uint64 y")
            .replace("property float z", "property char z")
            .replace("element face 1", "element edge 1\nproperty int a\n"
                     "element face 1")
            .replace("1 0 0\n", "1.25 0 -0 7 junk\n")
            .replace("3 0 1 2\n", "0 1\n3 0 1 2 9\n"))
    path = tmp_path / "types.ply"
    path.write_text(text)
    mesh = load_mesh(path)
    assert mesh.vertices.tobytes() == np.array(
        [[0, 0, 0], [1.25, 0, -0.0], [0, 1, 0]]).tobytes()
    assert mesh.triangles.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("binary", [False, True])
def test_ply_header_comments_and_blank_lines_are_skipped(tmp_path,
                                                         square_grid, binary):
    # Exporters write comment lines; a blank line carries no keyword.
    path = tmp_path / "mesh.ply"
    save_ply(square_grid, path, binary=binary)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"element vertex",
                                  b"comment made by hand\n\nelement vertex", 1)
                     .replace(b"end_header", b"comment last\n \nend_header", 1))
    back = load_mesh(path)
    assert back.vertices.tobytes() == square_grid.vertices.tobytes()
    assert np.array_equal(back.triangles, square_grid.triangles)


@pytest.mark.parametrize("name, text, message", [
    ("bad.ply", _ASCII_PLY.replace("format ascii 1.0", "format"),
     "malformed ply header line 'format'"),
    ("bad.ply", _ASCII_PLY.replace("element vertex 3", "element vertex"),
     "malformed ply header line 'element vertex'"),
    ("bad.ply", _ASCII_PLY.replace("element vertex 3", "element vertex x"),
     "malformed ply header line 'element vertex x'"),
    ("bad.ply", _ASCII_PLY.replace("element vertex 3", "element vertex -3"),
     "malformed ply header line 'element vertex -3'"),
    ("bad.ply", _ASCII_PLY.replace("property float x", "property float"),
     "malformed ply header line 'property float'"),
    ("bad.ply", _ASCII_PLY.replace(" vertex_indices", ""),
     "malformed ply header line 'property list uchar int'"),
    ("bad.ply", _ASCII_PLY.replace("format ascii 1.0\n", ""),
     "ply header is missing format"),
    ("bad.ply", _ASCII_PLY.replace("1 0 0\n", "1 abc 0\n"),
     "malformed ply data: could not convert string to float: b'abc'"),
    ("bad.ply", _ASCII_PLY.replace("3 0 1 2", "3 0 1.5 2"),
     "ply face index is not an integer"),
    ("bad.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
     "OFF data has fewer values than its header declares"),
    ("bad.off", "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2\n",
     "OFF data has fewer values than its header declares"),
    pytest.param(
        "fan.off", "OFF\n5 3 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n0 -1 0\n"
        "3 0 1 2\n3 0 1 3\n3 0 1 4\n",
        "non-manifold edge (0, 1): 3 incident triangles",
        marks=pytest.mark.filterwarnings(
            "ignore:mesh is not consistently orientable")),
    ("bad.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
     "unrecognized mesh format"),
    ("bad.off", "OFF\n-3 1 0\n", "malformed OFF data: negative element count"),
    ("quad.off", "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n",
     "only triangular faces supported"),
    ("nan.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 nan 0\n3 0 1 2\n",
     "non-finite vertex coordinates"),
    ("point.off", "OFF\n3 1 0\n1 1 1\n1 1 1\n1 1 1\n3 0 1 2\n",
     "degenerate triangle 0 (area 0.000e+00)"),
], ids=["format_no_value", "element_no_count", "element_count_not_int",
        "element_count_negative", "property_no_name", "list_no_name",
        "no_format_line", "ply_value_not_a_number",
        "ply_index_not_integral", "off_short_face", "off_short_face_after_full",
        "off_non_manifold", "unknown_format", "off_count_negative",
        "off_quad", "off_nan", "off_coincident_vertices"])
def test_malformed_mesh_rejected_with_path(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MeshError, match=re.escape(f"{path}: {message}")):
        load_mesh(path)


_SQUARE_OFF = "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n"


@pytest.mark.parametrize("text", [
    _SQUARE_OFF.replace("3 0 1 2\n3 0 2 3", "3 0 1 2 255 0 0\n3 0 2 3 0 9 0"),
    _SQUARE_OFF.replace("3 0 1 2\n3 0 2 3",
                        "3 0 1 2 0.5 0.5 0.5 1\n3 0 2 3 1 0.25 0 1"),
    _SQUARE_OFF.replace("1 1 0\n", "1 1 0 255 255 255\n"),
    _SQUARE_OFF.replace("4 2 0", "4 2"),
    _SQUARE_OFF.replace("OFF\n4 2 0", "OFF 4 2 0"),
    _SQUARE_OFF.replace("OFF\n", "OFF # made by hand\n\n# counts\n")
    .replace("3 0 1 2\n", "  \n3 0 1 2 # first face\n"),
], ids=["int_face_colors", "float_face_colors", "vertex_color",
        "no_edge_count", "counts_on_off_line", "comments_and_blank_lines"])
def test_off_rows_ignore_values_past_the_vertex_or_face(tmp_path, text):
    # OFF rows go through ASCII PLY's reader: a row is x y z or 3 a b c,
    # and a color after it is read past.
    path = tmp_path / "square.off"
    path.write_text(text)
    mesh = load_mesh(path)
    assert mesh.vertices.tobytes() == np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float).tobytes()
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]


_COLORED_VERTICES = "".join(
    f"{row} 255 0 0 255\n" for row in ["0 0 0", "1 0 0", "1 1 0", "0 1 0"])


@pytest.mark.parametrize("data", [
    b"# made by hand\n" + _SQUARE_OFF.encode(),
    b"\n  \n" + _SQUARE_OFF.encode(),
    b"\xef\xbb\xbf" + _SQUARE_OFF.encode(),
    b"\xef\xbb\xbf# made by hand\n\n" + _SQUARE_OFF.encode(),
    _SQUARE_OFF.replace("OFF", "COFF").replace(
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n", _COLORED_VERTICES).encode(),
    _SQUARE_OFF.replace("OFF", "NOFF").replace(
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n", "0 0 0 0 0 1\n1 0 0 0 0 1\n"
        "1 1 0 0 0 1\n0 1 0 0 0 1\n").encode(),
    _SQUARE_OFF.replace("OFF", "STCNOFF").encode(),
], ids=["comment_first", "blank_first", "byte_order_mark",
        "byte_order_mark_then_comment", "coff", "noff", "stcnoff"])
def test_off_keyword_found_past_comments_blanks_and_prefixes(tmp_path, data):
    # The format is named by the first line that is neither blank nor a
    # comment, after a byte-order mark; Geomview's ST, C and N prefixes add
    # values after x y z, which are read past.
    plain, path = tmp_path / "plain.off", tmp_path / "square.off"
    plain.write_text(_SQUARE_OFF)
    path.write_bytes(data)
    mesh, expected = load_mesh(path), load_mesh(plain)
    assert mesh.vertices.tobytes() == expected.vertices.tobytes()
    assert mesh.triangles.tobytes() == expected.triangles.tobytes()


@pytest.mark.parametrize("keyword", ["4OFF", "nOFF", "C4OFF"])
def test_off_of_other_vertex_dimensions_rejected(tmp_path, keyword):
    path = tmp_path / "bad.off"
    path.write_text(_SQUARE_OFF.replace("OFF", keyword))
    with pytest.raises(MeshError, match=re.escape(
            f"{path}: {keyword} is not supported: only 3-D OFF vertices "
            "are read")):
        load_mesh(path)


@pytest.mark.parametrize("text, message", [
    (_SQUARE_OFF.replace("3 0 1 2", "3 0 1.5 2"),
     "OFF face index is not an integer"),
    (_SQUARE_OFF.replace("3 0 1 2", "3 0 1.5 2 255 0 0"),
     "OFF face index is not an integer"),
    (_SQUARE_OFF.replace("3 0 2 3", "3 0 2 inf"),
     "OFF face index is not an integer"),
    # One vertex per line: a vertex split over two lines is short.
    (_SQUARE_OFF.replace("1 0 0\n", "1 0\n0\n"),
     "OFF data has fewer values than its header declares"),
    (_SQUARE_OFF.replace("4 2 0", "4 1 0").replace(
        "3 0 1 2\n3 0 2 3", "4 0 1 2 3 255 0 0"),
     "only triangular faces supported"),
    ("OFF\n4\n0 0 0\n", "malformed OFF data: not enough values to unpack"),
    ("OFF\n4 x 0\n", "malformed OFF data: invalid literal for int()"),
    ("OFFX\n3 1 0\n", "missing OFF header"),
], ids=["index_not_integral", "index_not_integral_with_color",
        "index_not_finite", "split_vertex", "quad_with_color",
        "one_count", "count_not_an_integer", "not_the_off_keyword"])
def test_malformed_off_rows_rejected(tmp_path, text, message):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(MeshError, match=re.escape(f"{path}: {message}")):
        load_mesh(path)


def test_binary_ply_float_indices_must_be_integers(tmp_path, square_grid):
    # The index rule of ASCII PLY and OFF holds for a binary float list.
    header = ["ply", "format binary_little_endian 1.0", "element vertex 4",
              "property double x", "property double y", "property double z",
              "element face 2", "property list uchar float vertex_indices",
              "end_header"]
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], "<f8")
    path = tmp_path / "float.ply"
    for second, ok in (((0, 2, 3), True), ((0, 2.5, 3), False)):
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            fh.write(verts.tobytes())
            fh.write(struct.pack("<B3f", 3, 0, 1, 2))
            fh.write(struct.pack("<B3f", 3, *second))
        if ok:
            assert load_mesh(path).triangles.tolist() == [[0, 1, 2], [0, 2, 3]]
        else:
            with pytest.raises(MeshError, match=re.escape(
                    f"{path}: ply face index is not an integer")):
                load_mesh(path)


def test_vertex_areas_equilateral(equilateral):
    s = equilateral.vertex_areas()
    expected = (np.sqrt(3) / 4) / 3
    assert np.allclose(s, expected)


def test_vertex_areas_sum(square_grid, sphere):
    for mesh in (square_grid, sphere):
        assert np.isclose(mesh.vertex_areas().sum(), mesh.total_area)


def _vertex_areas_add_at(mesh):
    s = np.zeros(mesh.n_vertices)
    np.add.at(s, mesh.triangles.reshape(-1),
              np.repeat(mesh.triangle_areas / 3.0, 3))
    return s


def _vertex_normals_add_at(mesh):
    p = mesh.vertices[mesh.triangles]
    nrm = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    out = np.zeros_like(mesh.vertices)
    for c in range(3):
        np.add.at(out, mesh.triangles[:, c], nrm)
    lens = np.linalg.norm(out, axis=1)
    lens[lens == 0] = 1.0
    return out / lens[:, None]


@pytest.mark.parametrize("dropped", [False, True])
def test_vertex_sums_equal_add_at(bumpy, dropped):
    # Areas sum triangle by triangle, normals corner 0 of every triangle
    # first, then corner 1, then corner 2; both bit for bit.
    mesh = bumpy
    if dropped:  # the triangles around vertex 0 go, and vertex 0 with them
        mesh = TriangleMesh(bumpy.vertices,
                            bumpy.triangles[(bumpy.triangles != 0).all(axis=1)])
        assert mesh.n_vertices == bumpy.n_vertices - 1
    assert mesh.vertex_areas().tobytes() == _vertex_areas_add_at(mesh).tobytes()
    assert mesh.vertex_normals().tobytes() == \
        _vertex_normals_add_at(mesh).tobytes()


def test_corner_vertex_area():
    mesh = grid_mesh(2)
    s = mesh.vertex_areas()
    # Vertex 0 is the (0, 0) corner; enumerate its incident triangles.
    incident = [j for j, t in enumerate(mesh.triangles) if 0 in t]
    expected = sum(mesh.triangle_areas[j] for j in incident) / 3.0
    assert np.isclose(s[0], expected)


def test_geodesic_identity(square_grid):
    d = square_grid.geodesic_distances(5)
    assert d[5] == 0.0


def test_geodesic_strip_chain():
    # 3x1 strip of unit squares: straight boundary path has length 3.
    mesh = grid_mesh(3, 1, width=3.0, height=1.0)
    corner_a = int(np.argmin(np.linalg.norm(mesh.vertices - [0, 0, 0], axis=1)))
    corner_b = int(np.argmin(np.linalg.norm(mesh.vertices - [3, 0, 0], axis=1)))
    d = mesh.geodesic_distances(corner_a)
    assert np.isclose(d[corner_b], 3.0)


def test_geodesic_unit_square_diagonal(fine_grid):
    corner_a = int(np.argmin(np.linalg.norm(fine_grid.vertices - [0, 0, 0], axis=1)))
    corner_b = int(np.argmin(np.linalg.norm(fine_grid.vertices - [1, 1, 0], axis=1)))
    d = fine_grid.geodesic_distances(corner_a)
    assert abs(d[corner_b] - np.sqrt(2)) / np.sqrt(2) < 0.08


def test_geodesic_symmetry(square_grid):
    a, b = 3, 77
    assert np.isclose(square_grid.geodesic_distances(a)[b],
                      square_grid.geodesic_distances(b)[a])


def test_geodesic_edge_inequality(square_grid):
    d = square_grid.geodesic_distances(0)
    for u, v in square_grid.edges:
        length = np.linalg.norm(square_grid.vertices[u] - square_grid.vertices[v])
        assert d[u] <= d[v] + length + 1e-12


def test_geodesic_limit_keeps_exact_distances(bumpy):
    sources = np.arange(0, bumpy.n_vertices, 37)
    full = bumpy.geodesic_distances(sources)
    limit = float(np.median(full))
    bounded = bumpy.geodesic_distances(sources, limit=limit)
    within = full <= limit
    assert within.any() and not within.all()
    assert np.array_equal(bounded[within], full[within])
    assert np.all(np.isinf(bounded[~within]))


def test_geodesic_source_out_of_range(square_grid):
    with pytest.raises(IndexError):
        square_grid.geodesic_distances(square_grid.n_vertices)


def test_fps_single(square_grid):
    samples, dmin = square_grid.farthest_point_sample(1, 17)
    assert samples == [17]
    assert np.array_equal(dmin, square_grid.geodesic_distances(17))


def test_fps_strip_opposite_end():
    mesh = grid_mesh(4, 1, width=4.0, height=0.5)
    corner_a = int(np.argmin(np.linalg.norm(mesh.vertices - [0, 0, 0], axis=1)))
    samples, _ = mesh.farthest_point_sample(2, corner_a)
    d = mesh.geodesic_distances(corner_a)
    assert d[samples[1]] == d.max()


def test_fps_grid_corners(fine_grid):
    center = int(np.argmin(
        np.linalg.norm(fine_grid.vertices - [0.5, 0.5, 0], axis=1)))
    samples, dmin = fine_grid.farthest_point_sample(5, center)
    corners = set()
    for cx in (0.0, 1.0):
        for cy in (0.0, 1.0):
            corners.add(int(np.argmin(
                np.linalg.norm(fine_grid.vertices - [cx, cy, 0], axis=1))))
    assert corners.issubset(set(samples))
    # Brute-force max-min verification of the greedy choices.
    d0 = fine_grid.geodesic_distances(center)
    assert samples[1] == int(np.argmax(d0))
    # The distances are those to the nearest sample.
    assert np.array_equal(dmin, fine_grid.geodesic_distances(samples).min(axis=0))


def test_fps_count_too_large(square_grid):
    with pytest.raises(ValueError):
        square_grid.farthest_point_sample(square_grid.n_vertices + 1, 0)


@pytest.mark.filterwarnings("ignore:mesh is not consistently orientable")
def test_non_manifold_rejected():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, 0]],
                 dtype=float)
    t = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]  # edge (0,1) in three triangles
    with pytest.raises(MeshError, match="non-manifold"):
        TriangleMesh(v, t)


def test_degenerate_triangle_rejected():
    v = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    with pytest.raises(MeshError, match="degenerate"):
        TriangleMesh(v, [[0, 1, 2]])


@pytest.mark.parametrize("vertices, triangles, message", [
    (np.zeros((3, 2)), [[0, 1, 2]], "vertices must have shape (n, 3)"),
    (np.eye(4, 3), [[0, 1, 2, 3]], "triangles must have shape (m, 3)"),
], ids=["planar_vertices", "quad"])
def test_arrays_of_the_wrong_form_rejected(vertices, triangles, message):
    with pytest.raises(MeshError, match=re.escape(message)):
        TriangleMesh(vertices, triangles)


@pytest.mark.parametrize("exponent", [-600, -517, -269, -255, 0, 500])
def test_degeneracy_does_not_depend_on_scale(square_grid, exponent):
    # Scaled by a power of two, a mesh keeps its areas, scaled exactly or
    # rounded once to subnormals, and is rejected where they round to 0
    # (2^-600); a sliver stays degenerate.
    vertices = np.ldexp(square_grid.vertices, exponent)
    areas = np.ldexp(square_grid.triangle_areas, 2 * exponent)
    assert areas.all() == (exponent > -600)
    if areas.all():
        mesh = TriangleMesh(vertices, square_grid.triangles)
        assert mesh.triangle_areas.tobytes() == areas.tobytes()
    else:
        with pytest.raises(MeshError, match="areas underflow at this scale"):
            TriangleMesh(vertices, square_grid.triangles)
    sliver = np.ldexp([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-13, 0.0]],
                      exponent)
    with pytest.raises(MeshError, match="degenerate triangle 0"):
        TriangleMesh(sliver, [[0, 1, 2]])
    # Three coincident vertices have no extent at any scale.
    with pytest.raises(MeshError, match=re.escape(
            "degenerate triangle 0 (area 0.000e+00)")):
        TriangleMesh(np.ldexp(np.ones((3, 3)), exponent), [[0, 1, 2]])


def test_areas_that_underflow_are_rejected(tiny_grid_off):
    # Coordinates near 2^-600 pass the scale-free degeneracy test, but
    # their triangle areas round to 0.
    path, mesh = tiny_grid_off
    message = (r"triangle 0 has area 0: the areas underflow at this scale "
               r"\(extent 2\.410e-181\)")
    with pytest.raises(MeshError, match="^" + message):
        TriangleMesh(mesh.vertices, mesh.triangles)
    with pytest.raises(MeshError, match=f"^{re.escape(str(path))}: {message}"):
        load_mesh(path)


def test_repeated_index_rejected():
    v = np.eye(3)
    with pytest.raises(MeshError, match="repeated"):
        TriangleMesh(v, [[0, 1, 1]])


def test_empty_mesh_rejected():
    with pytest.raises(MeshError, match="empty"):
        TriangleMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))


def test_index_out_of_range_rejected():
    v = np.eye(3)
    with pytest.raises(MeshError, match="out of range"):
        TriangleMesh(v, [[0, 1, 7]])


def test_unreferenced_vertices_dropped():
    v = np.array([[0, 0, 0], [5, 5, 5], [1, 0, 0], [0, 1, 0]], dtype=float)
    mesh = TriangleMesh(v, [[0, 2, 3]])
    assert mesh.n_vertices == 3
    assert list(mesh.kept_vertices) == [0, 2, 3]


@pytest.mark.parametrize("triangles", [[[0, 1, 2], [0, 2, 3]], [[0, 2, 3]]],
                         ids=["all_kept", "one_dropped"])
def test_caller_arrays_stay_writeable_and_unchanged(triangles):
    v = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    t = np.array(triangles, dtype=np.int64)
    v0, t0 = v.copy(), t.copy()
    mesh = TriangleMesh(v, t)
    assert v.flags.writeable and t.flags.writeable
    assert v.tobytes() == v0.tobytes() and t.tobytes() == t0.tobytes()
    v[0] = 7.0
    assert mesh.vertices[0].tolist() == [0.0, 0.0, 0.0]
    assert not mesh.vertices.flags.writeable


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_mesh(tmp_path / "nope.off")


def test_malformed_off_rejected(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshError):
        load_mesh(path)


def test_multi_component_warns():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                  [5, 0, 0], [6, 0, 0], [5, 1, 0]], dtype=float)
    t = [[0, 1, 2], [3, 4, 5]]
    with pytest.warns(UserWarning, match="components"):
        TriangleMesh(v, t)


def test_orientation_consistency(sphere):
    # Closed oriented mesh: every interior edge appears once per direction.
    directed = set()
    for a, b, c in sphere.triangles:
        for e in ((a, b), (b, c), (c, a)):
            assert e not in directed
            directed.add(e)


def test_edge_table_of_oriented_triangles(square_grid):
    # The table _orient builds serves the mesh when no triangle flips; a
    # flip renumbers the edges, so then the mesh builds its own.
    t = square_grid.triangles.copy()
    t[1::3] = t[1::3, ::-1]
    flipped = TriangleMesh(square_grid.vertices, t)
    assert np.array_equal(flipped.triangles, square_grid.triangles)
    assert not np.array_equal(edge_table(t)[2],
                              edge_table(flipped.triangles)[2])
    for mesh in (square_grid, flipped):
        for got, want in zip(mesh._edge_data, edge_table(mesh.triangles)):
            assert np.array_equal(got, want)

