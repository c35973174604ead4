"""Property tests of the mesh topology: edge numbering, orientation,
geodesics and subdivision, with per-triangle loop versions as references;
and of the mesh files, which give back every coordinate bit for bit."""

import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from pfmatch.bench import (bumpy_sphere, erode_holes, grid_mesh, icosphere,
                           plane_cut)
from pfmatch.mesh import (MeshError, TriangleMesh, edge_table, load_mesh,
                          save_off, save_ply)

seeds = st.integers(0, 2 ** 32 - 1)


@functools.cache
def meshes():
    bumpy = bumpy_sphere(2)
    cut, _ = plane_cut(bumpy, [0.0, 0.0, -0.2], [0.2, 0.1, 1.0])
    eroded, _ = erode_holes(bumpy, 2, 0.7)
    return {"icosphere": icosphere(2), "bumpy": bumpy, "grid": grid_mesh(6, 4),
            "cut": cut, "eroded": eroded}


def signed_volume(mesh):
    p = mesh.vertices[mesh.triangles]
    return np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2])) / 6.0


def moebius_strip(n=12, half_width=0.3):
    th = 2 * np.pi * np.arange(n) / n
    verts = []
    for s in (-half_width, half_width):
        r = 1 + s * np.cos(th / 2)
        verts.append(np.column_stack([r * np.cos(th), r * np.sin(th),
                                      s * np.sin(th / 2)]))
    verts = np.stack(verts, axis=1).reshape(-1, 3)  # 2i inner, 2i+1 outer
    tris = []
    for i in range(n):
        a, b = 2 * i, 2 * i + 1
        c, d = (2 * i + 2, 2 * i + 3) if i + 1 < n else (1, 0)  # the half twist
        tris += [[a, b, d], [a, d, c]]
    return verts, np.asarray(tris)


# -- loop references ------------------------------------------------------


def reference_orient(vertices, triangles):
    """Depth-first propagation of the orientation of each component's first
    triangle; closed components then turn to positive signed volume."""
    t = np.array(triangles)
    edge_tris = {}
    for j, tri in enumerate(t):
        for u, w in zip(tri, np.roll(tri, -1)):
            edge_tris.setdefault((min(u, w), max(u, w)), []).append(j)

    def directed(tri):
        return list(zip(tri, np.roll(tri, -1)))

    visited = np.zeros(len(t), dtype=bool)
    for start in range(len(t)):
        if visited[start]:
            continue
        comp, stack = [start], [start]
        visited[start] = True
        while stack:
            j = stack.pop()
            for u, w in directed(t[j]):
                for jn in edge_tris[(min(u, w), max(u, w))]:
                    if not visited[jn]:
                        if (u, w) in directed(t[jn]):
                            t[jn] = t[jn][::-1]
                        visited[jn] = True
                        comp.append(jn)
                        stack.append(jn)
        p = vertices[t[comp]]
        vol = np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2]))
        closed = all(len(edge_tris[(min(u, w), max(u, w))]) == 2
                     for j in comp for u, w in directed(t[j]))
        if closed and vol < 0:
            t[comp] = t[comp][:, ::-1]
    return t


def reference_geodesic_graph(mesh):
    """Vertex--midpoint halves of every edge, and per triangle the
    midpoint--midpoint and vertex--opposite-midpoint shortcuts."""
    n, verts = mesh.n_vertices, list(mesh.vertices)
    mid_of, links = {}, []

    def mid(u, w):
        key = (min(u, w), max(u, w))
        if key not in mid_of:
            mid_of[key] = len(verts)
            verts.append(0.5 * (mesh.vertices[u] + mesh.vertices[w]))
            links.extend([(u, mid_of[key]), (w, mid_of[key])])
        return mid_of[key]

    for a, b, c in mesh.triangles:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        links += [(mab, mbc), (mbc, mca), (mca, mab), (a, mbc), (b, mca), (c, mab)]
    pos = np.asarray(verts)
    rows, cols = np.asarray(links).T
    w = np.linalg.norm(pos[rows] - pos[cols], axis=1)
    g = csr_matrix((w, (rows, cols)), shape=(len(pos), len(pos)))
    g = g.maximum(g.T)
    assert len(pos) == n + len(mesh.edges)
    return g


def reference_icosphere(subdivisions):
    """Midpoint-cache subdivision of the icosahedron, projected per vertex."""
    base = icosphere(0)
    verts, tris = list(base.vertices), base.triangles
    for _ in range(subdivisions):
        cache, new_tris = {}, []

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = verts[a] + verts[b]
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_tris += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        tris = np.asarray(new_tris)
    return np.asarray(verts), tris


def random_rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@given(nx=st.integers(1, 6), ny=st.integers(1, 6), seed=seeds)
def test_edge_table_numbers_edges_in_order_of_appearance(nx, ny, seed):
    t = np.random.default_rng(seed).permutation(grid_mesh(nx, ny).triangles)
    edges, counts, tri_edges = edge_table(t)
    for c, (i, j) in enumerate([(0, 1), (1, 2), (2, 0)]):
        assert np.array_equal(edges[tri_edges[:, c]], np.sort(t[:, [i, j]], axis=1))
    first_use = np.unique(tri_edges.ravel(), return_index=True)[1]
    assert np.all(np.diff(first_use) > 0)
    assert np.array_equal(counts, np.bincount(tri_edges.ravel()))
    assert len(np.unique(edges, axis=0)) == len(edges)


@pytest.mark.parametrize("name", ["icosphere", "bumpy", "grid", "cut", "eroded"])
@given(seed=seeds)
def test_orientation_survives_random_flips(name, seed):
    mesh = meshes()[name]
    t = mesh.triangles.copy()
    flip = np.random.default_rng(seed).random(len(t)) < 0.5
    t[flip] = t[flip][:, ::-1]
    got = TriangleMesh(mesh.vertices, t).triangles
    assert np.array_equal(got, reference_orient(mesh.vertices, t))
    # An open mesh takes the orientation of its first triangle.
    reverse = flip[0] and len(mesh.boundary_edges) > 0
    assert np.array_equal(got, mesh.triangles[:, ::-1] if reverse else mesh.triangles)


@pytest.mark.parametrize("name", ["bumpy", "grid", "cut", "eroded"])
def test_geodesics_match_loop_reference(name):
    mesh = meshes()[name]
    sources = np.arange(0, mesh.n_vertices, 7)
    expected = dijkstra(reference_geodesic_graph(mesh), directed=False,
                        indices=sources)[:, :mesh.n_vertices]
    assert np.array_equal(mesh.geodesic_distances(sources), expected)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_icosphere_matches_loop_reference(s):
    verts, tris = reference_icosphere(s)
    mesh = icosphere(s)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, tris)


@pytest.mark.parametrize("name", ["icosphere", "bumpy"])
def test_reversed_closed_sphere_turns_outward(name):
    mesh = meshes()[name]
    again = TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1])
    assert signed_volume(again) > 0
    assert np.array_equal(again.triangles, mesh.triangles)


def test_moebius_strip_warns_not_orientable():
    verts, tris = moebius_strip()
    with pytest.warns(UserWarning, match="not consistently orientable"):
        mesh = TriangleMesh(verts, tris)
    assert len(mesh.boundary_edges) > 0


@pytest.mark.parametrize("name", ["bumpy", "cut"])
@given(seed=seeds)
def test_geodesics_invariant_under_relabelling(name, seed):
    mesh = meshes()[name]
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.n_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[new_id] = mesh.vertices
    tris = rng.permutation(new_id[mesh.triangles])
    relabelled = TriangleMesh(verts, tris)
    sources = rng.choice(mesh.n_vertices, size=3, replace=False)
    d = mesh.geodesic_distances(sources)
    d_new = relabelled.geodesic_distances(new_id[sources])[:, new_id]
    assert np.allclose(d_new, d, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["bumpy", "cut"])
@given(seed=seeds)
def test_geodesics_invariant_under_rigid_motion(name, seed):
    mesh = meshes()[name]
    rng = np.random.default_rng(seed)
    moved = TriangleMesh(mesh.vertices @ random_rotation(rng).T
                         + rng.uniform(-5, 5, size=3), mesh.triangles)
    sources = rng.choice(mesh.n_vertices, size=3, replace=False)
    assert np.allclose(moved.geodesic_distances(sources),
                       mesh.geodesic_distances(sources), rtol=1e-9, atol=1e-12)


def subdivide_loop(mesh):
    """1-to-4 subdivision of a unit-sphere mesh, triangle by triangle: one
    vertex per edge of ``mesh.edges``, at its midpoint pushed out to the
    sphere, appended in edge order."""
    n = mesh.n_vertices
    index = {tuple(e): n + i for i, e in enumerate(mesh.edges.tolist())}
    verts = list(mesh.vertices)
    for a, b in mesh.edges:
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        verts.append(mid / np.sqrt(mid @ mid))
    tris = []
    for a, b, c in mesh.triangles.tolist():
        ab, bc, ca = (index[tuple(sorted(e))] for e in ((a, b), (b, c), (c, a)))
        tris += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return np.array(verts), np.array(tris)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_icosphere_subdivides_coarser_edges(s):
    coarse, fine = icosphere(s), icosphere(s + 1)
    verts, tris = subdivide_loop(coarse)
    assert fine.n_triangles == 4 * coarse.n_triangles
    assert fine.vertices.tobytes() == verts.tobytes()
    assert np.array_equal(fine.triangles, tris)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_icosphere_vertices_are_nested(s):
    coarse, fine = icosphere(s), icosphere(s + 1)
    assert np.array_equal(fine.vertices[:coarse.n_vertices], coarse.vertices)
    assert np.allclose(np.linalg.norm(fine.vertices, axis=1), 1.0)


# TriangleMesh tests degeneracy on edges scaled to the mesh's bounding box,
# so a mesh passes at every scale at which its areas fit in a double.  The
# exponent starts at -1022: from about 2^-1038 down, the subnormal heights
# outgrow the grid, whose triangles then fall under 1e-12 of the box's
# squared diagonal, which is degenerate at any scale.
@given(nx=st.integers(1, 4), ny=st.integers(1, 3),
       exponent=st.integers(-1022, 500),
       colored=st.booleans(), seed=seeds)
def test_mesh_files_round_trip_bit_exact(nx, ny, exponent, colored, seed):
    # A jittered grid scaled by 2^exponent, from 2e-308 to 3e150, with
    # heights drawn from -0.0, subnormals and values of the grid's scale.
    rng = np.random.default_rng(seed)
    grid = grid_mesh(nx, ny)
    n = grid.n_vertices
    jitter = rng.uniform(-0.2, 0.2, size=(n, 2)) / max(nx, ny)
    subnormal = rng.integers(1, 2 ** 52, size=n).view(np.float64)
    heights = np.choose(rng.integers(0, 3, size=n),
                        [np.full(n, -0.0), subnormal * rng.choice([-1, 1], n),
                         np.ldexp(rng.uniform(-1, 1, size=n), exponent)])
    verts = np.column_stack([np.ldexp(grid.vertices[:, :2] + jitter, exponent),
                             heights])
    try:
        mesh = TriangleMesh(verts, grid.triangles)
    except MeshError as exc:
        # Below about 2^-537 the triangle areas round to 0: no mesh exists
        # to write.
        assert "areas underflow at this scale" in str(exc)
        assert exponent < -500
        return
    colors = rng.integers(0, 256, size=(n, 3), dtype=np.uint8) if colored else None
    writers = {"binary.ply": lambda p: save_ply(mesh, p, colors=colors),
               "ascii.ply": lambda p: save_ply(mesh, p, binary=False, colors=colors),
               "mesh.off": lambda p: save_off(mesh, p)}
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in writers.items():
            path = os.path.join(tmp, name)
            write(path)
            back = load_mesh(path)
            assert back.vertices.tobytes() == mesh.vertices.tobytes(), name
            assert np.array_equal(back.triangles, mesh.triangles), name
