"""Triangle mesh representation, OFF/PLY I/O and geometric primitives.

A :class:`TriangleMesh` holds read-only copies of its input arrays and
computes derived structure (edge table, triangle metric, geodesic graph)
once, on first use.
Geodesic distances use Dijkstra on the edge graph augmented with
edge-midpoint Steiner points, which keeps the graph-metric error small
enough for evaluation purposes.
"""

import codecs
import os
import re
import warnings
from functools import cached_property
from itertools import chain, islice

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

DEGENERATE_AREA_FACTOR = 1e-12


class MeshError(ValueError):
    """Raised for invalid mesh content (parse failures, non-manifoldness...)."""


class TriangleMesh:
    """Manifold triangle mesh with vertices (n, 3) and triangles (m, 3).

    Unreferenced vertices are dropped at construction time; the original
    indices of the kept vertices are recorded in ``kept_vertices``.  The
    caller's arrays are copied, never frozen or changed.
    Triangle orientation is made consistent per connected component whenever
    the component is orientable.
    """

    def __init__(self, vertices, triangles):
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        t = np.ascontiguousarray(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError("vertices must have shape (n, 3)")
        if t.size == 0:
            raise MeshError("empty mesh: no triangles")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError("triangles must have shape (m, 3)")
        if not np.all(np.isfinite(v)):
            raise MeshError("non-finite vertex coordinates")
        if t.min() < 0 or t.max() >= len(v):
            raise MeshError("triangle index out of range")
        if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
            raise MeshError("degenerate triangle with repeated vertex index")

        # Keep the referenced vertices, in order, as the mesh's own copy.
        used = np.bincount(t.ravel(), minlength=len(v)) > 0
        self.kept_vertices = np.flatnonzero(used)
        self.vertices = v[self.kept_vertices]
        self.triangles, edges = self._orient(self.vertices,
                                             (np.cumsum(used) - 1)[t])
        if edges is not None:
            self._edge_data = edges
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)
        self._validate_geometry()

    # -- basic quantities ---------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def triangle_areas(self):
        return self._tri_areas

    @property
    def total_area(self):
        return float(self._tri_areas.sum())

    def vertex_areas(self):
        """Lumped per-vertex areas: one third of the incident triangle areas,
        summed triangle by triangle."""
        return np.bincount(self.triangles.ravel(), minlength=self.n_vertices,
                           weights=np.repeat(self._tri_areas / 3.0, 3))

    def vertex_normals(self):
        """Area-weighted average of incident triangle normals, summed over
        corner 0 of every triangle, then corner 1, then corner 2."""
        p = self.vertices[self.triangles]
        nrm = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])  # 2*area*unit normal
        corners = self.triangles.T.ravel()
        out = np.stack([np.bincount(corners, weights=np.tile(w, 3),
                                    minlength=self.n_vertices) for w in nrm.T],
                       axis=1)
        lens = np.linalg.norm(out, axis=1)
        lens[lens == 0] = 1.0
        return out / lens[:, None]

    # -- edge structure -----------------------------------------------------

    @cached_property
    def _edge_data(self):
        return edge_table(self.triangles)

    @property
    def edges(self):
        return self._edge_data[0]

    @property
    def boundary_edges(self):
        edges, counts, _ = self._edge_data
        return edges[counts == 1]

    @cached_property
    def triangle_metric(self):
        """Per-triangle first fundamental form coefficients (E, F, G)."""
        p = self.vertices[self.triangles]
        e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        return tuple(np.einsum("ij,ij->i", a, b)
                     for a, b in ((e1, e1), (e1, e2), (e2, e2)))

    # -- geodesics ----------------------------------------------------------

    @cached_property
    def _geodesic_graph(self):
        """Edge graph plus midpoint Steiner nodes and intra-triangle shortcuts."""
        n = self.n_vertices
        edges, _, tri_edges = self._edge_data
        mid = 0.5 * (self.vertices[edges[:, 0]] + self.vertices[edges[:, 1]])
        pos = np.vstack([self.vertices, mid])
        # Edge halves (vertex--midpoint), then per triangle the shortcuts
        # midpoint--next midpoint and vertex--opposite midpoint.
        m_ids = n + np.arange(len(edges))
        tri_mids = n + tri_edges  # midpoints of ab, bc, ca
        opposite = tri_mids[:, [1, 2, 0]]
        rows = np.concatenate([edges[:, 0], edges[:, 1], tri_mids.ravel(),
                               self.triangles.ravel()])
        cols = np.concatenate([m_ids, m_ids, opposite.ravel(), opposite.ravel()])
        w = np.linalg.norm(pos[rows] - pos[cols], axis=1)
        g = csr_matrix((w, (rows, cols)), shape=(len(pos), len(pos)))
        return g.maximum(g.T)

    def geodesic_distances(self, source, limit=np.inf):
        """Graph-geodesic distances from one source vertex (or several).

        Returns a length-n vector for a scalar source, or a (len(sources), n)
        matrix.  Unreachable vertices get +inf, and so do vertices farther
        than ``limit``; Dijkstra stops there.  Every finite distance equals
        the unbounded one: edge weights are non-negative, so a shortest path
        within the limit runs through nodes within it, and reaches each in
        the same sums.
        """
        sources = np.atleast_1d(np.asarray(source, dtype=np.int64))
        if sources.min() < 0 or sources.max() >= self.n_vertices:
            raise IndexError("source vertex index out of range")
        d = dijkstra(self._geodesic_graph, directed=False, indices=sources,
                     limit=limit)[:, : self.n_vertices]
        return d[0] if np.isscalar(source) or np.ndim(source) == 0 else d

    def farthest_point_sample(self, count, seed):
        """Greedy max-min geodesic sampling starting from ``seed``: the samples
        and each vertex's distance to the nearest one."""
        if not 1 <= count <= self.n_vertices:
            raise ValueError(f"count {count} is outside 1..{self.n_vertices}")
        samples = [int(seed)]
        dmin = self.geodesic_distances(int(seed))
        for _ in range(count - 1):
            nxt = int(np.argmax(dmin))
            samples.append(nxt)
            dmin = np.minimum(dmin, self.geodesic_distances(nxt))
        return samples, dmin

    # -- derived meshes -----------------------------------------------------

    def submesh(self, vertex_ids):
        """Mesh induced by the given vertex set (triangles fully inside).

        Returns (mesh, vertex_map) where vertex_map[i] is the parent index of
        submesh vertex i.
        """
        keep = np.zeros(self.n_vertices, dtype=bool)
        keep[np.asarray(vertex_ids, dtype=np.int64)] = True
        tri_keep = keep[self.triangles].all(axis=1)
        if not tri_keep.any():
            raise MeshError("vertex set induces no triangles")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sub = TriangleMesh(self.vertices, self.triangles[tri_keep])
        return sub, sub.kept_vertices

    # -- internals ----------------------------------------------------------

    def _validate_geometry(self):
        # Edges scaled by the 2^-e that puts the box's largest extent in
        # [1/2, 1): exact, and no square under- or overflows, so the
        # degeneracy test does not depend on the unit of the mesh.
        ext = np.ptp(self.vertices, axis=0)
        e = int(np.frexp(ext.max())[1])
        p = self.vertices[self.triangles]
        d = np.ldexp(p[:, 1:] - p[:, :1], -e)
        scaled = 0.5 * np.linalg.norm(np.cross(d[:, 0], d[:, 1]), axis=1)
        areas = np.ldexp(scaled, 2 * e)
        # Coincident vertices have no extent, so no threshold to fall under.
        thresh = DEGENERATE_AREA_FACTOR * np.sum(np.ldexp(ext, -e) ** 2)
        if thresh == 0 or np.any(scaled < thresh):
            bad = int(np.argmin(scaled))
            raise MeshError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")
        if not areas.all():
            bad = int(np.argmin(areas))
            raise MeshError(f"triangle {bad} has area 0: the areas underflow "
                            f"at this scale (extent {ext.max():.3e})")
        self._tri_areas = areas
        edges, counts, _ = self._edge_data
        if counts.max() > 2:
            bad = edges[np.argmax(counts)]
            raise MeshError(f"non-manifold edge {tuple(bad.tolist())}: "
                            f"{counts.max()} incident triangles")
        adjacency = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                               shape=(self.n_vertices, self.n_vertices))
        ncomp = connected_components(adjacency, directed=False)[0]
        if ncomp > 1:
            warnings.warn(f"mesh has {ncomp} connected components", stacklevel=3)

    @staticmethod
    def _orient(vertices, triangles):
        """Orient each component consistently with its first triangle; flip
        closed components to positive signed volume.

        Node j of the orientation double cover is triangle j as given and
        node j + m the same triangle flipped.  The two triangles on an edge
        link the nodes that traverse the edge in opposite directions, so a
        component is orientable exactly when no j and j + m share a node
        component.  Returns the oriented triangles and their edge table, or
        None in its place when a triangle was flipped, which renumbers the
        edges.
        """
        m = len(triangles)
        table = edges, counts, tri_edges = edge_table(triangles)
        slot_edge = tri_edges.ravel()
        forward = triangles.ravel() == edges[slot_edge, 0]
        order = np.argsort(slot_edge, kind="stable")
        paired = slot_edge[order[:-1]] == slot_edge[order[1:]]
        s1, s2 = order[:-1][paired], order[1:][paired]
        shift = m * (forward[s1] == forward[s2])
        j1, j2 = s1 // 3, s2 // 3
        cover = csr_matrix((np.ones(2 * len(j1)),
                            (np.concatenate([j1, j1 + m]),
                             np.concatenate([j2 + shift, j2 + m - shift]))),
                           shape=(2 * m, 2 * m))
        labels = connected_components(cover, directed=False)[1]
        # The two node components of a triangle component mirror each other.
        # Flip the triangles on the other side from the component's first
        # one; a non-orientable component has one side and stays as given.
        _, first, comp = np.unique(np.minimum(labels[:m], labels[m:]),
                                   return_index=True, return_inverse=True)
        flip = labels[:m] != labels[first[comp]]
        if np.any(labels[:m] == labels[m:]):
            warnings.warn("mesh is not consistently orientable", stacklevel=4)

        # Closed components turn outward: positive signed volume.
        p = vertices[triangles]
        vol = np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2]))
        vol = np.bincount(comp, weights=np.where(flip, -vol, vol))
        on_boundary = (counts[tri_edges] == 1).any(axis=1)
        is_open = np.bincount(comp, weights=on_boundary) > 0
        flip ^= ((vol < 0) & ~is_open)[comp]
        t = triangles.copy()
        t[flip] = t[flip][:, ::-1]
        return t, None if flip.any() else table


def edge_table(triangles):
    """Number the edges of a triangle array in one pass.

    Returns (edges, counts, tri_edges): the sorted vertex pairs, numbered in
    order of first appearance along each triangle's edges ab, bc, ca; the
    number of triangles on each edge; and the (m, 3) ids of each triangle's
    edges ab, bc, ca.
    """
    raw = np.sort(np.asarray(triangles)[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                  axis=1)
    key = raw[:, 0] * (raw[:, 1].max() + 1) + raw[:, 1]  # one integer per pair
    _, first, inverse, counts = np.unique(key, return_index=True,
                                          return_inverse=True,
                                          return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return raw[first[order]], counts[order], rank[inverse].reshape(-1, 3)


# -- file I/O ----------------------------------------------------------------


def load_mesh(path):
    """Load an OFF or PLY mesh (ascii or binary-little-endian PLY).

    The format is named by the first word of the first line that is
    neither blank nor a ``#`` comment, after any UTF-8 byte-order mark.
    """
    path = str(path)
    with open(path, "rb") as fh:
        keyword = next(_text_rows(fh), b"").split()[:1]
    if keyword == [b"ply"]:
        v, t = _read_ply(path)
    elif keyword and b"OFF" in keyword[0]:
        v, t = _read_off(path)
    else:
        raise MeshError(f"{path}: unrecognized mesh format")
    try:
        return TriangleMesh(v, t)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc


def _text_rows(fh):
    """The lines of a text file opened in binary, with a leading UTF-8
    byte-order mark, ``#`` comments and blank lines dropped."""
    lines = chain([fh.readline().removeprefix(codecs.BOM_UTF8)], fh)
    return (r for r in (ln.split(b"#", 1)[0] for ln in lines) if r.strip())


# Geomview's OFF keywords: [ST][C][N][4][n]OFF.  The ST, C and N prefixes
# add texture coordinates, a color and a normal after a vertex's x y z,
# which the row reader reads past; 4 and n change the vertex dimension.
_OFF_KEYWORD = re.compile(rb"(ST)?C?N?(?P<dim>4?n?)OFF")


def _read_off(path):
    with open(path, "rb") as fh:
        lines = _text_rows(fh)
        head = next(lines, b"").split()
        keyword = _OFF_KEYWORD.fullmatch(head[0]) if head else None
        if keyword is None:
            raise MeshError(f"{path}: missing OFF header")
        if keyword["dim"]:
            raise MeshError(f"{path}: {head[0].decode()} is not supported: "
                            "only 3-D OFF vertices are read")
        # Counts on the OFF line or the next; the edge count may be absent.
        try:
            nv, nf = map(int, (head[1:] or next(lines, b"").split())[:2])
            if nv < 0 or nf < 0:
                raise ValueError("negative element count")
        except ValueError as exc:
            raise MeshError(f"{path}: malformed OFF data: {exc}") from exc
        verts = _ply_element(lines, nv, [(c, "double", 1) for c in "xyz"],
                             False, path, "OFF")
        faces = _ply_element(lines, nf, [("idx.count", "uchar", 1),
                                         ("idx", "int", 3)], False, path, "OFF")
    return np.column_stack([verts[c] for c in "xyz"]), faces["idx"]


_PLY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def _read_ply(path):
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise MeshError(f"{path}: missing ply header")
        fmt = None
        elements = []  # (name, count, [(field, ply type, width)])
        while True:
            line = fh.readline()
            if not line:
                raise MeshError(f"{path}: unterminated ply header")
            parts = line.decode("ascii", "replace").split()
            if not parts or parts[0] == "comment":
                continue
            if parts[0] == "end_header":
                break
            if parts[0] == "property" and not elements:
                raise MeshError(f"{path}: ply property before any element")
            try:
                if parts[0] == "format":
                    fmt = parts[1]
                elif parts[0] == "element":
                    count = int(parts[2])
                    if count < 0:
                        raise ValueError("negative element count")
                    elements.append((parts[1], count, []))
                elif parts[0] == "property" and parts[1] == "list":
                    # Faces must be triangles, so a list property, whatever
                    # its name, is a fixed record of its count and 3 values.
                    elements[-1][2].extend([(parts[4] + ".count", parts[2], 1),
                                            (parts[4], parts[3], 3)])
                elif parts[0] == "property":
                    elements[-1][2].append((parts[2], parts[1], 1))
            except (ValueError, IndexError) as exc:
                raise MeshError(f"{path}: malformed ply header line "
                                f"{' '.join(parts)!r}") from exc
        if fmt is None:
            raise MeshError(f"{path}: ply header is missing format")
        if fmt not in ("ascii", "binary_little_endian"):
            raise MeshError(f"{path}: unsupported ply format {fmt}")
        verts = tris = None
        for name, count, fields in elements:
            if not fields:
                raise MeshError(f"{path}: ply element {name} has no "
                                "properties")
            data = _ply_element(fh, count, fields, fmt != "ascii", path)
            if name == "vertex":
                if not {"x", "y", "z"} <= set(data.dtype.names):
                    raise MeshError(f"{path}: vertex element lacks x/y/z")
                verts = np.column_stack([data["x"], data["y"], data["z"]])
            elif name == "face":
                key = next((f[0] for f in fields if f[2] == 3), None)
                if key is None:
                    raise MeshError(f"{path}: face element has no list property")
                tris = data[key]
    if verts is None or tris is None:
        raise MeshError(f"{path}: missing vertex or face element")
    return np.asarray(verts, dtype=np.float64), np.asarray(tris, dtype=np.int64)


def _ply_element(fh, count, fields, binary, path, label="ply"):
    """Read one PLY element, or one block of OFF rows, into records.

    Binary records take the declared types; text values are all read as
    float64, one row per line, ignoring values past the declared ones;
    neither reads past the end of the file, whatever the declared count.
    """
    try:
        dt = np.dtype([(name, "<" + _PLY_TYPES[ptype] if binary else "<f8",
                        (width,) if width > 1 else ())
                       for name, ptype, width in fields])
    except KeyError as exc:
        raise MeshError(f"{path}: unsupported ply property type "
                        f"{exc.args[0]}") from exc
    except ValueError as exc:  # a property name declared twice
        raise MeshError(f"{path}: malformed ply header: {exc}") from exc
    if binary:
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        buf = fh.read(min(dt.itemsize * count, left))
        raw = np.frombuffer(buf, dtype=dt, count=len(buf) // dt.itemsize)
        short = "truncated ply data"
    else:
        width = dt.itemsize // 8
        rows = [line.split()[:width] for line in islice(fh, count)]
        full = next((i for i, r in enumerate(rows) if len(r) < width), len(rows))
        try:
            values = np.array(rows[:full], dtype=np.float64).reshape(full, width)
        except ValueError as exc:
            raise MeshError(f"{path}: malformed {label} data: {exc}") from exc
        raw = values.view(dt)[:, 0]
        short = f"{label} data has fewer values than its header declares"
    # A short face also cuts the records short, so test the counts first.
    for name, _, width in fields:
        if width == 3 and (raw[name + ".count"] != 3).any():
            raise MeshError(f"{path}: only triangular faces supported")
        if width == 3 and raw[name].dtype.kind == "f" and not (
                np.isfinite(raw[name]).all() and (raw[name] % 1 == 0).all()):
            raise MeshError(f"{path}: {label} face index is not an integer")
    if len(raw) < count:
        raise MeshError(f"{path}: {short}")
    return raw


def _records(mesh, colors=None):
    """The rows of a mesh file as PLY's binary layout has them: x y z, and
    red green blue when colored, per vertex; 3 a b c per face."""
    rgb = [] if colors is None else [("rgb", "u1", (3,))]
    vertex = np.empty(mesh.n_vertices, dtype=[("xyz", "<f8", (3,))] + rgb)
    vertex["xyz"] = mesh.vertices
    if colors is not None:
        vertex["rgb"] = colors
    face = np.empty(mesh.n_triangles, dtype=[("count", "u1"), ("idx", "<i4", (3,))])
    face["count"], face["idx"] = 3, mesh.triangles
    return vertex, face


def _text(records):
    """Records as text rows: floats as %.17g, integers as %d."""
    cols = [records[name].reshape(len(records), -1) for name in records.dtype.names]
    row = " ".join("%.17g" if c.dtype.kind == "f" else "%d"
                   for c in cols for _ in range(c.shape[1])) + "\n"
    values = np.hstack([c.astype(object) for c in cols]).ravel().tolist()
    return row * len(records) % tuple(values)


def save_off(mesh, path):
    with open(path, "w") as fh:
        fh.write(f"OFF\n{mesh.n_vertices} {mesh.n_triangles} 0\n")
        for records in _records(mesh):
            fh.write(_text(records))


def save_ply(mesh, path, binary=True, colors=None):
    """Write PLY; ``colors`` is an optional (n, 3) uint8 per-vertex RGB array."""
    n, m = mesh.n_vertices, mesh.n_triangles
    if colors is not None:
        colors = np.asarray(colors, dtype=np.uint8)
        if colors.shape != (n, 3):
            raise ValueError("colors must have shape (n, 3)")
    header = ["ply",
              "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {n}",
              "property double x", "property double y", "property double z"]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [f"element face {m}", "property list uchar int vertex_indices",
               "end_header"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        for records in _records(mesh, colors):
            fh.write(records.tobytes() if binary else _text(records).encode("ascii"))
