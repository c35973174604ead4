"""Triangle mesh representation, OFF/PLY I/O and geometric primitives.

A :class:`TriangleMesh` is immutable after construction and caches derived
structure (edge table, triangle metric, areas, geodesic graph) lazily.
Geodesic distances use Dijkstra on the edge graph augmented with
edge-midpoint Steiner points, which keeps the graph-metric error small
enough for evaluation purposes.
"""

import warnings

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

DEGENERATE_AREA_FACTOR = 1e-12


class MeshError(ValueError):
    """Raised for invalid mesh content (parse failures, non-manifoldness...)."""


class TriangleMesh:
    """Manifold triangle mesh with vertices (n, 3) and triangles (m, 3).

    Unreferenced vertices are dropped at construction time; the original
    indices of the kept vertices are recorded in ``kept_vertices``.
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

        # Drop unreferenced vertices, remember the remap.
        used = np.zeros(len(v), dtype=bool)
        used[t.reshape(-1)] = True
        self.kept_vertices = np.flatnonzero(used)
        if not used.all():
            remap = -np.ones(len(v), dtype=np.int64)
            remap[self.kept_vertices] = np.arange(len(self.kept_vertices))
            v = v[used]
            t = remap[t]

        self.vertices = v
        self.triangles = self._orient(v, t)
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)

        self._edges = None
        self._metric = None
        self._geo_graph = None
        self._validate_geometry()

    # -- basic quantities ---------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def bbox_diagonal(self):
        ext = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(ext))

    @property
    def triangle_areas(self):
        return self._tri_areas

    @property
    def total_area(self):
        return float(self._tri_areas.sum())

    def vertex_areas(self):
        """Lumped per-vertex areas: one third of the incident triangle areas."""
        s = np.zeros(self.n_vertices)
        np.add.at(s, self.triangles.reshape(-1), np.repeat(self._tri_areas / 3.0, 3))
        if np.any(s <= 0):
            raise MeshError("vertex with zero area (not incident to any triangle)")
        return s

    def vertex_normals(self):
        """Area-weighted average of incident triangle normals."""
        p = self.vertices[self.triangles]
        nrm = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])  # 2*area*unit normal
        out = np.zeros_like(self.vertices)
        for c in range(3):
            np.add.at(out, self.triangles[:, c], nrm)
        lens = np.linalg.norm(out, axis=1)
        lens[lens == 0] = 1.0
        return out / lens[:, None]

    # -- edge structure -----------------------------------------------------

    def _edge_data(self):
        if self._edges is None:
            self._edges = edge_table(self.triangles)
        return self._edges

    @property
    def edges(self):
        return self._edge_data()[0]

    @property
    def boundary_edges(self):
        edges, counts, _ = self._edge_data()
        return edges[counts == 1]

    @property
    def triangle_metric(self):
        """Per-triangle first fundamental form coefficients (E, F, G)."""
        if self._metric is None:
            p = self.vertices[self.triangles]
            e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
            self._metric = tuple(np.einsum("ij,ij->i", a, b)
                                 for a, b in ((e1, e1), (e1, e2), (e2, e2)))
        return self._metric

    # -- geodesics ----------------------------------------------------------

    def _geodesic_graph(self):
        """Edge graph plus midpoint Steiner nodes and intra-triangle shortcuts."""
        if self._geo_graph is not None:
            return self._geo_graph
        n = self.n_vertices
        edges, _, tri_edges = self._edge_data()
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
        g = g.maximum(g.T)
        self._geo_graph = g
        return g

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
        g = self._geodesic_graph()
        d = dijkstra(g, directed=False, indices=sources,
                     limit=limit)[:, : self.n_vertices]
        return d[0] if np.isscalar(source) or np.ndim(source) == 0 else d

    def farthest_point_sample(self, count, seed):
        """Greedy max-min geodesic sampling starting from ``seed``."""
        if count > self.n_vertices:
            raise ValueError("count exceeds number of vertices")
        if count < 1:
            raise ValueError("count must be positive")
        samples = [int(seed)]
        dmin = self.geodesic_distances(int(seed))
        for _ in range(count - 1):
            nxt = int(np.argmax(dmin))
            samples.append(nxt)
            dmin = np.minimum(dmin, self.geodesic_distances(nxt))
        return samples

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
        old_ids = np.flatnonzero(keep)
        remap = -np.ones(self.n_vertices, dtype=np.int64)
        remap[old_ids] = np.arange(len(old_ids))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sub = TriangleMesh(self.vertices[old_ids], remap[self.triangles[tri_keep]])
        return sub, old_ids[sub.kept_vertices]

    def subdivided(self):
        """One step of 1-to-4 midpoint subdivision (no smoothing)."""
        edges, _, tri_edges = self._edge_data()
        mids = 0.5 * (self.vertices[edges[:, 0]] + self.vertices[edges[:, 1]])
        a, b, c = self.triangles.T
        mab, mbc, mca = (self.n_vertices + tri_edges).T
        tris = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                        axis=1).reshape(-1, 3)
        return TriangleMesh(np.vstack([self.vertices, mids]), tris)

    # -- internals ----------------------------------------------------------

    def _validate_geometry(self):
        p = self.vertices[self.triangles]
        cr = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        areas = 0.5 * np.linalg.norm(cr, axis=1)
        thresh = DEGENERATE_AREA_FACTOR * self.bbox_diagonal ** 2
        if np.any(areas < thresh):
            bad = int(np.argmin(areas))
            raise MeshError(f"degenerate triangle {bad} (area {areas[bad]:.3e})")
        self._tri_areas = areas
        edges, counts, _ = self._edge_data()
        if counts.max() > 2:
            bad = edges[np.argmax(counts)]
            raise MeshError(f"non-manifold edge {tuple(bad)}: "
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
        component.
        """
        m = len(triangles)
        edges, counts, tri_edges = edge_table(triangles)
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
        return t


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
    """Load an OFF or PLY mesh (ascii or binary-little-endian PLY)."""
    path = str(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head.startswith(b"OFF") or head.startswith(b"ply"):
        if head.startswith(b"OFF"):
            v, t = _read_off(path)
        else:
            v, t = _read_ply(path)
    else:
        raise MeshError(f"{path}: unrecognized mesh format")
    return TriangleMesh(v, t)


def _read_off(path):
    with open(path, "r") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise MeshError(f"{path}: missing OFF header")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        pos = 4  # skip edge count
        verts = np.asarray(tokens[pos:pos + 3 * nv], dtype=np.float64).reshape(nv, 3)
        pos += 3 * nv
        tris = []
        for _ in range(nf):
            cnt = int(tokens[pos])
            if cnt != 3:
                raise MeshError(f"{path}: only triangular faces supported")
            face = tokens[pos + 1:pos + 4]
            if len(face) < 3:
                raise MeshError(f"{path}: OFF data has fewer values than "
                                "its header declares")
            tris.append([int(x) for x in face])
            pos += 1 + cnt
    except MeshError:
        raise
    except (ValueError, IndexError) as exc:
        raise MeshError(f"{path}: malformed OFF data: {exc}") from exc
    return verts, np.asarray(tris, dtype=np.int64)


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
        elements = []  # (name, count, [(prop_name, dtype)|('list', idx_t, val_t, name)])
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
                    elements[-1][2].append(("list", parts[2], parts[3], parts[4]))
                elif parts[0] == "property":
                    elements[-1][2].append((parts[2], parts[1]))
            except (ValueError, IndexError) as exc:
                raise MeshError(f"{path}: malformed ply header line "
                                f"{' '.join(parts)!r}") from exc
        if fmt is None:
            raise MeshError(f"{path}: ply header is missing format")
        if fmt not in ("ascii", "binary_little_endian"):
            raise MeshError(f"{path}: unsupported ply format {fmt}")
        verts = tris = None
        for name, count, props in elements:
            if fmt == "ascii":
                data = _ply_ascii_element(fh, count, props, path)
            else:
                data = _ply_binary_element(fh, count, props, path)
            if name == "vertex":
                try:
                    verts = np.column_stack([data["x"], data["y"], data["z"]])
                except KeyError as exc:
                    raise MeshError(f"{path}: vertex element lacks x/y/z") from exc
            elif name == "face":
                key = next((p[3] for p in props if p[0] == "list"), None)
                if key is None:
                    raise MeshError(f"{path}: face element has no list property")
                tris = data[key]
    if verts is None or tris is None:
        raise MeshError(f"{path}: missing vertex or face element")
    return np.asarray(verts, dtype=np.float64), np.asarray(tris, dtype=np.int64)


def _ply_ascii_element(fh, count, props, path):
    # As in binary, every list property holds a triangle, whatever its name.
    data = {p[0] if p[0] != "list" else p[3]: [] for p in props}
    for _ in range(count):
        parts = fh.readline().split()
        pos = 0
        try:
            for p in props:
                if p[0] == "list":
                    if int(parts[pos]) != 3:
                        raise MeshError(f"{path}: only triangular faces supported")
                    data[p[3]].append([int(parts[pos + j]) for j in (1, 2, 3)])
                    pos += 4
                else:
                    data[p[0]].append(float(parts[pos]))
                    pos += 1
        except IndexError as exc:
            raise MeshError(f"{path}: ply data has fewer values than its "
                            "header declares") from exc
    return {k: np.asarray(v) for k, v in data.items()}


def _ply_binary_element(fh, count, props, path):
    # Faces must be triangles, so a list property is read as a fixed record
    # of its count and three values; a count other than 3 is rejected below.
    fields = []
    try:
        for p in props:
            if p[0] == "list":
                fields += [(p[3] + ".count", "<" + _PLY_TYPES[p[1]]),
                           (p[3], "<" + _PLY_TYPES[p[2]], (3,))]
            else:
                fields.append((p[0], "<" + _PLY_TYPES[p[1]]))
    except KeyError as exc:
        raise MeshError(f"{path}: unsupported ply property type "
                        f"{exc.args[0]}") from exc
    dt = np.dtype(fields)
    buf = fh.read(dt.itemsize * count)
    raw = np.frombuffer(buf, dtype=dt, count=len(buf) // dt.itemsize)
    data = {}
    for p in props:
        if p[0] == "list":
            # A short face also shortens the data, so test before the length.
            if (raw[p[3] + ".count"] != 3).any():
                raise MeshError(f"{path}: only triangular faces supported")
            data[p[3]] = raw[p[3]]
        else:
            data[p[0]] = raw[p[0]]
    if len(raw) < count:
        raise MeshError(f"{path}: truncated ply data")
    return data


def save_off(mesh, path):
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_triangles} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")


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
    if binary:
        with open(path, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            if colors is None:
                fh.write(np.ascontiguousarray(mesh.vertices, "<f8").tobytes())
            else:
                rec = np.empty(n, dtype=[("xyz", "<f8", (3,)), ("rgb", "u1", (3,))])
                rec["xyz"], rec["rgb"] = mesh.vertices, colors
                fh.write(rec.tobytes())
            rec = np.empty(m, dtype=[("count", "u1"), ("idx", "<i4", (3,))])
            rec["count"], rec["idx"] = 3, mesh.triangles
            fh.write(rec.tobytes())
    else:
        with open(path, "w") as fh:
            fh.write("\n".join(header) + "\n")
            for i, v in enumerate(mesh.vertices):
                line = f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}"
                if colors is not None:
                    line += f" {colors[i, 0]} {colors[i, 1]} {colors[i, 2]}"
                fh.write(line + "\n")
            for t in mesh.triangles:
                fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")
