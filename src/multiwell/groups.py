"""Finite reflection groups acting on R^d (d <= 3) as explicit matrices.

Groups are generated by closure from their reflection generators; orders
here never exceed 48, so matrix lists and brute-force orbit/stabilizer
computations are the whole story.  Also houses the region decomposition
used for initial data (base-well region and its group translates).  Sampled
fields are projected onto the equivariant class by ``fields.node_projection``
on the action pairs ``fields.as_pairs(group)`` when the group permutes the
grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POINT_TOL = 1e-8


def _key(mat: np.ndarray) -> tuple:
    return tuple(np.round(mat, 9).ravel())


def _close(generators: list[np.ndarray]) -> np.ndarray:
    d = generators[0].shape[0]
    mats = [np.eye(d)]
    seen = {_key(mats[0])}
    frontier = list(mats)
    while frontier:
        new = []
        for a in frontier:
            for b in generators:
                c = a @ b
                # snap the rounding off integral entries, so signed permutations come out exact
                near = np.rint(c)
                c = np.where(np.abs(c - near) <= 1e-12, near, c)
                k = _key(c)
                if k not in seen:
                    seen.add(k)
                    new.append(c)
        mats.extend(new)
        frontier = new
        if len(mats) > 400:
            raise ValueError("group closure exceeded 400 elements")
    mats.sort(key=_key)
    return np.array(mats)


def _is_reflection(g: np.ndarray) -> bool:
    d = g.shape[0]
    return (
        abs(np.linalg.det(g) + 1.0) < 1e-9
        and np.max(np.abs(g - g.T)) < 1e-9
        and abs(np.trace(g) - (d - 2)) < 1e-9
    )


def _reflection_normal(g: np.ndarray) -> np.ndarray:
    # (I - g)/2 = n n^T for a reflection; take the dominant column
    M = (np.eye(g.shape[0]) - g) / 2.0
    col = M[:, np.argmax(np.sum(M * M, axis=0))]
    return col / np.linalg.norm(col)


def _chamber_normals(elements: np.ndarray, interior_point: np.ndarray) -> np.ndarray:
    """Mirror normals of all reflections, each oriented toward
    ``interior_point``, a point on no mirror; the open chamber is
    {x : <x, n> > 0 for every normal}, the one that holds the point."""
    normals = []
    seen = set()
    for g in elements:
        if _is_reflection(g):
            n = _reflection_normal(g)
            # n and -n define the same mirror: canonicalize the sign
            lead = n[np.flatnonzero(np.abs(n) > 1e-9)[0]]
            n = n * np.sign(lead)
            k = _key(n[None, :])
            if k not in seen:
                seen.add(k)
                normals.append(n)
    normals = np.array(normals)  # not empty: the generators are reflections
    return normals * np.sign(normals @ interior_point)[:, None]


@dataclass(frozen=True)
class FundamentalRegion:
    """Open simplicial cone {x : <x, n_w> > 0 for all wall normals}.

    The normal list may be redundant (all mirrors of the group, oriented
    toward one chamber); the region is the same."""

    wall_normals: np.ndarray

    def contains(self, x, tol: float = 0.0) -> bool:
        return bool(np.all(self.wall_normals @ np.asarray(x, float) > tol))

    def contains_closure(self, x) -> bool:
        return bool(np.all(self.wall_normals @ np.asarray(x, float) >= -1e-9))

    def min_wall_dot(self, x) -> float:
        return float(np.min(self.wall_normals @ np.asarray(x, float)))


@dataclass(frozen=True)
class ReflectionGroup:
    name: str
    dimension: int
    generators: np.ndarray  # (k, d, d) reflections
    elements: np.ndarray  # (order, d, d), closed under products, lex sorted
    wall_normals: np.ndarray  # oriented mirror normals of one chamber

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def fundamental_region(self) -> FundamentalRegion:
        return FundamentalRegion(self.wall_normals)

    def contains(self, mat: np.ndarray) -> bool:
        k = _key(np.asarray(mat, float))
        return any(_key(g) == k for g in self.elements)


def _build_group(name: str, generators: list[np.ndarray], interior_point: np.ndarray) -> ReflectionGroup:
    gens = [np.asarray(g, dtype=np.float64) for g in generators]
    d = gens[0].shape[0]
    for r in gens:
        if not _is_reflection(r):
            raise ValueError("generators must be reflections (r^2 = I, det r = -1)")
        if np.max(np.abs(r @ r - np.eye(d))) > 1e-12:
            raise ValueError("generator is not an involution")
    elements = _close(gens)
    walls = _chamber_normals(elements, interior_point)
    return ReflectionGroup(
        name=name,
        dimension=d,
        generators=np.array(gens),
        elements=elements,
        wall_normals=walls,
    )


def reflection_matrix(normal) -> np.ndarray:
    n = np.asarray(normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    return np.eye(n.shape[0]) - 2.0 * np.outer(n, n)


def build_dihedral(k: int) -> ReflectionGroup:
    """Symmetries of the regular k-gon: order 2k, generated by reflections
    across the lines at angles 0 and pi/k."""
    if k < 2:
        raise ValueError("dihedral index must be >= 2")
    r0 = reflection_matrix([0.0, 1.0])  # mirror = x-axis
    th = np.pi / k + np.pi / 2.0
    r1 = reflection_matrix([np.cos(th), np.sin(th)])  # mirror at angle pi/k
    mid = np.pi / (2.0 * k)
    return _build_group(f"dihedral_{k}", [r0, r1], np.array([np.cos(mid), np.sin(mid)]))


def build_tetrahedral() -> ReflectionGroup:
    """Full symmetry group (order 24) of the regular tetrahedron with vertices
    (+-sqrt(2/3), 0, 1/sqrt(3)) and (0, +-sqrt(2/3), -1/sqrt(3))."""
    s = np.sqrt(2.0 / 3.0)
    t = 1.0 / np.sqrt(3.0)
    verts = np.array([[s, 0, t], [-s, 0, t], [0, s, -t], [0, -s, -t]])
    gens = [
        reflection_matrix(verts[0] - verts[1]),
        reflection_matrix(verts[2] - verts[3]),
        reflection_matrix(verts[0] - verts[2]),
    ]
    return _build_group("tetrahedral", gens, np.array([0.1, 0.22, 0.35]))


def build_cubic() -> ReflectionGroup:
    """Symmetries of the coordinate cube: the 48 signed permutation matrices."""
    gens = [
        reflection_matrix([1.0, 0.0, 0.0]),
        reflection_matrix([1.0, -1.0, 0.0]),
        reflection_matrix([0.0, 1.0, -1.0]),
    ]
    # orient the chamber to the simplex 0 < x1 < x2 < x3
    return _build_group("cubic", gens, np.array([0.1, 0.22, 0.35]))


def _carries(group: ReflectionGroup, src, dst) -> np.ndarray:
    """Mask of the group elements g with |g a - b| <= POINT_TOL for every
    point pair (a, b) of ``src`` and ``dst``."""
    return np.all([np.linalg.norm(group.elements @ a - b, axis=1) <= POINT_TOL for a, b in zip(src, dst)], axis=0)


def stabilizer(group: ReflectionGroup, p) -> ReflectionGroup:
    """Subgroup of elements fixing the point p."""
    d = group.dimension
    keep = group.elements[_carries(group, [p], [p])]
    refl = [g for g in keep if _is_reflection(g)]
    gens = np.array(refl) if refl else np.zeros((0, d, d))
    normals = np.array([_reflection_normal(g) for g in refl]) if refl else np.zeros((0, d))
    return ReflectionGroup(
        name=f"{group.name}_stab",
        dimension=group.dimension,
        generators=gens,
        elements=keep,
        wall_normals=normals,
    )


def orbit(group: ReflectionGroup, p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    pts: list[np.ndarray] = []
    for g in group.elements:
        q = g @ p
        if not any(np.linalg.norm(q - r) <= POINT_TOL for r in pts):
            pts.append(q)
    return np.array(pts)


def orbit_count(group: ReflectionGroup, p) -> int:
    return orbit(group, p).shape[0]


# ---------------------------------------------------------------------------
# Region decomposition: D = interior of the union of stabilizer translates of
# the closed chamber; its group copies partition space, one per well.


@dataclass(frozen=True)
class RegionMap:
    group: ReflectionGroup
    stabilizer: ReflectionGroup
    wells: np.ndarray  # (N, d), base well first, remainder lex sorted
    coset_reps: np.ndarray  # (N, d, d), lex-smallest rep mapping base -> wells[i]

    @property
    def orbit_size(self) -> int:
        return self.wells.shape[0]

    def well_index(self, p) -> int:
        p = np.asarray(p, dtype=np.float64)
        d = np.linalg.norm(self.wells - p[None, :], axis=1)
        i = int(np.argmin(d))
        if d[i] > POINT_TOL:
            raise ValueError("point is not a well of this region map")
        return i

    def region_of(self, x):
        """Label of the region copy containing x: (well index, coset rep).

        Wall ties resolve to the smallest well index (base well first)."""
        x = np.asarray(x, dtype=np.float64)
        dots = self.wells @ x
        top = float(dots.max())
        idx = int(np.flatnonzero(dots >= top - 1e-9)[0])
        return idx, self.coset_reps[idx]

    def wall_distance(self, x) -> float:
        """Distance from x to the boundary of its region copy."""
        x = np.asarray(x, dtype=np.float64)
        i, _ = self.region_of(x)
        dists = []
        for j in range(self.orbit_size):
            if j == i:
                continue
            dw = self.wells[i] - self.wells[j]
            dists.append(float(np.dot(x, dw) / np.linalg.norm(dw)))
        return min(dists)

    def pair_rep(self, i: int, j: int, adj: int) -> np.ndarray:
        """Lex-smallest group element mapping (base, wells[adj]) -> (wells[i], wells[j])."""
        hits = np.flatnonzero(_carries(self.group, self.wells[[0, adj]], self.wells[[i, j]]))
        if not hits.size:
            raise ValueError(
                f"no group element maps the base well pair to wells ({i}, {j}); "
                "the connection profile does not match this region geometry"
            )
        return self.group.elements[hits[0]]  # elements are lex sorted

    def pair_stabilizer_elements(self, adj: int) -> np.ndarray:
        pair = self.wells[[0, adj]]
        return self.group.elements[_carries(self.group, pair, pair)]


def build_region_map(group: ReflectionGroup, base_well) -> RegionMap:
    base = np.asarray(base_well, dtype=np.float64)
    stab = stabilizer(group, base)
    pts = orbit(group, base)
    others = sorted(
        (p for p in pts if np.linalg.norm(p - base) > POINT_TOL),
        key=lambda p: tuple(np.round(p, 9)),
    )
    wells = np.vstack([base[None, :]] + [p[None, :] for p in others])
    # elements are lex sorted, so the first hit is the lex-smallest
    reps = [group.elements[np.argmax(_carries(group, [base], [w]))] for w in wells]
    return RegionMap(
        group=group,
        stabilizer=stab,
        wells=wells,
        coset_reps=np.array(reps),
    )


GROUP_BUILDERS = {
    "dihedral_2": lambda: build_dihedral(2),
    "dihedral_3": lambda: build_dihedral(3),
    "dihedral_4": lambda: build_dihedral(4),
    "dihedral_6": lambda: build_dihedral(6),
    "tetrahedral": build_tetrahedral,
    "cubic": build_cubic,
}


def get_group(name: str) -> ReflectionGroup:
    if name.startswith("dihedral_"):
        return build_dihedral(int(name.split("_", 1)[1]))
    if name not in GROUP_BUILDERS:
        raise KeyError(f"unknown group {name!r}")
    return GROUP_BUILDERS[name]()
