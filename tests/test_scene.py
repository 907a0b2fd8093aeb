import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soundprop as sp
from soundprop import scene as scene_mod
from soundprop.errors import ConfigurationError, InputError
from soundprop import fileio, latentfield
from soundprop.latentfield import OCCUPIED, OUTSIDE

from conftest import random_free_position
from oracles import build_coupled_rooms, build_wall_with_aperture, line_of_sight, row_walk


def los(scene, p, q) -> bool:
    """``lines_of_sight`` for one segment."""
    return bool(sp.lines_of_sight(scene, p, np.asarray(q, dtype=float)[None])[0])


def test_empty_box_shell_and_interior(box_scene):
    occ = box_scene.occupancy
    assert occ[0].all() and occ[-1].all()
    assert occ[:, 0, :].all() and occ[:, -1, :].all()
    assert occ[:, :, 0].all() and occ[:, :, -1].all()
    assert not occ[1:-1, 1:-1, 1:-1].any()


def test_wall_with_aperture_single_free_column(aperture_scene):
    mid = aperture_scene.dims[0] // 2
    wall = aperture_scene.occupancy[mid]
    # exactly one free voxel in the whole wall plane
    assert (~wall).sum() == 1
    j, k = np.argwhere(~wall)[0]
    assert 0 < j < aperture_scene.dims[1] - 1
    assert 0 < k < aperture_scene.dims[2] - 1


def _flood_fill_free(scene):
    """Face-connected reachable set from one free voxel (test oracle)."""
    free = scene.free_mask()
    start = tuple(np.argwhere(free)[0])
    seen = np.zeros(scene.dims, dtype=bool)
    seen[start] = True
    stack = [start]
    nx, ny, nz = scene.dims
    while stack:
        i, j, k = stack.pop()
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            a, b, c = i + di, j + dj, k + dk
            if 0 <= a < nx and 0 <= b < ny and 0 <= c < nz:
                if free[a, b, c] and not seen[a, b, c]:
                    seen[a, b, c] = True
                    stack.append((a, b, c))
    return seen


def test_maze_connected(maze_scene):
    seen = _flood_fill_free(maze_scene)
    assert (seen == maze_scene.free_mask()).all()


def test_maze_deterministic_for_seed():
    a = sp.build_scene(sp.SceneSpec(kind="maze", dims=(32, 4, 32), seed=7))
    b = sp.build_scene(sp.SceneSpec(kind="maze", dims=(32, 4, 32), seed=7))
    c = sp.build_scene(sp.SceneSpec(kind="maze", dims=(32, 4, 32), seed=8))
    assert (a.occupancy == b.occupancy).all()
    assert (a.occupancy != c.occupancy).any()


def test_scene_keeps_read_only_copies_of_its_arrays():
    """Mutating the arrays a scene was built from leaves the scene, and
    the walker tables built from it, unchanged; the scene's own arrays
    refuse writes, and ``free_mask`` hands out a copy."""
    occ = np.zeros((6, 4, 6), bool)
    reg = np.ones((6, 4, 6), np.int32)
    origin = np.zeros(3)
    scene = sp.VoxelScene(dims=(6, 4, 6), spacing=1.0, origin=origin, occupancy=occ, regions=reg)
    p, q = scene.voxel_center((1, 1, 1)), scene.voxel_center((4, 1, 1))
    occ[1:5, 1, 1] = True
    reg[:] = 2
    origin += 10.0
    assert not scene.occupancy.any() and (scene.regions == 1).all()
    assert (scene.origin == 0.0).all() and scene.contains(p)
    assert los(scene, p, q)
    assert sp.visible_voxels(scene, p).all()
    for arr in (scene.occupancy, scene.regions):
        with pytest.raises(ValueError):
            arr[1, 1, 1] = arr[0, 0, 0]
    with pytest.raises(ValueError):
        scene.origin[0] = 1.0
    free = scene.free_mask()
    free[1, 1, 1] = False
    assert scene.free_mask().all()


def test_scene_invariant_checks():
    with pytest.raises(ConfigurationError):
        sp.VoxelScene(dims=(1, 4, 4), spacing=1.0, origin=np.zeros(3),
                      occupancy=np.zeros((1, 4, 4), bool))
    with pytest.raises(ConfigurationError):
        sp.VoxelScene(dims=(4, 4, 4), spacing=-1.0, origin=np.zeros(3),
                      occupancy=np.zeros((4, 4, 4), bool))
    with pytest.raises(ConfigurationError):
        sp.VoxelScene(dims=(4, 4, 4), spacing=1.0, origin=np.zeros(3),
                      occupancy=np.ones((4, 4, 4), bool))
    with pytest.raises(ConfigurationError):
        sp.SceneSpec(kind="dodecahedron", dims=(8, 4, 8))


@pytest.mark.parametrize("dims", [(6, 4, 6), (6, 4, 20), (20, 4, 6)])
def test_cylinder_forest_needs_seven_voxels_in_x_and_z(dims):
    with pytest.raises(ConfigurationError):
        sp.build_scene(sp.SceneSpec(kind="cylinder-forest", dims=dims))
    assert sp.build_scene(sp.SceneSpec(kind="cylinder-forest", dims=(7, 4, 7))).free_mask().any()


@pytest.mark.parametrize("kind", scene_mod.SCENE_KINDS)
def test_build_scene_rejects_a_geometry_key_its_kind_ignores(kind):
    """Every geometry key but the kind's own is a configuration error, not
    a silently ignored entry."""
    for key in ("aperture", "door", "n_cylinders", "radius"):
        if key != scene_mod.GEOMETRY_KEY.get(kind):
            with pytest.raises(ConfigurationError, match=repr(key)):
                sp.build_scene(sp.SceneSpec(kind=kind, dims=(8, 4, 8), geometry={key: 1}))


# Each kind's geometry key, and the builder it had before the divided rooms
# became one (None: the kind's builder is unchanged and has one region).
BUILDER_CASES = {
    "empty-box": (None, None),
    "wall-with-aperture": ("aperture", build_wall_with_aperture),
    "maze": (None, None),
    "coupled-rooms": ("door", build_coupled_rooms),
    "cylinder-forest": ("n_cylinders", None),
}


@pytest.mark.parametrize("kind", scene_mod.SCENE_KINDS)
def test_build_scene_matches_the_per_kind_builders(kind, tmp_path):
    """Occupancy, region map and scene file bytes as the separate
    wall-with-aperture and coupled-rooms builders made them; one-region
    kinds get an all-ones map, written as an explicit one was."""
    key, old_builder = BUILDER_CASES[kind]
    for dims in [(7, 3, 7), (8, 4, 8), (9, 5, 12), (12, 8, 7), (16, 4, 16)]:
        for size in range(4):
            for seed in (0, 1, 5):
                spec = sp.SceneSpec(kind=kind, dims=dims, seed=seed, geometry={key: size} if key else {})
                scene = sp.build_scene(spec)
                if old_builder is None:
                    occ, reg = scene_mod._BUILDERS[kind](spec)[0], np.ones(dims, np.int32)
                else:
                    occ, reg = old_builder(spec)
                assert np.array_equal(scene.occupancy, occ), (dims, size, seed)
                assert np.array_equal(scene.regions, reg), (dims, size, seed)
                assert scene.regions.dtype == np.int32
                want = sp.VoxelScene(dims=dims, spacing=1.0, origin=np.zeros(3), occupancy=occ,
                                     regions=reg, region_params=scene.region_params)
                for name, s in (("got.scn", scene), ("want.scn", want)):
                    fileio.write_scene(tmp_path / name, s, kind=kind, seed=seed)
                assert (tmp_path / "got.scn").read_bytes() == (tmp_path / "want.scn").read_bytes()


@pytest.mark.parametrize("bad", [(-0.3, 0.8, -6.0), (0.3, 0.0, -6.0), (np.nan, 0.8, -6.0),
                                 (0.3, np.inf, -6.0), (0.3, 0.8, np.inf), (0.3, 0.8, np.nan)])
def test_region_acoustics_rejects_bad_constants(bad):
    with pytest.raises(ConfigurationError):
        sp.RegionAcoustics(*bad)
    sp.RegionAcoustics(1e-6, 1e3, -200.0)


# ---------------------------------------------------------------------------
# Line of sight
# ---------------------------------------------------------------------------


def test_los_trivial_open_box(box_scene):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_free_position(box_scene, rng)
        q = random_free_position(box_scene, rng)
        assert los(box_scene, p, q)


def test_los_wall_blocks_off_axis(aperture_scene):
    # both points at aperture height but displaced sideways from the slit
    p = aperture_scene.voxel_center((2, 2, 3))
    q = aperture_scene.voxel_center((13, 2, 3))
    assert not los(aperture_scene, p, q)


def test_los_through_aperture(aperture_scene):
    mid = aperture_scene.dims[0] // 2
    j, k = np.argwhere(~aperture_scene.occupancy[mid])[0]
    p = aperture_scene.voxel_center((mid - 2, j, k))
    q = aperture_scene.voxel_center((mid + 2, j, k))
    assert los(aperture_scene, p, q)


def test_los_inside_occupied_voxel_is_false(box_scene):
    corner = box_scene.voxel_center((0, 0, 0))
    inside = box_scene.voxel_center((3, 2, 3))
    assert not los(box_scene, corner, inside)
    assert not los(box_scene, inside, corner)


def _segment_clips(scene, p, q):
    """Exact slab-clipping oracle: occupied-cube intersection lengths."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    d = q - p
    seg_len = np.linalg.norm(d)
    clips = []
    for idx in np.argwhere(scene.occupancy):
        lo = scene.voxel_center(idx) - 0.5 * scene.spacing
        hi = scene.voxel_center(idx) + 0.5 * scene.spacing
        t0, t1 = 0.0, 1.0
        ok = True
        for a in range(3):
            if abs(d[a]) < 1e-300:
                if p[a] < lo[a] or p[a] > hi[a]:
                    ok = False
                    break
                continue
            ta = (lo[a] - p[a]) / d[a]
            tb = (hi[a] - p[a]) / d[a]
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
            if t0 > t1:
                ok = False
                break
        if ok and t1 >= t0:
            clips.append((t1 - t0) * seg_len)
    return clips


def test_los_matches_fine_step_oracle_in_maze(maze_scene):
    """Agreement with a spacing/10 point-sampling oracle on non-grazing pairs."""
    rng = np.random.default_rng(42)
    step = maze_scene.spacing / 10.0
    checked = 0
    for _ in range(200):
        p = random_free_position(maze_scene, rng)
        q = random_free_position(maze_scene, rng)
        clips = _segment_clips(maze_scene, p, q)
        # grazing: every occupied-cube clip is too thin for the sampler
        if clips and max(clips) < 2.0 * step:
            continue
        n = max(int(np.linalg.norm(q - p) / step), 2)
        ts = np.linspace(0.0, 1.0, n)
        blocked = any(
            maze_scene.occupancy[maze_scene.voxel_of(p + t * (q - p))] for t in ts
        )
        assert los(maze_scene, p, q) == (not blocked), (p, q)
        checked += 1
    assert checked > 100


def test_los_symmetry_and_identity(maze_scene):
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = random_free_position(maze_scene, rng)
        q = random_free_position(maze_scene, rng)
        assert los(maze_scene, p, q) == los(maze_scene, q, p)
    p = random_free_position(maze_scene, rng)
    assert los(maze_scene, p, p)


def test_los_monotone_under_obstacle_removal(maze_scene):
    opened = sp.VoxelScene(
        dims=maze_scene.dims,
        spacing=maze_scene.spacing,
        origin=maze_scene.origin,
        occupancy=np.zeros(maze_scene.dims, bool),
    )
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = random_free_position(maze_scene, rng)
        q = random_free_position(maze_scene, rng)
        if los(maze_scene, p, q):
            assert los(opened, p, q)


def test_los_conservative_on_diagonal_seam():
    """A seam of two diagonally touching blocks must not leak."""
    occ = np.zeros((6, 4, 6), bool)
    occ[0] = occ[-1] = True
    occ[:, 0, :] = occ[:, -1, :] = True
    occ[:, :, 0] = occ[:, :, -1] = True
    occ[2, 1:3, 2] = True
    occ[3, 1:3, 3] = True
    scene = sp.VoxelScene(dims=(6, 4, 6), spacing=1.0, origin=np.zeros(3), occupancy=occ)
    # exact corner-grazing diagonal through the shared seam edge
    p = scene.voxel_center((3, 1, 2))
    q = scene.voxel_center((2, 1, 3))
    assert not los(scene, p, q)


# ---------------------------------------------------------------------------
# Visible voxels
# ---------------------------------------------------------------------------


def test_visible_voxels_open_box(box_scene):
    p = box_scene.voxel_center((4, 2, 4))
    mask = sp.visible_voxels(box_scene, p)
    assert (mask == box_scene.free_mask()).all()


def test_visible_voxels_matches_per_voxel_los(aperture_scene):
    # against the near side wall, on the aperture axis
    mid = aperture_scene.dims[0] // 2
    j, k = np.argwhere(~aperture_scene.occupancy[mid])[0]
    p = aperture_scene.voxel_center((1, j, k))
    mask = sp.visible_voxels(aperture_scene, p)
    shadowed = visible = 0
    mid = aperture_scene.dims[0] // 2
    for idx in aperture_scene.free_indices():
        expected = line_of_sight(
            aperture_scene, p, aperture_scene.voxel_center(idx)
        )
        assert mask[tuple(idx)] == expected
        if idx[0] > mid:
            shadowed += not expected
            visible += expected
    assert shadowed > 0  # wall casts a shadow
    assert visible > 0  # but the aperture passes a cone
    assert not mask[aperture_scene.occupancy].any()


def test_visible_voxels_from_occupied_point(box_scene):
    p = box_scene.voxel_center((0, 0, 0))
    assert not sp.visible_voxels(box_scene, p).any()


def test_query_outside_bbox_raises(box_scene):
    with pytest.raises(InputError):
        sp.lines_of_sight(box_scene, (-100.0, 0.0, 0.0), [(1.0, 1.0, 1.0)])
    with pytest.raises(InputError):
        sp.visible_voxels(box_scene, (-100.0, 0.0, 0.0))


def test_lines_of_sight_to_voxel_centres_is_masked_visibility(aperture_scene):
    """Rays from ``p`` to some free voxel centres, as the adaptive sampler
    casts them, read ``visible_voxels`` at those voxels."""
    rng = np.random.default_rng(4)
    points = [
        aperture_scene.voxel_center((2, 1, 3)),
        random_free_position(aperture_scene, rng),
        aperture_scene.voxel_center((0, 0, 0)),  # inside the shell
    ]
    free = aperture_scene.free_indices()
    for p in points:
        full = sp.visible_voxels(aperture_scene, p)
        for _ in range(3):
            idx = free[rng.random(len(free)) < 0.3]
            got = sp.lines_of_sight(aperture_scene, p, aperture_scene.voxel_center(idx))
            assert np.array_equal(got, full[tuple(idx.T)])


# ---------------------------------------------------------------------------
# Batched ray walker against the single-segment oracle walker
# ---------------------------------------------------------------------------


def _open_scene():
    """No shell: free voxels touch the bounding box, so tie probes can fall
    outside the grid."""
    occ = np.zeros((6, 4, 6), bool)
    occ[2, 1:3, 2] = True
    occ[3, 1:3, 3] = True
    occ[5, 2, 1] = True
    return sp.VoxelScene(dims=(6, 4, 6), spacing=1.0, origin=np.zeros(3), occupancy=occ)


WALK_SCENES = {
    kind: sp.build_scene(sp.SceneSpec(kind=kind, dims=(10, 4, 10), seed=5))
    for kind in sp.scene.SCENE_KINDS
}
WALK_SCENES["maze-offset"] = sp.build_scene(
    sp.SceneSpec(kind="maze", dims=(9, 3, 11), spacing=0.37, origin=(-1.3, 0.2, 2.9), seed=2)
)
WALK_SCENES["open"] = _open_scene()
# Occupancy in Fortran order, as read_scene returns it.
WALK_SCENES["maze-fortran"] = sp.VoxelScene(
    dims=(10, 4, 10),
    spacing=1.0,
    origin=np.zeros(3),
    occupancy=np.asfortranarray(WALK_SCENES["maze"].occupancy),
)


def _at(scene, c):
    """Point at cell coordinates ``c``: voxel (i, j, k) spans [i, i+1) x ..."""
    return scene.origin + (np.asarray(c, dtype=float) - 0.5) * scene.spacing


# Offsets from a voxel centre in voxels: the centre, a face, or anywhere.
_OFFSETS = st.one_of(st.sampled_from([0.0, 0.5, -0.5]), st.floats(-0.5, 0.5))


@st.composite
def _segments(draw):
    """A scene, start points and m end points. The start is one point (a
    voxel centre or not) shared by every ray, or m per-ray points; the end
    points are voxel centres, faces and off-centre points, some sharing one
    or two coordinates with their start (axis-aligned rays)."""
    name = draw(st.sampled_from(sorted(WALK_SCENES)))
    scene = WALK_SCENES[name]
    lo, hi = _at(scene, (0, 0, 0)), _at(scene, scene.dims)

    def point(centre=False):
        idx = [draw(st.integers(0, n - 1)) for n in scene.dims]
        if centre:
            return scene.voxel_center(idx)
        off = np.array([draw(_OFFSETS) for _ in range(3)])
        return np.clip(scene.voxel_center(idx) + off * scene.spacing, lo, hi)

    per_ray = draw(st.booleans())
    p, starts, ends = point(centre=draw(st.booleans())), [], []
    for _ in range(draw(st.integers(1, 12))):
        if per_ray:
            p = point(centre=draw(st.booleans()))
        q = point()
        for a in draw(st.sets(st.integers(0, 2), max_size=2)):
            q[a] = p[a]
        starts.append(p)
        ends.append(q)
    return name, np.array(starts) if per_ray else p, np.array(ends)


@settings(max_examples=400)
@given(_segments())
def test_lines_of_sight_equals_line_of_sight_ray_by_ray(case):
    name, p, ends = case
    scene = WALK_SCENES[name]
    want = [line_of_sight(scene, s, q) for s, q in zip(np.broadcast_to(p, ends.shape), ends)]
    assert sp.lines_of_sight(scene, p, ends).tolist() == want


# (scene, start, end in cell coordinates, line of sight)
WALK_CASES = {
    # exact corner graze through the diagonal seam of two blocks
    "seam-graze": ("open", (3.5, 1.5, 2.5), (2.5, 1.5, 3.5), False),
    "seam-graze-reversed": ("open", (2.5, 1.5, 3.5), (3.5, 1.5, 2.5), False),
    # axis-aligned: zero direction on two axes, then on one
    "along-x": ("maze", (1.5, 1.5, 1.5), (8.5, 1.5, 1.5), None),
    "along-z-offset": ("maze-offset", (1.2, 1.5, 1.5), (1.2, 1.5, 9.7), None),
    "diagonal-xz": ("empty-box", (1.5, 1.5, 1.5), (8.5, 1.5, 8.5), True),
    "diagonal-xy": ("open", (0.5, 0.5, 4.5), (3.5, 3.5, 4.5), True),
    # running along the faces of the shell and of the bounding box
    "shell-floor-face": ("empty-box", (1.0, 1.0, 1.0), (9.0, 1.0, 6.0), None),
    "bbox-floor-face": ("open", (0.0, 0.0, 0.0), (6.0, 0.0, 4.0), None),
    "bbox-edge": ("open", (0.0, 4.0, 0.0), (6.0, 4.0, 6.0), None),
    # corner tie on the far face: three probes leave the grid, one of the
    # others lands on a block the end point touches
    "far-face-tie": ("open", (4.5, 0.5, 0.5), (6.0, 2.0, 2.0), False),
    "far-face-tie-clear": ("open", (4.5, 0.5, 3.5), (6.0, 2.0, 5.0), True),
    # end point on the far face of the last voxel
    "far-face-end": ("empty-box", (1.5, 1.5, 1.5), (8.5, 2.5, 9.0), False),
    "far-face-end-open": ("open", (0.5, 3.5, 0.5), (6.0, 4.0, 6.0), True),
    # start inside an occupied voxel
    "occupied-start": ("open", (2.5, 1.5, 2.5), (0.5, 0.5, 0.5), False),
    "occupied-end": ("empty-box", (4.5, 1.5, 4.5), (0.5, 0.5, 0.5), False),
    # start and end in the same voxel
    "same-cell": ("open", (1.2, 2.3, 4.9), (1.8, 2.1, 4.1), True),
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_lines_of_sight_fixed_cases(case):
    name, a, b, expected = WALK_CASES[case]
    scene = WALK_SCENES[name]
    p, q = _at(scene, a), _at(scene, b)
    want = line_of_sight(scene, p, q)
    if expected is not None:
        assert want is expected
    assert sp.lines_of_sight(scene, p, q[None]).tolist() == [want]
    assert sp.lines_of_sight(scene, q, p[None]).tolist() == [line_of_sight(scene, q, p)]


def test_lines_of_sight_rejects_bad_end_points(box_scene):
    p = box_scene.voxel_center((4, 2, 4))
    with pytest.raises(InputError):
        sp.lines_of_sight(box_scene, p, np.array([p, (-100.0, 0.0, 0.0)]))
    with pytest.raises(InputError):
        sp.lines_of_sight(box_scene, p, np.array([p, (np.nan, 1.0, 1.0)]))
    assert sp.lines_of_sight(box_scene, p, np.zeros((0, 3))).shape == (0,)


@pytest.mark.parametrize("spacing", [0.1, 0.37])
def test_points_on_voxel_faces_map_to_one_voxel(spacing):
    """``voxel_of``, the ray walker's end cells and ``interp_points`` put a
    point on, or one ulp either side of, an x face in the same voxel."""
    nx = 200
    occ = np.zeros((nx, 2, 2), dtype=bool)
    occ[::2] = True  # every face lies between an occupied and a free voxel
    scene = sp.VoxelScene(dims=(nx, 2, 2), spacing=spacing, origin=np.zeros(3), occupancy=occ)
    faces = (np.arange(1, nx) - 0.5) * spacing
    x = np.concatenate([faces, np.nextafter(faces, -np.inf), np.nextafter(faces, np.inf)])
    P = np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1)
    want = np.array([scene.voxel_of(p) for p in P])
    assert np.array_equal(scene_mod._segment_cells(scene, P)[1], want)
    holds = occ[tuple(want.T)]
    assert np.array_equal(sp.lines_of_sight(scene, P, P), ~holds)
    status = sp.interp_points(scene, P).status
    assert np.array_equal(status == OCCUPIED, holds)


def test_bounding_box_corners_and_faces_are_inside():
    """A point on the bounding box, at any of its 8 corners or on any of
    its 6 faces, lies in a grid voxel; one ulp outward it is outside, and
    ``voxel_of`` raises exactly when ``contains`` is False."""
    scene = WALK_SCENES["maze-offset"]
    lo = scene.origin - 0.5 * scene.spacing
    hi = scene.origin + (np.array(scene.dims) - 0.5) * scene.spacing
    corners = [np.where(bits, hi, lo) for bits in itertools.product((False, True), repeat=3)]
    faces, outward = [], []
    for axis, (end, away) in itertools.product(range(3), ((lo, -np.inf), (hi, np.inf))):
        p = 0.5 * (lo + hi)
        p[axis] = end[axis]
        q = p.copy()
        q[axis] = np.nextafter(p[axis], away)
        faces.append(p)
        outward.append(q)
    P = np.array(corners + faces)
    for p in P:
        assert scene.contains(p)
        assert all(0 <= i < n for i, n in zip(scene.voxel_of(p), scene.dims))
    assert (sp.interp_points(scene, P).status != OUTSIDE).all()
    for q in outward:
        assert not scene.contains(q)
        with pytest.raises(InputError):
            scene.voxel_of(q)
    assert (sp.interp_points(scene, np.array(outward)).status == OUTSIDE).all()


# ---------------------------------------------------------------------------
# The per-axis walker against the row-layout walker
# ---------------------------------------------------------------------------


def _walk_both(scene, p, q):
    """``scene._walk`` and ``row_walk`` on the segments from ``p`` to ``q``."""
    (a, b), (start, end) = scene_mod._segment_cells(scene, np.stack(np.broadcast_arrays(p, q)))
    return scene_mod._walk(scene, a, b, start, end), row_walk(scene, a, b, start, end)


def test_walk_matches_row_walk_on_one_origin_gym_batch():
    """One source's batch at the gym size: a ray to every free voxel."""
    scene = sp.build_scene(sp.SceneSpec(kind="cylinder-forest", dims=(59, 8, 59), seed=11))
    free = scene.free_indices()
    p = scene.voxel_center(free[len(free) // 3])
    got, want = _walk_both(scene, p, scene.voxel_center(free))
    assert len(got) > 18000 and 0 < got.sum() < len(got)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["open", "cylinder-forest", "maze"])
def test_walk_matches_row_walk_on_half_integer_segments(name):
    """Per-ray segments whose end points lie on the half-integer cell
    lattice (centres, faces, edges and corners), half of them along exact
    diagonals, so rays cross cell edges and corners."""
    scene = WALK_SCENES[name]
    rng = np.random.default_rng(17)
    dims = np.array(scene.dims)
    m = 2400
    a = rng.integers(0, 2 * dims + 1, size=(m, 3)) / 2.0
    b = rng.integers(0, 2 * dims + 1, size=(m, 3)) / 2.0
    # Diagonal rays: one signed length on two or three axes, kept in the box.
    diag = np.arange(m) % 2 == 0
    length = rng.integers(1, 2 * dims.min() + 1, size=m) / 2.0
    sign = rng.choice([-1.0, 1.0], size=(m, 3)) * (rng.random((m, 3)) < 0.8)
    b[diag] = np.clip(a[diag] + (sign * length[:, None])[diag], 0, dims)
    d = np.abs(b - a)
    tied = [(d[:, i] == d[:, j]) & (d[:, i] > 0) for i, j in ((0, 1), (1, 2), (0, 2))]
    assert np.count_nonzero(np.any(tied, axis=0)) > 500
    got, want = _walk_both(scene, _at(scene, a), _at(scene, b))
    assert 0 < got.sum() < m
    assert np.array_equal(got, want)


def test_interp_points_rays_match_row_walk(maze_scene, monkeypatch):
    """The stencil and fallback rays of 300 off-centre points give the same
    corners, weights and status on either walker."""
    rng = np.random.default_rng(23)
    P = np.array([random_free_position(maze_scene, rng) for _ in range(300)])
    mask = rng.random(maze_scene.dims) < 0.7
    got = [sp.interp_points(maze_scene, P), sp.interp_points(maze_scene, P, mask)]
    monkeypatch.setattr(latentfield, "_walk", row_walk)
    want = [sp.interp_points(maze_scene, P), sp.interp_points(maze_scene, P, mask)]
    for g, w in zip(got, want):
        assert np.array_equal(g.corners, w.corners)
        assert np.array_equal(g.weights, w.weights)
        assert np.array_equal(g.status, w.status)
