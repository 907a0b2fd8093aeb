import numpy as np
import pytest

import soundprop as sp
from soundprop.errors import ConfigurationError, InputError

from conftest import random_free_position


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


# ---------------------------------------------------------------------------
# Line of sight
# ---------------------------------------------------------------------------


def test_los_trivial_open_box(box_scene):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_free_position(box_scene, rng)
        q = random_free_position(box_scene, rng)
        assert sp.line_of_sight(box_scene, p, q)


def test_los_wall_blocks_off_axis(aperture_scene):
    # both points at aperture height but displaced sideways from the slit
    p = aperture_scene.voxel_center((2, 2, 3))
    q = aperture_scene.voxel_center((13, 2, 3))
    assert not sp.line_of_sight(aperture_scene, p, q)


def test_los_through_aperture(aperture_scene):
    mid = aperture_scene.dims[0] // 2
    j, k = np.argwhere(~aperture_scene.occupancy[mid])[0]
    p = aperture_scene.voxel_center((mid - 2, j, k))
    q = aperture_scene.voxel_center((mid + 2, j, k))
    assert sp.line_of_sight(aperture_scene, p, q)


def test_los_inside_occupied_voxel_is_false(box_scene):
    corner = box_scene.voxel_center((0, 0, 0))
    inside = box_scene.voxel_center((3, 2, 3))
    assert not sp.line_of_sight(box_scene, corner, inside)
    assert not sp.line_of_sight(box_scene, inside, corner)


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
        assert sp.line_of_sight(maze_scene, p, q) == (not blocked), (p, q)
        checked += 1
    assert checked > 100


def test_los_symmetry_and_identity(maze_scene):
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = random_free_position(maze_scene, rng)
        q = random_free_position(maze_scene, rng)
        assert sp.line_of_sight(maze_scene, p, q) == sp.line_of_sight(maze_scene, q, p)
    p = random_free_position(maze_scene, rng)
    assert sp.line_of_sight(maze_scene, p, p)


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
        if sp.line_of_sight(maze_scene, p, q):
            assert sp.line_of_sight(opened, p, q)


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
    assert not sp.line_of_sight(scene, p, q)


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
        expected = sp.line_of_sight(
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
        sp.line_of_sight(box_scene, (-100.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    with pytest.raises(InputError):
        sp.visible_voxels(box_scene, (-100.0, 0.0, 0.0))


def test_visible_targets_is_masked_visibility(aperture_scene):
    from soundprop.scene import visible_targets

    rng = np.random.default_rng(4)
    points = [
        aperture_scene.voxel_center((2, 1, 3)),
        random_free_position(aperture_scene, rng),
        aperture_scene.voxel_center((0, 0, 0)),  # inside the shell
    ]
    for p in points:
        full = sp.visible_voxels(aperture_scene, p)
        for _ in range(3):
            targets = rng.random(aperture_scene.dims) < 0.3
            assert (visible_targets(aperture_scene, p, targets) == (full & targets)).all()
