import itertools

import numpy as np
import pytest

import soundprop as sp
from soundprop.errors import InputError
from soundprop.latentfield import _CORNERS as CORNERS
from soundprop.latentfield import OCCUPIED, OUTSIDE, RESOLVED
from soundprop.scene import SCENE_KINDS

from conftest import latent_at, random_free_position
from oracles import interp_backward
from oracles import masked_interp as oracle_masked_interp
from oracles import walk_interp_points


@pytest.fixture(scope="module")
def box():
    return sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)))


@pytest.fixture(scope="module")
def grid(box):
    return sp.init_latent_grid(box, 4, seed=1)


def test_exact_vertex_returns_stored_latent(box, grid):
    p = box.voxel_center((3, 2, 3))
    r = sp.interp_points(box, p[None])
    assert r.weights[0, r.weights[0] > 0].tolist() == [1.0]
    assert np.array_equal(r.sample(grid.values)[0], grid.values[3, 2, 3])


def test_cell_center_equal_weights(box, grid):
    p = box.voxel_center((3, 1, 3)) + 0.5 * box.spacing
    weights = sp.interp_points(box, p[None]).weights[0]
    assert np.count_nonzero(weights) == 8
    assert np.allclose(weights, 0.125)
    assert abs(weights.sum() - 1.0) < 1e-6


def test_weights_match_hand_computation_near_wall():
    """Half the cell's vertices sit inside a wall: masked + renormalized."""
    occ = np.zeros((8, 4, 8), bool)
    occ[0] = occ[-1] = True
    occ[:, 0, :] = occ[:, -1, :] = True
    occ[:, :, 0] = occ[:, :, -1] = True
    occ[4, :, :] = True  # sealed wall plane
    scene = sp.VoxelScene(dims=(8, 4, 8), spacing=1.0, origin=np.zeros(3), occupancy=occ)
    grid = sp.init_latent_grid(scene, 3, seed=0)
    # query between x=3 and the wall at x=4
    p = np.array([3.25, 1.5, 3.5])
    r = sp.interp_points(scene, p[None])
    used = r.weights[0] > 0
    corners, weights = r.corners[0, used], r.weights[0, used]
    # corners at x=4 are occupied: only the four x=3 corners survive
    assert set(map(tuple, corners)) == {(3, 1, 3), (3, 2, 3), (3, 1, 4), (3, 2, 4)}
    tx, ty, tz = 0.25, 0.5, 0.5
    raw = {
        (3, 1, 3): (1 - tx) * (1 - ty) * (1 - tz),
        (3, 2, 3): (1 - tx) * ty * (1 - tz),
        (3, 1, 4): (1 - tx) * (1 - ty) * tz,
        (3, 2, 4): (1 - tx) * ty * tz,
    }
    total = sum(raw.values())
    for corner, w in zip(map(tuple, corners), weights):
        assert w == pytest.approx(raw[corner] / total, abs=1e-12)
    expected = sum(raw[c] / total * grid.values[c] for c in raw)
    assert np.allclose(r.sample(grid.values)[0], expected, atol=1e-12)


def test_no_mixing_across_sealed_wall():
    occ = np.zeros((8, 4, 8), bool)
    occ[0] = occ[-1] = True
    occ[:, 0, :] = occ[:, -1, :] = True
    occ[:, :, 0] = occ[:, :, -1] = True
    occ[4, :, :] = True
    scene = sp.VoxelScene(dims=(8, 4, 8), spacing=1.0, origin=np.zeros(3), occupancy=occ)
    grid = sp.init_latent_grid(scene, 4, seed=3)
    rng = np.random.default_rng(0)
    points = [random_free_position(scene, rng) for _ in range(40)]
    near = [p for p in points if p[0] < 3.5]
    before = [latent_at(grid, scene, p) for p in near]
    # perturb every latent strictly on the far side of the wall
    values = grid.values.copy()
    values[5:, :, :, :] += 1000.0
    far_grid = sp.LatentGrid(values=values)
    after = [latent_at(far_grid, scene, p) for p in near]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_affine_along_segment_fixed_mask(box, grid):
    """Trilinear interpolation is affine along axis-parallel segments."""
    base = box.voxel_center((2, 1, 3))
    a = base + np.array([0.1, 0.3, 0.2])
    c = base + np.array([0.7, 0.3, 0.2])
    mid = 0.5 * (a + c)
    la = latent_at(grid, box, a)
    lc = latent_at(grid, box, c)
    lm = latent_at(grid, box, mid)
    assert np.allclose(lm, 0.5 * (la + lc), atol=1e-9)


def _backward(scene, grid, p, upstream):
    """Contributing vertices of ``p`` and the gradient the adjoint of
    ``InterpBatch.sample`` scatters onto each of them."""
    r = sp.interp_points(scene, p[None])
    grad = np.zeros_like(grid.values)
    interp_backward(r, upstream[None, :], grad)
    corners = r.corners[0, r.weights[0] > 0]
    return corners, grad[tuple(corners.T)]


def test_backward_single_corner(box, grid):
    p = box.voxel_center((2, 2, 2))
    corners, contribs = _backward(box, grid, p, np.array([1.0, 2.0, 3.0, 4.0]))
    assert corners.shape == (1, 3)
    assert np.allclose(contribs[0], [1.0, 2.0, 3.0, 4.0])


def test_backward_equal_split(box, grid):
    p = box.voxel_center((3, 1, 3)) + 0.5 * box.spacing
    upstream = np.array([8.0, 0.0, 0.0, 0.0])
    _, contribs = _backward(box, grid, p, upstream)
    assert np.allclose(contribs, upstream[None, :] / 8.0)


def test_backward_matches_finite_differences(box, grid):
    rng = np.random.default_rng(7)
    phi = rng.normal(size=grid.n)
    p = box.voxel_center((3, 1, 3)) + np.array([0.31, 0.22, 0.67])
    corners, contribs = _backward(box, grid, p, phi)
    eps = 1e-6
    for ci, corner in enumerate(map(tuple, corners)):
        for comp in range(grid.n):
            vp = grid.values.copy()
            vm = grid.values.copy()
            vp[corner + (comp,)] += eps
            vm[corner + (comp,)] -= eps
            gp = sp.LatentGrid(values=vp)
            gm = sp.LatentGrid(values=vm)
            jp = phi @ latent_at(gp, box, p)
            jm = phi @ latent_at(gm, box, p)
            fd = (jp - jm) / (2 * eps)
            assert abs(fd - contribs[ci, comp]) <= 1e-5 * max(1.0, abs(fd))


def test_interp_inside_obstacle_raises(box, grid):
    with pytest.raises(InputError):
        latent_at(grid, box, box.voxel_center((0, 0, 0)))


def test_init_grid_structure(box):
    grid = sp.init_latent_grid(box, 5, seed=2)
    assert grid.dims == box.dims and grid.n == 5
    # first three channels hold centered physical coordinates
    mid = box.origin + (np.asarray(box.dims) - 1) * box.spacing / 2.0
    c = box.voxel_center((2, 1, 6))
    assert np.allclose(grid.values[2, 1, 6, :3], c - mid)
    assert np.all(np.abs(grid.values[..., 3:]) <= 0.01)
    with pytest.raises(InputError):
        sp.init_latent_grid(box, 0)


# ---------------------------------------------------------------------------
# The batched core against the scalar reference
# ---------------------------------------------------------------------------


def _reference_outcome(data, scene, p):
    try:
        return RESOLVED, oracle_masked_interp(data, scene, p)
    except InputError:
        return (OUTSIDE if not scene.contains(p) else OCCUPIED), None


def test_interp_points_matches_scalar_reference(maze_scene):
    """Corners, weights, values and per-point outcome agree with the scalar
    walk over points in free voxels, in walls and outside the scene."""
    rng = np.random.default_rng(7)
    data = rng.normal(size=maze_scene.dims + (3,))
    points = [random_free_position(maze_scene, rng) for _ in range(300)]
    points += [maze_scene.voxel_center(i) for i in np.argwhere(maze_scene.occupancy)[:5]]
    points += [np.array([-5.0, 1.0, 1.0]), np.array([np.nan, 1.0, 1.0])]

    batch = sp.interp_points(maze_scene, np.array(points))
    values = batch.sample(data)
    for i, p in enumerate(points):
        status, ref = _reference_outcome(data, maze_scene, p)
        assert batch.status[i] == status, i
        if status != RESOLVED:
            assert np.isnan(values[i]).all()
            continue
        value, corners, weights = ref
        used = batch.weights[i] > 0.0
        assert np.array_equal(batch.corners[i, used], corners)
        assert np.allclose(batch.weights[i, used], weights, rtol=1e-14, atol=0.0)
        assert np.allclose(values[i], value, rtol=1e-12, atol=1e-15)


def test_interp_points_rows_do_not_depend_on_the_batch(maze_scene):
    """A one-point call gives each row of a batch bit for bit."""
    rng = np.random.default_rng(8)
    data = rng.normal(size=maze_scene.dims + (4,))
    points = np.array([random_free_position(maze_scene, rng) for _ in range(40)])
    values = sp.interp_points(maze_scene, points).sample(data)
    for p, row in zip(points, values):
        assert np.array_equal(sp.interp_points(maze_scene, p[None]).sample(data)[0], row)


# ---------------------------------------------------------------------------
# Chain-table visibility against the walked corner rays
# ---------------------------------------------------------------------------

_PLACEMENTS = [(1.0, (0.0, 0.0, 0.0)), (0.37, (-3.1, 2.2, 0.7)), (2.5, (10.0, -4.0, 1.25))]


def _degenerate_offsets(rng, n, eps):
    """Offsets from a voxel centre, in voxel units, of ``n`` points: in
    turn two offsets tie, all three tie, or one sits at a face, each to
    within ``eps`` on either side."""
    beta = rng.uniform(0.0, 0.5, size=(n, 3))
    a, b = rng.permuted(np.tile([0, 1, 2], (n, 1)), axis=1)[:, :2].T
    jitter = rng.choice([-eps, eps], size=(n, 3))
    pair, triple, face = (np.arange(k, n, 3) for k in range(3))
    beta[pair, b[pair]] = beta[pair, a[pair]] + jitter[pair, 0]
    beta[triple] = beta[triple, :1] + jitter[triple]
    beta[face, a[face]] = 0.5 + jitter[face, 0]
    return np.abs(beta) * rng.choice([-1.0, 1.0], size=(n, 3))


def _chain_points(scene, rng):
    """Uniform points over the bounding box and a margin, points on the
    quarter- and half-grid of the voxel centres, and near-degenerate
    points around free voxel centres at 1e-7, 1e-9, 1e-12 and 0."""
    lo, hi, dims = scene._lo, scene._hi, np.array(scene.dims)
    free = scene.free_indices()
    pad = 0.05 * (hi - lo)
    cells = [rng.uniform(-0.5, dims - 0.5, size=(1000, 3)),
             rng.integers(-2, 4 * dims - 1, size=(600, 3)) / 4.0,
             rng.integers(-1, 2 * dims, size=(600, 3)) / 2.0]
    for eps in (1e-7, 1e-9, 1e-12, 0.0):
        cells.append(free[rng.integers(len(free), size=400)] + _degenerate_offsets(rng, 400, eps))
    margin = rng.uniform(lo - pad, hi + pad, size=(200, 3))
    return np.vstack([scene.origin + np.vstack(cells) * scene.spacing, margin])


@pytest.mark.parametrize("placement", _PLACEMENTS, ids=["unit", "0.37", "2.5"])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_interp_points_matches_walked_corner_rays(kind, placement):
    """The chain table gives the corners, weights and status of the walk
    over every corner ray, on uniform, quarter- and half-grid points and on
    points whose offsets tie or sit at a face to within 1e-7, 1e-9, 1e-12
    or exactly."""
    spacing, origin = placement
    k = SCENE_KINDS.index(kind)
    scene = sp.build_scene(sp.SceneSpec(kind=kind, dims=(10, 5, 11), spacing=spacing, origin=origin, seed=k))
    rng = np.random.default_rng(50 + k)
    points = _chain_points(scene, rng)
    got, want = sp.interp_points(scene, points), walk_interp_points(scene, points)
    assert np.array_equal(got.status, want.status)
    assert np.array_equal(got.corners, want.corners)
    assert np.array_equal(got.weights, want.weights)
    assert (got.status == RESOLVED).sum() > 1600


@pytest.mark.parametrize("placement", _PLACEMENTS, ids=["unit", "0.37", "2.5"])
@pytest.mark.parametrize("kind", SCENE_KINDS)
def test_every_point_in_a_free_voxel_resolves(kind, placement):
    """A point whose voxel is free resolves, and the cell corner at its
    own voxel's centre keeps a positive weight: that corner is within half
    a voxel of the point on every axis and sees it, so no point needs a
    fallback. Checked on the chain test's point sets, near-degenerate
    points included."""
    spacing, origin = placement
    k = SCENE_KINDS.index(kind)
    scene = sp.build_scene(sp.SceneSpec(kind=kind, dims=(10, 5, 11), spacing=spacing, origin=origin, seed=k))
    points = _chain_points(scene, np.random.default_rng(70 + k))
    batch = sp.interp_points(scene, points)
    inside = scene._inside(points)
    voxel = np.full((len(points), 3), -1)
    voxel[inside] = [scene.voxel_of(p) for p in points[inside]]
    free = inside.copy()
    free[inside] = ~scene.occupancy[tuple(voxel[inside].T)]
    assert free.sum() > 1600
    assert np.array_equal(batch.status == RESOLVED, free)
    own = (batch.corners[free] == voxel[free, None, :]).all(axis=2)
    assert (own.sum(axis=1) == 1).all()
    assert (batch.weights[free][own] > 0.0).all()
    assert np.allclose(batch.weights[free].sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_chain_table_matches_walk_on_every_block_pattern(monkeypatch):
    """Every occupancy pattern of a 2x2x2 block, a point in each of its
    voxels with each order of its offsets: a corner keeps its weight
    exactly when it is free and the walk from its centre sees the point,
    and no ray is walked."""
    from soundprop import latentfield

    occ = np.zeros((3 * 256, 4, 4), dtype=bool)
    blocks = 3 * np.arange(256) + 1
    for bit, (i, j, k) in enumerate(CORNERS):
        occ[blocks[(np.arange(256) >> bit & 1) == 1] + i, 1 + j, 1 + k] = True
    scene = sp.VoxelScene(dims=occ.shape, spacing=1.0, origin=np.zeros(3), occupancy=occ)
    orders = list(itertools.permutations(range(3)))
    pattern, pv, order = (a.ravel() for a in np.meshgrid(np.arange(256), np.arange(8), np.arange(6), indexing="ij"))
    beta = np.zeros((len(pattern), 3))
    for o, axes in enumerate(orders):
        beta[np.ix_(order == o, list(axes))] = (0.1, 0.25, 0.4)
    side = CORNERS[pv]
    base = np.stack([blocks[pattern], np.ones_like(pattern), np.ones_like(pattern)], axis=1)
    points = base + np.where(side == 1, 1.0 - beta, beta)

    def no_walk(*args):
        raise AssertionError("a non-degenerate point was walked")

    monkeypatch.setattr(latentfield, "_walk", no_walk)
    batch = sp.interp_points(scene, points)
    monkeypatch.undo()
    resolved = batch.status == RESOLVED
    assert resolved.sum() == len(points) // 2  # its voxel is free in half the patterns
    corners = base[:, None, :] + CORNERS
    assert np.array_equal(batch.corners, corners)
    free = ~occ[tuple(corners.reshape(-1, 3).T)].reshape(-1, 8)
    sees = sp.lines_of_sight(scene, corners.reshape(-1, 3).astype(float), np.repeat(points, 8, axis=0))
    want = free & sees.reshape(-1, 8)
    assert np.array_equal(batch.weights[resolved] > 0.0, want[resolved])
    assert 0 < want[resolved].sum() < want[resolved].size


def test_near_degenerate_points_reach_the_walker(box, monkeypatch):
    """A point whose offsets tie, or one of which nears a face, to within
    1e-6 has its corner rays walked; a point clear of both has none."""
    from soundprop import latentfield

    walked = []
    walk = latentfield._walk
    monkeypatch.setattr(
        latentfield, "_walk", lambda s, a, b, start, end: walked.append(end.copy()) or walk(s, a, b, start, end)
    )
    centre = box.voxel_center((3, 1, 4))
    clear = centre + np.array([0.1, -0.2, 0.3]) * box.spacing
    for offset in ([0.1, 0.1 + 5e-7, 0.3], [0.2, -0.2, 0.3], [0.1, 0.5 - 5e-7, -0.3]):
        walked.clear()
        p = centre + np.array(offset) * box.spacing
        batch = sp.interp_points(box, np.array([clear, p]))
        assert (batch.status == RESOLVED).all()
        assert len(walked) == 1
        assert (walked[0] == [3, 1, 4]).all()
        assert len(walked[0]) == np.count_nonzero(batch.weights[1])
    walked.clear()
    sp.interp_points(box, clear[None])
    assert walked == []
