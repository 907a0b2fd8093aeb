import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

import soundprop as sp
from soundprop.errors import ConfigurationError, InputError

from oracles import heapq_geodesic, line_of_sight, loop_synth_fields



def scipy_geodesic(scene, source_idx):
    """Independent Dijkstra oracle over an explicitly assembled graph."""
    free = scene.free_indices()
    index_of = {tuple(v): i for i, v in enumerate(map(tuple, free))}
    rows, cols, weights = [], [], []
    offsets = [
        (di, dj, dk)
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        for dk in (-1, 0, 1)
        if (di, dj, dk) != (0, 0, 0)
    ]
    for i, (a, b, c) in enumerate(map(tuple, free)):
        for di, dj, dk in offsets:
            nb = (a + di, b + dj, c + dk)
            j = index_of.get(nb)
            if j is not None:
                rows.append(i)
                cols.append(j)
                weights.append(np.sqrt(di * di + dj * dj + dk * dk) * scene.spacing)
    graph = coo_matrix((weights, (rows, cols)), shape=(len(free), len(free)))
    start = index_of[tuple(source_idx)]
    dist, pred = scipy_dijkstra(graph, indices=start, return_predecessors=True)
    return free, dist, pred, index_of


def test_geodesic_zero_at_source(box_scene):
    src = box_scene.voxel_center((4, 2, 4))
    geo = sp.geodesic_field(box_scene, src)
    assert geo.values[4, 2, 4] == 0.0


def test_geodesic_axis_aligned_exact():
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(14, 4, 4)))
    src = scene.voxel_center((1, 1, 1))
    geo = sp.geodesic_field(scene, src)
    assert geo.values[11, 1, 1] == pytest.approx(10.0, abs=1e-12)


def test_geodesic_source_in_obstacle_errors(box_scene):
    with pytest.raises(InputError):
        sp.geodesic_field(box_scene, box_scene.voxel_center((0, 0, 0)))


def test_geodesic_matches_independent_dijkstra(aperture_scene):
    src_idx = (2, 1, 2)
    src = aperture_scene.voxel_center(src_idx)
    geo = sp.geodesic_field(aperture_scene, src)
    free, dist, _, _ = scipy_geodesic(aperture_scene, src_idx)
    ours = geo.values[free[:, 0], free[:, 1], free[:, 2]]
    assert np.allclose(ours, dist, atol=1e-9)
    # spot-check one shadowed receiver explicitly
    mid = aperture_scene.dims[0] // 2
    shadow_idx = (mid + 3, 1, 2)
    flat = {tuple(v): i for i, v in enumerate(map(tuple, free))}[shadow_idx]
    straight = np.linalg.norm(aperture_scene.voxel_center(shadow_idx) - src)
    assert geo.values[shadow_idx] == pytest.approx(dist[flat], abs=1e-9)
    assert geo.values[shadow_idx] > straight + 1e-9


def test_geodesic_lower_bound(maze_scene):
    src = maze_scene.voxel_center(maze_scene.free_indices()[0])
    geo = sp.geodesic_field(maze_scene, src)
    centers = maze_scene.voxel_centers()
    straight = np.linalg.norm(centers - src, axis=-1)
    valid = geo.valid_mask()
    assert np.all(geo.values[valid] >= straight[valid] - 1e-9)


def test_geodesic_los_ratio_bound(aperture_scene):
    # Exact worst-case overestimate of the 26-connected lattice metric:
    # sqrt(3 - sqrt(3)) ~ 1.1260, attained off the axis/diagonal directions.
    bound = float(np.sqrt(3.0 - np.sqrt(3.0)))
    src_idx = (3, 2, 5)
    src = aperture_scene.voxel_center(src_idx)
    geo = sp.geodesic_field(aperture_scene, src)
    centers = aperture_scene.voxel_centers()
    straight = np.linalg.norm(centers - src, axis=-1)
    rng = np.random.default_rng(5)
    free = aperture_scene.free_indices()
    checked = 0
    for _ in range(300):
        idx = tuple(free[rng.integers(len(free))])
        if idx == src_idx:
            continue
        if line_of_sight(aperture_scene, src, aperture_scene.voxel_center(idx)):
            ratio = geo.values[idx] / straight[idx]
            assert 1.0 - 1e-9 <= ratio <= bound + 1e-9
            checked += 1
    assert checked > 20


def test_geodesic_triangle_inequality(box_scene):
    rng = np.random.default_rng(9)
    free = box_scene.free_indices()
    fields = {}
    slack = np.sqrt(3.0) * box_scene.spacing
    for _ in range(30):
        a, b, c = (tuple(free[rng.integers(len(free))]) for _ in range(3))
        for key in (a, b):
            if key not in fields:
                fields[key] = sp.geodesic_field(box_scene, box_scene.voxel_center(key))
        d_ab = fields[a].values[b]
        d_bc = fields[b].values[c]
        d_ac = fields[a].values[c]
        assert d_ac <= d_ab + d_bc + slack


def test_geodesic_reciprocity(aperture_scene):
    rng = np.random.default_rng(3)
    free = aperture_scene.free_indices()
    for _ in range(5):
        a = tuple(free[rng.integers(len(free))])
        b = tuple(free[rng.integers(len(free))])
        fa = sp.geodesic_field(aperture_scene, aperture_scene.voxel_center(a))
        fb = sp.geodesic_field(aperture_scene, aperture_scene.voxel_center(b))
        assert fa.values[b] == pytest.approx(fb.values[a], abs=1e-9)


# ---------------------------------------------------------------------------
# Synthetic parameter fields
# ---------------------------------------------------------------------------


def test_synth_levels_inverse_square(box_scene):
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(16, 4, 4)))
    src = scene.voxel_center((1, 1, 1))
    geo = sp.geodesic_field(scene, src)
    fields = sp.synth_acoustic_fields(scene, src, geo)
    # line-of-sight receivers on the source axis: pure inverse-square law
    assert fields["l_ds"].values[2, 1, 1] == pytest.approx(0.0, abs=1e-12)  # 1 m
    assert fields["l_ds"].values[11, 1, 1] == pytest.approx(-20.0, abs=1e-12)  # 10 m


def test_synth_decays_piecewise_constant():
    scene = sp.build_scene(sp.SceneSpec(kind="coupled-rooms", dims=(12, 4, 8)))
    src = scene.voxel_center((2, 1, 3))
    fields = sp.bake_source(scene, src)
    tau = fields["tau_lr"]
    for idx in scene.free_indices():
        rid = scene.regions[tuple(idx)]
        expected = scene.region_params[int(rid)].tau_lr
        if np.isfinite(tau.values[tuple(idx)]):
            assert tau.values[tuple(idx)] == pytest.approx(expected, abs=0.0)


def test_synth_fields_missing_regions_error(box_scene):
    bare = sp.VoxelScene(
        dims=box_scene.dims,
        spacing=box_scene.spacing,
        origin=box_scene.origin,
        occupancy=box_scene.occupancy,
    )
    src = box_scene.voxel_center((4, 2, 4))
    geo = sp.geodesic_field(bare, src)
    with pytest.raises(ConfigurationError):
        sp.synth_acoustic_fields(bare, src, geo)


SYNTH_SCENES = {
    "coupled-rooms": sp.SceneSpec(kind="coupled-rooms", dims=(14, 4, 10), spacing=0.5, origin=(1.0, -0.5, 2.0)),
    "aperture": sp.SceneSpec(kind="wall-with-aperture", dims=(16, 4, 16)),
    "gym-forest": sp.SceneSpec(kind="cylinder-forest", dims=(59, 8, 59), seed=11),
}


@pytest.mark.parametrize("name", sorted(SYNTH_SCENES))
def test_synth_fields_bit_identical_to_region_loop(name):
    """All four fields equal the whole-grid, per-region-loop version bit
    for bit, from a voxel centre and from an off-centre source."""
    scene = sp.build_scene(SYNTH_SCENES[name])
    free = scene.free_indices()
    rng = np.random.default_rng(5)
    for i in rng.choice(len(free), size=3, replace=False):
        centre = scene.voxel_center(free[i])
        for src in (centre, centre + rng.uniform(-0.45, 0.45, 3) * scene.spacing):
            geo = sp.geodesic_field(scene, src)
            got = sp.synth_acoustic_fields(scene, src, geo)
            want = loop_synth_fields(scene, src, geo)
            assert got.keys() == want.keys()
            for kind in want:
                assert np.array_equal(got[kind].values, want[kind].values, equal_nan=True), kind
    if name == "coupled-rooms":
        assert len(np.unique(got["tau_er"].values[got["tau_er"].valid_mask()])) == 2


def test_synth_fields_name_the_missing_region():
    scene = sp.build_scene(sp.SceneSpec(kind="coupled-rooms", dims=(12, 4, 8)))
    one_room = sp.VoxelScene(
        dims=scene.dims, spacing=scene.spacing, origin=scene.origin, occupancy=scene.occupancy,
        regions=scene.regions, region_params={1: scene.region_params[1]},
    )
    src = scene.voxel_center((2, 1, 3))
    geo = sp.geodesic_field(one_room, src)
    with pytest.raises(ConfigurationError, match="region 2"):
        sp.synth_acoustic_fields(one_room, src, geo)


# ---------------------------------------------------------------------------
# Synthetic impulse responses
# ---------------------------------------------------------------------------


def test_synth_ir_arrival_time():
    params = sp.AcousticParamSet(pi=34.3, l_ds=-6.0, l_er=-12.0, tau_er=0.3, tau_lr=0.9)
    ir = sp.synth_ir(params, sp.SyntheticIRConfig(seed=1))
    t_ds, pi = sp.arrival_and_distance(ir)
    assert t_ds == pytest.approx(0.1, abs=1.0 / ir.sample_rate)
    assert pi == pytest.approx(34.3, abs=343.0 / ir.sample_rate)


def test_synth_ir_ds_window_energy():
    params = sp.AcousticParamSet(pi=3.43, l_ds=-6.02, l_er=-30.0, tau_er=0.2, tau_lr=0.5)
    ir = sp.synth_ir(params, sp.SyntheticIRConfig(seed=2))
    t_ds, _ = sp.arrival_and_distance(ir)
    cfg = sp.WindowConfig()
    level = sp.window_level(ir, cfg.ds_window(t_ds))
    assert 10.0 ** (level / 10.0) == pytest.approx(0.25, rel=1e-3)


def test_synth_ir_lr_schroeder_slope():
    params = sp.AcousticParamSet(pi=1.0, l_ds=0.0, l_er=-8.0, tau_er=0.4, tau_lr=1.0)
    ir = sp.synth_ir(params, sp.SyntheticIRConfig(seed=3))
    t_ds, _ = sp.arrival_and_distance(ir)
    curve = sp.schroeder_curve(ir)
    tau = sp.decay_time(curve, sp.WindowConfig().lr_window(t_ds), "linear-regression")
    slope = -60.0 / tau
    assert slope == pytest.approx(-60.0, rel=0.03)


def test_synth_ir_rejects_bad_durations():
    params = sp.AcousticParamSet(pi=1.0, l_ds=0.0, l_er=-8.0, tau_er=0.4, tau_lr=1.0)
    with pytest.raises(ConfigurationError):
        sp.synth_ir(params, sp.SyntheticIRConfig(duration=0.5))
    with pytest.raises(ConfigurationError):
        sp.synth_ir(
            sp.AcousticParamSet(pi=1.0, l_ds=0.0, l_er=-8.0, tau_er=5.0, tau_lr=1.0)
        )


# ---------------------------------------------------------------------------
# Grid-level direction of arrival
# ---------------------------------------------------------------------------


def test_doa_field_unit_norm_and_source_sentinel():
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(12, 6, 12)))
    src = scene.voxel_center((6, 3, 6))
    geo = sp.geodesic_field(scene, src)
    doa = sp.doa_field(scene, geo)
    valid = doa.valid_mask()
    norms = np.linalg.norm(doa.values[valid], axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-6)
    assert not valid[6, 3, 6]  # degenerate at the source


def test_doa_field_points_at_axis_source():
    scene = sp.build_scene(sp.SceneSpec(kind="empty-box", dims=(12, 6, 12)))
    src = scene.voxel_center((6, 3, 6))
    geo = sp.geodesic_field(scene, src)
    doa = sp.doa_field(scene, geo)
    d = doa.values[2, 3, 6]
    assert d @ np.array([1.0, 0.0, 0.0]) > np.cos(np.radians(5.0))


# ---------------------------------------------------------------------------
# Frontier relaxation against the heapq Dijkstra oracle, bit for bit
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def forest_with_pocket():
    """59x8x59 cylinder forest with a walled-off pocket of free voxels."""
    forest = sp.build_scene(sp.SceneSpec(kind="cylinder-forest", dims=(59, 8, 59), seed=3))
    occ = forest.occupancy.copy()
    occ[40:47, 1:-1, 40:47] = True
    occ[41:46, 1:-1, 41:46] = False
    return sp.VoxelScene(
        dims=forest.dims, spacing=forest.spacing, origin=forest.origin, occupancy=occ
    ), (slice(41, 46), slice(1, 7), slice(41, 46))


def test_geodesic_sorts_and_pads_nothing(maze_scene, monkeypatch):
    """The sweep reads the scene's padded labels and marks its next
    frontier: no ``np.unique`` and no ``np.pad`` call."""
    def forbidden(*args, **kwargs):
        raise AssertionError("np.unique or np.pad called by geodesic_field")

    want = heapq_geodesic(maze_scene, maze_scene.voxel_center(maze_scene.free_indices()[5]))
    monkeypatch.setattr(np, "unique", forbidden)
    monkeypatch.setattr(np, "pad", forbidden)
    got = sp.geodesic_field(maze_scene, maze_scene.voxel_center(maze_scene.free_indices()[5]))
    assert np.array_equal(got.values, want, equal_nan=True)


@pytest.mark.parametrize("where", ["centre", "off-centre", "in-pocket"])
def test_geodesic_bit_identical_to_heapq_dijkstra(forest_with_pocket, where):
    scene, pocket = forest_with_pocket
    rng = np.random.default_rng(11)
    if where == "in-pocket":
        src = scene.voxel_center((43, 3, 43))
    else:
        free = scene.free_indices()
        outside = free[~((free[:, 0] >= 40) & (free[:, 0] <= 46) & (free[:, 2] >= 40) & (free[:, 2] <= 46))]
        src = scene.voxel_center(outside[rng.integers(len(outside))])
        if where == "off-centre":
            src = src + np.array([0.37, -0.21, 0.44]) * scene.spacing
    got = sp.geodesic_field(scene, src).values
    want = heapq_geodesic(scene, src)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got[scene.occupancy]).all()
    in_pocket = np.zeros(scene.dims, dtype=bool)
    in_pocket[pocket] = True
    reached = np.isfinite(got)
    if where == "in-pocket":
        assert (reached == in_pocket).all()
    else:
        assert not reached[in_pocket].any()
        assert reached[scene.free_mask() & ~in_pocket].all()
