"""Tour of the synthetic scene kinds and line-of-sight queries."""

import numpy as np

import soundprop as sp

specs = [
    sp.SceneSpec(kind="empty-box", dims=(8, 4, 8)),
    sp.SceneSpec(kind="wall-with-aperture", dims=(16, 4, 16)),
    sp.SceneSpec(kind="maze", dims=(32, 4, 32), seed=7),
    sp.SceneSpec(kind="coupled-rooms", dims=(14, 4, 10)),
    sp.SceneSpec(kind="cylinder-forest", dims=(20, 4, 20), seed=3),
]

for spec in specs:
    scene = sp.build_scene(spec)
    free = int(scene.free_mask().sum())
    regions = np.unique(scene.regions[scene.free_mask()])
    print(f"{spec.kind:20s} dims {scene.dims}, {free:5d} free voxels, "
          f"regions {list(regions)}")

print()
print("visibility demo on the aperture scene")
scene = sp.build_scene(specs[1])
mid = scene.dims[0] // 2
j, k = np.argwhere(~scene.occupancy[mid])[0]
p = scene.voxel_center((2, j, k))
cells = scene.free_indices()
mask = np.zeros(scene.dims, dtype=bool)
mask[tuple(cells.T)] = sp.lines_of_sight(scene, p, scene.voxel_center(cells))
near = mask[: mid].sum()
far = mask[mid + 1 :].sum()
total_far = scene.free_mask()[mid + 1 :].sum()
print(f"from {p}: sees {int(near)} near-side voxels and "
      f"{int(far)}/{int(total_far)} far-side voxels through the slit")

q_blocked = scene.voxel_center((mid + 3, 1, 2))
q_through = scene.voxel_center((mid + 3, j, k))
blocked, through = sp.lines_of_sight(scene, p, np.array([q_blocked, q_through]))
print("blocked pair:", blocked)
print("through-slit pair:", through)
