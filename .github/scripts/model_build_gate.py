"""Peak memory of one ForwardModel build on a large acceptance mesh.

Usage: python .github/scripts/model_build_gate.py CASE --max-hwm-mb MB [--max-band ROWS]
       [--max-forward-rows ROWS]

CASE is one of
  3d-refined  60 x 16 x 8 HEX8, 2 sections and a buried defect; prints the
              rows of the interior band and the interior rows the forward
              sweep of an interior recovery covers
  2d-320x80   320 x 80 QUAD4, 9 sections and two defects; prints the free dofs
  3d-blocks   60 x 16 x 8 HEX8 in 80 equal blocks (10 x 4 x 2); prints the
              interface dofs

Builds the model under BoundaryConditions("xmin", 0.1) and prints one line:
the build time, the case's size and the peak resident set (VmHWM). Exits 1
when the peak exceeds --max-hwm-mb or, given --max-band, the interior band
exceeds that many rows or, given --max-forward-rows, the forward sweep
covers more interior rows than that; 0 otherwise.
"""

import argparse
import sys
import time

import numpy as np

import femupdate as fu


def refined_3d():
    mesh = fu.build_coupon_mesh(100.0, 20.0, 8.0, 60, 16, 8)
    pmap = fu.partition_longitudinal(mesh, 2)
    return mesh, fu.stamp_defect_patches(pmap, mesh, [fu.DefectSpec((40.0, 5.0, 0.0), (60.0, 15.0, 4.0))])


def coupon_2d():
    mesh = fu.build_coupon_mesh(100.0, 20.0, 2.0, 320, 80)
    pmap = fu.partition_longitudinal(mesh, 9)
    defects = [fu.DefectSpec((20.0, 6.0), (32.0, 14.0)), fu.DefectSpec((60.0, 4.0), (72.0, 12.0))]
    return mesh, fu.stamp_defect_patches(pmap, mesh, defects)


def blocks_3d():
    mesh = fu.build_coupon_mesh(100.0, 20.0, 8.0, 60, 16, 8)
    shape, counts = mesh.divisions[::-1], (2, 4, 10)  # element numbers run x fastest
    index = np.unravel_index(np.arange(mesh.n_elements), shape)
    block = [i * c // n for i, c, n in zip(index, counts, shape)]
    return mesh, fu.PatchMap(np.ravel_multi_index(block, counts), 80)


def forward_rows(model) -> int:
    """Interior rows the forward sweep of a recovery covers: from each
    block's first row coupled to the interface to the block's end."""
    return sum(end - start for start, end in model._recovery_sweeps[0])


# case -> (mesh and patches, the size the printed line reports)
CASES = {
    "3d-refined": (refined_3d, lambda model: f"interior band {model._interior.shape[0]} rows, forward sweep "
                               f"{forward_rows(model)} of {model._interior_patch.size} interior rows"),
    "2d-320x80": (coupon_2d, lambda model: f"{model.free_dofs.size} free dofs"),
    "3d-blocks": (blocks_3d, lambda model: f"{model._s_indptr.size - 1} interface dofs"),
}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Peak memory of one ForwardModel build.")
    parser.add_argument("case", choices=sorted(CASES))
    parser.add_argument("--max-hwm-mb", type=float, required=True)
    parser.add_argument("--max-band", type=int)
    parser.add_argument("--max-forward-rows", type=int)
    args = parser.parse_args(argv)
    build, size = CASES[args.case]
    mesh, pmap = build()
    start = time.perf_counter()
    model = fu.ForwardModel(mesh, pmap, 0.3, fu.BoundaryConditions("xmin", 0.1))
    build_s = time.perf_counter() - start
    with open("/proc/self/status") as fh:
        hwm_mb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM")) / 1024
    print(f"build {build_s:.2f} s, {size(model)}, VmHWM {hwm_mb:.0f} MB")
    band_ok = args.max_band is None or model._interior.shape[0] <= args.max_band
    sweep_ok = args.max_forward_rows is None or forward_rows(model) <= args.max_forward_rows
    return 0 if band_ok and sweep_ok and hwm_mb <= args.max_hwm_mb else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
