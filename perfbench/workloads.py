"""Benchmark workloads: config generation from a seed and output gates.

Each workload is one ``femupdate invert`` on one generated input. The seed
sets the measurement noise draw and the GA seed; the program itself sees
only the generated config JSON and measurement CSV.

The seed changes the data but not the amount of work, so that run-to-run
spread measures the machine, not the input: each inversion runs a fixed
optimizer budget. The GA stall window (15 generations) is longer than its
generation cap, and the gradient stage reaches its iteration cap before
its default tolerances.
"""

import json
import os

import numpy as np

E0 = 200000.0
NU = 0.3
STRAIN_FLOOR = 3e-5
NOISE_SIGMA = 0.01
# Files two runs on the same input must reproduce bytewise.
OUTPUTS_TO_COMPARE = ("convergence.csv", "report.json")


def _seeds(seed: int) -> tuple[int, int]:
    """(measurement noise seed, GA seed), independent streams of one seed."""
    noise, ga = np.random.SeedSequence(seed).generate_state(2)
    return int(noise), int(ga)


def read_strain_csv(path: str) -> np.ndarray:
    """Rows of a measurement CSV (x, y, exx, eyy, exy), comments skipped."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and not line.startswith("x_mm"):
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


def cost_at_truth(noisy_csv: str, clean_csv: str, strain_floor: float) -> float:
    """Relative strain-residual misfit of the noise-free field against the
    noisy one, written out term by term independently of the program's cost."""
    noisy = read_strain_csv(noisy_csv)
    clean = read_strain_csv(clean_csv)
    if noisy.shape != clean.shape or np.abs(noisy[:, :2] - clean[:, :2]).max() > 1e-9:
        raise ValueError("noisy and clean measurements are not on one grid")
    denom = np.maximum(np.abs(noisy[:, 2:]), strain_floor)
    return float(np.sum(((noisy[:, 2:] - clean[:, 2:]) / denom) ** 2))


class Workload:
    """One inversion shape. Subclasses define the config and the moduli gates."""

    name = ""
    # The optimum of a noisy misfit is never worse than the truth, so a
    # converged run ends at a ratio below 1; one that stopped short ends
    # above (1.005 to 1.3 with half the gradient budget).
    max_cost_ratio = 1.001

    def config(self, seed: int, outdir: str) -> dict:
        raise NotImplementedError

    def check_moduli(self, recovered: np.ndarray, rel: np.ndarray) -> list:
        raise NotImplementedError

    def check(self, outdir: str, cost_of_truth: float) -> tuple[list, dict]:
        """Gate one run's outputs; returns (failure messages, quality values)."""
        try:
            with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"report.json unreadable: {exc}"], {}
        recovered = np.array(report["recovered_moduli_mpa"], dtype=float)
        truth = np.array(report["truth_moduli_mpa"], dtype=float)
        if recovered.shape != truth.shape or not np.all(np.isfinite(recovered)):
            return ["recovered moduli missing or non-finite"], {}
        rel = np.abs(recovered - truth) / truth
        quality = {
            "final_cost_ratio": report["final_cost"] / cost_of_truth,
            "max_modulus_error": float(rel.max()),
            "forward_solve_count": int(report["forward_solve_count"]),
        }
        failures = self.check_moduli(recovered, rel)
        if not quality["final_cost_ratio"] <= self.max_cost_ratio:
            failures.append(f"final cost ratio {quality['final_cost_ratio']:.9f} > {self.max_cost_ratio}")
        return failures, quality


class Invert2D(Workload):
    """Acceptance noise-robustness problem (11 patches, 1% noise) at a fixed
    budget of GA 40 x 20 and 90 FD-gradient iterations: many cheap solves."""

    name = "invert2d"
    defects = (9, 10)

    def config(self, seed, outdir):
        noise_seed, ga_seed = _seeds(seed)
        return {
            "geometry": {"length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 2.0, "nx": 40, "ny": 10},
            "patches": {
                "n_sections": 9,
                "defects": [
                    {"box_min": [20.0, 6.0], "box_max": [32.0, 14.0]},
                    {"box_min": [60.0, 4.0], "box_max": [72.0, 12.0]},
                ],
            },
            "material": {
                "e_ref_mpa": E0,
                "poisson_ratio": NU,
                "truth_moduli_mpa": {"9": 0.3 * E0, "10": 0.3 * E0},
            },
            "bcs": {"u_applied_mm": 0.1},
            "measurement": {"grid_counts": [40, 10], "noise_sigma": NOISE_SIGMA, "rng_seed": noise_seed},
            "ga": {"population_size": 40, "generations_max": 20, "rng_seed": ga_seed},
            "grad": {"max_iterations": 90},
            "strain_floor": STRAIN_FLOOR,
            "output_dir": outdir,
        }

    def check_moduli(self, recovered, rel):
        failures = []
        smallest = set(np.argsort(recovered)[:2].tolist())
        if smallest != set(self.defects):
            failures.append(f"two smallest moduli are patches {sorted(smallest)}, not {list(self.defects)}")
        for k in self.defects:
            if not rel[k] < 0.15:
                failures.append(f"defect patch {k} off by {rel[k]:.1%} (limit 15%)")
        return failures


class Invert3D(Workload):
    """Acceptance buried-defect coupon with 1% noise at a fixed budget of
    GA 6 x 4 and 10 gradient iterations: few, costly solves."""

    name = "invert3d"
    defect = 2

    def config(self, seed, outdir):
        noise_seed, ga_seed = _seeds(seed)
        return {
            "geometry": {"dimension": 3, "length_mm": 100.0, "width_mm": 20.0, "thickness_mm": 8.0,
                         "nx": 30, "ny": 8, "nz": 4},
            "patches": {
                "n_sections": 2,
                "defects": [{"box_min": [40.0, 5.0, 0.0], "box_max": [60.0, 15.0, 4.0]}],
            },
            "material": {"e_ref_mpa": E0, "poisson_ratio": NU, "truth_moduli_mpa": {"2": 0.25 * E0}},
            "bcs": {"u_applied_mm": 0.1},
            "measurement": {"grid_counts": [25, 7], "noise_sigma": NOISE_SIGMA, "rng_seed": noise_seed},
            "ga": {"population_size": 6, "generations_max": 4, "rng_seed": ga_seed},
            "grad": {"max_iterations": 10},
            "strain_floor": STRAIN_FLOOR,
            "output_dir": outdir,
        }

    def check_moduli(self, recovered, rel):
        failures = []
        k = self.defect
        intact = min(recovered[0], recovered[1])
        if not recovered[k] <= 0.6 * intact:
            failures.append(f"defect modulus {recovered[k]:.0f} not below 0.6 x intact {intact:.0f}")
        if not rel[k] < 0.05:
            failures.append(f"defect patch off by {rel[k]:.1%} (limit 5%)")
        return failures


WORKLOADS = {w.name: w for w in (Invert2D(), Invert3D())}
