"""Run configuration: JSON schema, validation and default resolution.

A run config is one JSON document. Unknown keys are rejected (typo
safety) and every validation error names the offending field path.
All fields have defaults except the physical geometry dimensions.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .geometry import DefectSpec, Mesh, PatchMap, build_coupon_mesh, partition_longitudinal, stamp_defect_patches
from .inversion import GAConfig, GradConfig
from .measurement import MeasurementGrid, grid_for_footprint
from .solver import BoundaryConditions

_FACES = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")


@dataclass
class RunConfig:
    """Fully resolved run configuration (see ``load_config``)."""

    dimension: int
    length_mm: float
    width_mm: float
    thickness_mm: float
    nx: int
    ny: int
    nz: int
    n_sections: int
    defects: list
    e_ref_mpa: float
    poisson_ratio: float
    truth_moduli_mpa: dict
    u_applied_mm: float
    fixed_face: str
    loaded_face: str
    clamp_fixed_face: bool
    grid_counts: list | None
    grid_spacing_mm: list | None
    grid_margin_mm: float | None
    noise_sigma: float
    measurement_seed: int
    ga: GAConfig
    grad: GradConfig
    lo_factor: float
    hi_factor: float
    pin_reference_patch: int | None
    strain_floor: float
    output_dir: str

    # -- problem assembly -------------------------------------------------

    def build_mesh(self) -> Mesh:
        nz = self.nz if self.dimension == 3 else None
        return build_coupon_mesh(self.length_mm, self.width_mm, self.thickness_mm, self.nx, self.ny, nz)

    def build_patch_map(self, mesh: Mesh) -> PatchMap:
        pmap = partition_longitudinal(mesh, self.n_sections)
        specs = [DefectSpec(tuple(d["box_min"]), tuple(d["box_max"])) for d in self.defects]
        return stamp_defect_patches(pmap, mesh, specs)

    def build_bcs(self) -> BoundaryConditions:
        return BoundaryConditions(
            self.fixed_face, self.loaded_face, self.u_applied_mm, clamp_fixed=self.clamp_fixed_face
        )

    def build_grid(self) -> MeasurementGrid:
        return grid_for_footprint(
            (self.length_mm, self.width_mm),
            spacing=self.grid_spacing_mm,
            counts=self.grid_counts,
            margin=self.grid_margin_mm,
        )

    def truth_values(self, patch_count: int) -> np.ndarray:
        values = np.full(patch_count, self.e_ref_mpa)
        for idx, modulus in self.truth_moduli_mpa.items():
            if not (0 <= idx < patch_count):
                raise ConfigError(
                    "material.truth_moduli_mpa", f"patch index {idx} out of range [0, {patch_count})"
                )
            values[idx] = modulus
        return values

    def bounds(self, patch_count: int) -> tuple[np.ndarray, np.ndarray]:
        lower = np.full(patch_count, self.lo_factor * self.e_ref_mpa)
        upper = np.full(patch_count, self.hi_factor * self.e_ref_mpa)
        if self.pin_reference_patch is not None:
            p = self.pin_reference_patch
            if not (0 <= p < patch_count):
                raise ConfigError(
                    "bounds.pin_reference_patch", f"patch index {p} out of range [0, {patch_count})"
                )
            lower[p] = upper[p] = self.e_ref_mpa
        return lower, upper

    def initial_guess(self, patch_count: int) -> np.ndarray:
        lower, upper = self.bounds(patch_count)
        return np.clip(np.full(patch_count, self.e_ref_mpa), lower, upper)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        ga = self.ga
        grad = self.grad
        return {
            "geometry": {
                "dimension": self.dimension,
                "length_mm": self.length_mm,
                "width_mm": self.width_mm,
                "thickness_mm": self.thickness_mm,
                "nx": self.nx,
                "ny": self.ny,
                "nz": self.nz,
            },
            "patches": {"n_sections": self.n_sections, "defects": self.defects},
            "material": {
                "e_ref_mpa": self.e_ref_mpa,
                "poisson_ratio": self.poisson_ratio,
                "truth_moduli_mpa": {str(k): v for k, v in self.truth_moduli_mpa.items()},
            },
            "bcs": {
                "u_applied_mm": self.u_applied_mm,
                "fixed_face": self.fixed_face,
                "loaded_face": self.loaded_face,
                "clamp_fixed_face": self.clamp_fixed_face,
            },
            "measurement": {
                "grid_counts": self.grid_counts,
                "grid_spacing_mm": self.grid_spacing_mm,
                "grid_margin_mm": self.grid_margin_mm,
                "noise_sigma": self.noise_sigma,
                "rng_seed": self.measurement_seed,
            },
            "ga": {
                "population_size": ga.population_size,
                "generations_max": ga.generations_max,
                "crossover_rate": ga.crossover_rate,
                "mutation_rate": ga.mutation_rate,
                "mutation_scale": ga.mutation_scale,
                "elite_count": ga.elite_count,
                "tournament_size": ga.tournament_size,
                "stall_generations": ga.stall_generations,
                "rel_tol": ga.rel_tol,
                "rng_seed": ga.rng_seed,
            },
            "grad": {
                "max_iterations": grad.max_iterations,
                "armijo_c": grad.armijo_c,
                "backtrack_factor": grad.backtrack_factor,
                "grad_tol": grad.grad_tol,
                "step_tol": grad.step_tol,
            },
            "bounds": {
                "lo_factor": self.lo_factor,
                "hi_factor": self.hi_factor,
                "pin_reference_patch": self.pin_reference_patch,
            },
            "strain_floor": self.strain_floor,
            "output_dir": self.output_dir,
        }


class _Section:
    """One config subsection: pops known keys, rejects unknown ones."""

    def __init__(self, path: str, data: dict):
        if not isinstance(data, dict):
            raise ConfigError(path, f"expected an object, got {type(data).__name__}")
        self.path = path
        self.data = dict(data)

    def take(self, key, default=..., kind=None, check=None, required_msg=None):
        path = f"{self.path}.{key}" if self.path else key
        if key not in self.data:
            if default is ...:
                raise ConfigError(path, required_msg or "required field is missing")
            return default
        value = self.data.pop(key)
        # Non-finite values skip conversion (int(inf) would overflow) and are rejected below.
        if kind is not None and value is not None and _all_finite(value):
            try:
                if kind is bool:
                    if not isinstance(value, bool):
                        raise TypeError
                elif isinstance(value, bool):
                    raise TypeError
                else:
                    value = kind(value)
            except (TypeError, ValueError):
                raise ConfigError(path, f"expected {kind.__name__}, got {value!r}") from None
        if not _all_finite(value):
            raise ConfigError(path, f"must be finite, got {value!r}")
        if check is not None and value is not None:
            ok, msg = check(value)
            if not ok:
                raise ConfigError(path, f"{msg}, got {value!r}")
        return value

    def subsection(self, key) -> "_Section":
        path = f"{self.path}.{key}" if self.path else key
        return _Section(path, self.data.pop(key, {}))

    def finish(self):
        if self.data:
            key = sorted(self.data)[0]
            path = f"{self.path}.{key}" if self.path else key
            raise ConfigError(path, "unknown key")


def _all_finite(value) -> bool:
    """False if a float anywhere in ``value`` (lists and objects included) is inf or NaN."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return True


def _positive(v):
    return v > 0, "must be positive"


def _non_negative(v):
    return v >= 0, "must be >= 0"


def _at_least_one(v):
    return v >= 1, "must be >= 1"


def _face(v):
    return v in _FACES, f"must be one of {_FACES}"


def load_config(source) -> RunConfig:
    """Parse and validate a config from a path, JSON string, or dict."""
    if isinstance(source, dict):
        raw = source
    else:
        if str(source).lstrip().startswith("{"):
            text = str(source)
        else:
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(str(source), f"cannot read config file: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(source), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("", "top-level config must be a JSON object")

    top = _Section("", raw)
    geo = top.subsection("geometry")
    dimension = geo.take("dimension", 2, int, lambda v: (v in (2, 3), "must be 2 or 3"))
    length = geo.take("length_mm", ..., float, _positive)
    width = geo.take("width_mm", ..., float, _positive)
    thickness = geo.take("thickness_mm", ..., float, _positive)
    nx = geo.take("nx", 40, int, _at_least_one)
    ny = geo.take("ny", 10, int, _at_least_one)
    nz = geo.take("nz", 4, int, _at_least_one)
    geo.finish()

    patches = top.subsection("patches")
    n_sections = patches.take("n_sections", 9, int, _at_least_one)
    defects_raw = patches.take("defects", [])
    patches.finish()
    if not isinstance(defects_raw, list):
        raise ConfigError("patches.defects", "expected a list of boxes")
    defects = []
    for i, d in enumerate(defects_raw):
        sec = _Section(f"patches.defects[{i}]", d)
        box_min = sec.take("box_min", ...)
        box_max = sec.take("box_max", ...)
        sec.finish()
        for name, box in (("box_min", box_min), ("box_max", box_max)):
            if not isinstance(box, list) or len(box) != dimension:
                raise ConfigError(
                    f"patches.defects[{i}].{name}", f"expected {dimension} coordinates"
                )
        try:
            DefectSpec(tuple(box_min), tuple(box_max))
        except ValueError as exc:
            raise ConfigError(f"patches.defects[{i}]", str(exc)) from None
        defects.append({"box_min": [float(v) for v in box_min], "box_max": [float(v) for v in box_max]})

    mat = top.subsection("material")
    e_ref = mat.take("e_ref_mpa", 200000.0, float, _positive)
    nu = mat.take("poisson_ratio", 0.3, float, lambda v: (0 <= v < 0.5, "must satisfy 0 <= nu < 0.5"))
    truth_raw = mat.take("truth_moduli_mpa", {})
    mat.finish()
    if truth_raw is None:
        truth_raw = {}
    if not isinstance(truth_raw, dict):
        raise ConfigError("material.truth_moduli_mpa", "expected an object mapping patch index to MPa")
    truth = {}
    for k, v in truth_raw.items():
        try:
            idx = int(k)
            modulus = float(v)
        except (TypeError, ValueError):
            raise ConfigError(
                "material.truth_moduli_mpa", f"bad entry {k!r}: {v!r} (want integer key, number value)"
            ) from None
        if not 0 < modulus < math.inf:
            raise ConfigError(
                "material.truth_moduli_mpa", f"modulus for patch {idx} must be positive and finite"
            )
        truth[idx] = modulus

    bcs = top.subsection("bcs")
    u_applied = bcs.take("u_applied_mm", 0.1, float)
    fixed_face = bcs.take("fixed_face", "xmin", str, _face)
    loaded_face = bcs.take("loaded_face", "xmax", str, _face)
    clamp = bcs.take("clamp_fixed_face", False, bool)
    bcs.finish()

    meas = top.subsection("measurement")
    grid_counts = meas.take("grid_counts", None)
    grid_spacing = meas.take("grid_spacing_mm", None)
    grid_margin = meas.take("grid_margin_mm", None, float, _positive)
    noise_sigma = meas.take("noise_sigma", 0.0, float, _non_negative)
    meas_seed = meas.take("rng_seed", 12345, int)
    meas.finish()
    for name, pair, kind in (("grid_counts", grid_counts, int), ("grid_spacing_mm", grid_spacing, float)):
        if pair is None:
            continue
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"measurement.{name}", "expected a pair [x, y]")
        try:
            pair[:] = [kind(v) for v in pair]
        except (TypeError, ValueError):
            raise ConfigError(f"measurement.{name}", f"expected {kind.__name__} values") from None
        if not all(0 < v < math.inf for v in pair):
            raise ConfigError(f"measurement.{name}", "values must be positive and finite")
    if grid_counts is None and grid_spacing is None:
        grid_spacing = [length / nx, width / ny]  # default: one element per grid step
    if grid_counts is not None and grid_spacing is not None:
        raise ConfigError("measurement", "give only one of grid_counts and grid_spacing_mm")

    ga_sec = top.subsection("ga")
    ga_kwargs = {}
    for name, kind in (
        ("population_size", int),
        ("generations_max", int),
        ("crossover_rate", float),
        ("mutation_rate", float),
        ("mutation_scale", float),
        ("elite_count", int),
        ("tournament_size", int),
        ("stall_generations", int),
        ("rel_tol", float),
        ("rng_seed", int),
    ):
        value = ga_sec.take(name, None, kind)
        if value is not None:
            ga_kwargs[name] = value
    ga_sec.finish()
    try:
        ga = GAConfig(**ga_kwargs)
    except ValueError as exc:
        raise ConfigError("ga", str(exc)) from None

    grad_sec = top.subsection("grad")
    grad_kwargs = {}
    for name, kind in (
        ("max_iterations", int),
        ("armijo_c", float),
        ("backtrack_factor", float),
        ("grad_tol", float),
        ("step_tol", float),
    ):
        value = grad_sec.take(name, None, kind)
        if value is not None:
            grad_kwargs[name] = value
    grad_sec.finish()
    try:
        grad = GradConfig(**grad_kwargs)
    except ValueError as exc:
        raise ConfigError("grad", str(exc)) from None

    bounds_sec = top.subsection("bounds")
    lo_factor = bounds_sec.take("lo_factor", 0.01, float, _positive)
    hi_factor = bounds_sec.take("hi_factor", 3.0, float, _positive)
    pin = bounds_sec.take("pin_reference_patch", 0, int)
    bounds_sec.finish()
    if lo_factor > hi_factor:
        raise ConfigError("bounds", f"lo_factor {lo_factor} exceeds hi_factor {hi_factor}")
    if not (lo_factor <= 1.0 <= hi_factor):
        raise ConfigError("bounds", "bounds must bracket e_ref (lo_factor <= 1 <= hi_factor)")

    strain_floor = top.take("strain_floor", 1e-6, float, _positive)
    output_dir = top.take("output_dir", "out", str)
    top.finish()

    if dimension == 2 and n_sections > nx:
        raise ConfigError("patches.n_sections", f"must be <= nx ({nx}) so every section owns elements")

    return RunConfig(
        dimension=dimension,
        length_mm=length,
        width_mm=width,
        thickness_mm=thickness,
        nx=nx,
        ny=ny,
        nz=nz,
        n_sections=n_sections,
        defects=defects,
        e_ref_mpa=e_ref,
        poisson_ratio=nu,
        truth_moduli_mpa=truth,
        u_applied_mm=u_applied,
        fixed_face=fixed_face,
        loaded_face=loaded_face,
        clamp_fixed_face=clamp,
        grid_counts=grid_counts,
        grid_spacing_mm=grid_spacing,
        grid_margin_mm=grid_margin,
        noise_sigma=noise_sigma,
        measurement_seed=meas_seed,
        ga=ga,
        grad=grad,
        lo_factor=lo_factor,
        hi_factor=hi_factor,
        pin_reference_patch=pin,
        strain_floor=strain_floor,
        output_dir=output_dir,
    )
