"""Run configuration: JSON schema, validation and default resolution.

A run config is one JSON object. Each section is a dataclass below and
each of its fields is one JSON key; ``load_config`` loads every section
by the same rule, field by field:

- a missing key takes the field default; a field without one is required;
- the value is converted to the field type: a number field takes only a
  number, an ``int`` only an integral one, a ``bool`` only true/false, a
  ``str`` only a string, and no number may be inf or NaN; the elements
  of a pair, the defect-box corners and the moduli of the truth map
  follow the same rule;
- null is accepted only where the type is ``X | None``, and there it
  means "not set" (no pinned patch, a grid or margin derived from the
  geometry);
- the field's ``check`` (a predicate) or ``parse`` (a converter for a
  list or an object), kept in the field metadata, runs last;
- a key that is not a field is rejected (typo safety).

The rules that relate fields to each other run after loading. Every
error names the offending field path. ``RunConfig.to_dict`` gives back
the resolved config with all defaults filled in.
"""

import dataclasses
import json
import math
import typing
from dataclasses import MISSING, dataclass

import numpy as np

from .errors import ConfigError
from .geometry import DefectSpec, Mesh, PatchMap, build_coupon_mesh, partition_longitudinal, stamp_defect_patches
from .inversion import GAConfig, GradConfig
from .measurement import MeasurementGrid, grid_for_footprint
from .solver import BoundaryConditions

_FACES = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")


def _field(default=MISSING, *, factory=MISSING, check=None, parse=None):
    """A config field. ``check(value) -> (ok, message)`` validates a
    converted value; ``parse(value, path)`` converts a list or an object
    and raises ConfigError itself."""
    return dataclasses.field(
        default=default, default_factory=factory, metadata={"check": check, "parse": parse}
    )


def _positive(v):
    return v > 0, "must be positive"


def _non_negative(v):
    return v >= 0, "must be >= 0"


def _nonzero(v):
    return v != 0, "must be nonzero (a zero load gives an all-zero strain field)"


def _at_least_one(v):
    return v >= 1, "must be >= 1"


def _face(v):
    return v in _FACES, f"must be one of {_FACES}"


def _pair(kind):
    def parse(pair, path):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(path, "expected a pair [x, y]")
        pair = [_convert(path, kind, v) for v in pair]
        if not all(0 < v < math.inf for v in pair):
            raise ConfigError(path, "values must be positive and finite")
        return pair

    return parse


def _truth_map(raw, path):
    if not isinstance(raw, dict):
        raise ConfigError(path, "expected an object mapping patch index to MPa")
    truth = {}
    for k, v in raw.items():
        try:
            idx = int(k)
        except (TypeError, ValueError):
            idx = None
        # One spelling per patch: "01" or " 2" would silently merge with "1" or "2".
        if idx is None or k != str(idx):
            raise ConfigError(path, f"bad key {k!r} (want an integer patch index such as '3')")
        modulus = _convert(path, float, v)
        if not 0 < modulus < math.inf:
            raise ConfigError(path, f"modulus for patch {idx} must be positive and finite")
        truth[idx] = modulus
    return truth


def _coordinates(raw, path):
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list of coordinates")
    return [_convert(path, float, v) for v in raw]


def _defect_boxes(raw, path):
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list of boxes")
    return [_load(DefectBox, f"{path}[{i}]", d) for i, d in enumerate(raw)]


@dataclass(kw_only=True)
class GeometryConfig:
    dimension: int = _field(2, check=lambda v: (v in (2, 3), "must be 2 or 3"))
    length_mm: float = _field(check=_positive)
    width_mm: float = _field(check=_positive)
    thickness_mm: float = _field(check=_positive)
    nx: int = _field(40, check=_at_least_one)
    ny: int = _field(10, check=_at_least_one)
    nz: int = _field(4, check=_at_least_one)


@dataclass(kw_only=True)
class DefectBox:
    """Corners of one defect box; ``load_config`` checks them against the dimension."""

    box_min: list = _field(parse=_coordinates)
    box_max: list = _field(parse=_coordinates)


@dataclass(kw_only=True)
class PatchesConfig:
    n_sections: int = _field(9, check=_at_least_one)
    defects: list = _field(factory=list, parse=_defect_boxes)


@dataclass(kw_only=True)
class MaterialConfig:
    e_ref_mpa: float = _field(200000.0, check=_positive)
    poisson_ratio: float = _field(0.3, check=lambda v: (0 <= v < 0.5, "must satisfy 0 <= nu < 0.5"))
    truth_moduli_mpa: dict = _field(factory=dict, parse=_truth_map)


@dataclass(kw_only=True)
class BcsConfig:
    """``fixed_face`` is held and the face opposite it is displaced by
    ``u_applied_mm`` along their common axis; ``load_config`` rejects a z
    face on a 2D geometry."""

    u_applied_mm: float = _field(0.1, check=_nonzero)
    fixed_face: str = _field("xmin", check=_face)
    clamp_fixed_face: bool = False


@dataclass(kw_only=True)
class MeasurementConfig:
    grid_counts: list | None = _field(None, parse=_pair(int))
    grid_spacing_mm: list | None = _field(None, parse=_pair(float))
    grid_margin_mm: float | None = _field(None, check=_positive)
    noise_sigma: float = _field(0.0, check=_non_negative)
    rng_seed: int = _field(12345, check=_non_negative)


@dataclass(kw_only=True)
class BoundsConfig:
    lo_factor: float = _field(0.01, check=_positive)
    hi_factor: float = _field(3.0, check=_positive)
    pin_reference_patch: int | None = 0


@dataclass(kw_only=True)
class RunConfig:
    """Fully resolved run configuration (see ``load_config``)."""

    geometry: GeometryConfig
    patches: PatchesConfig
    material: MaterialConfig
    bcs: BcsConfig
    measurement: MeasurementConfig
    ga: GAConfig
    grad: GradConfig
    bounds: BoundsConfig
    strain_floor: float = _field(1e-6, check=_positive)
    output_dir: str = "out"

    # -- problem assembly -------------------------------------------------

    def build_mesh(self) -> Mesh:
        g = self.geometry
        nz = g.nz if g.dimension == 3 else None
        return build_coupon_mesh(g.length_mm, g.width_mm, g.thickness_mm, g.nx, g.ny, nz)

    def build_patch_map(self, mesh: Mesh) -> PatchMap:
        pmap = partition_longitudinal(mesh, self.patches.n_sections)
        specs = [DefectSpec(tuple(d.box_min), tuple(d.box_max)) for d in self.patches.defects]
        return stamp_defect_patches(pmap, mesh, specs)

    def build_bcs(self) -> BoundaryConditions:
        b = self.bcs
        return BoundaryConditions(b.fixed_face, b.u_applied_mm, clamp_fixed=b.clamp_fixed_face)

    def build_grid(self) -> MeasurementGrid:
        m = self.measurement
        return grid_for_footprint(
            (self.geometry.length_mm, self.geometry.width_mm),
            spacing=m.grid_spacing_mm,
            counts=m.grid_counts,
            margin=m.grid_margin_mm,
        )

    def truth_values(self, patch_count: int) -> np.ndarray:
        values = np.full(patch_count, self.material.e_ref_mpa)
        for idx, modulus in self.material.truth_moduli_mpa.items():
            if not (0 <= idx < patch_count):
                raise ConfigError(
                    "material.truth_moduli_mpa", f"patch index {idx} out of range [0, {patch_count})"
                )
            values[idx] = modulus
        return values

    def moduli_bounds(self, patch_count: int) -> tuple[np.ndarray, np.ndarray]:
        e_ref = self.material.e_ref_mpa
        lower = np.full(patch_count, self.bounds.lo_factor * e_ref)
        upper = np.full(patch_count, self.bounds.hi_factor * e_ref)
        p = self.bounds.pin_reference_patch
        if p is not None:
            if not (0 <= p < patch_count):
                raise ConfigError(
                    "bounds.pin_reference_patch", f"patch index {p} out of range [0, {patch_count})"
                )
            lower[p] = upper[p] = e_ref
        return lower, upper

    def initial_guess(self, patch_count: int) -> np.ndarray:
        """e_ref for every patch: ``load_config`` makes the bounds bracket
        e_ref, so the guess lies inside ``moduli_bounds``."""
        return np.full(patch_count, self.material.e_ref_mpa)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        # JSON object keys are strings. Converting here also fixes the order
        # of the written file: sort_keys puts ints 9, 10 but strings "10", "9".
        material = d["material"]
        material["truth_moduli_mpa"] = {str(k): v for k, v in material["truth_moduli_mpa"].items()}
        return d


def _all_finite(value) -> bool:
    """False if a float anywhere in ``value`` (lists and objects included) is inf or NaN."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    return True


def _convert(path: str, kind: type, value):
    """``kind(value)`` for a JSON scalar: a bool only from true/false, a str
    only from a string, a number only from a number (not a bool or a string
    that spells one) and an int only from an integral number."""
    if kind is bool or kind is str:
        ok = isinstance(value, kind)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and not (
            kind is int and isinstance(value, float) and not value.is_integer()
        )
    if ok:
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(path, f"expected {kind.__name__}, got {value!r}")


def _value(path: str, field: dataclasses.Field, value):
    kinds = typing.get_args(field.type) or (field.type,)
    if value is None:
        if type(None) in kinds:
            return None
        raise ConfigError(path, f"expected {kinds[0].__name__}, got None")
    # Non-finite values skip conversion (int(inf) would overflow) and are rejected below.
    if kinds[0] in (int, float, bool, str) and _all_finite(value):
        value = _convert(path, kinds[0], value)
    if not _all_finite(value):
        raise ConfigError(path, f"must be finite, got {value!r}")
    check, parse = field.metadata.get("check"), field.metadata.get("parse")
    if check is not None:
        ok, msg = check(value)
        if not ok:
            raise ConfigError(path, f"{msg}, got {value!r}")
    return parse(value, path) if parse is not None else value


def _load(cls, path: str, data):
    """Build the dataclass ``cls`` from the JSON object ``data`` found at
    ``path``, by the rule in the module docstring; a dataclass-typed field
    is loaded from its own section, which may be left out."""
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected an object, got {type(data).__name__}")
    data = dict(data)
    kwargs = {}
    for f in dataclasses.fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(f.type):
            kwargs[f.name] = _load(f.type, where, data.pop(f.name, {}))
        elif f.name in data:
            kwargs[f.name] = _value(where, f, data.pop(f.name))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(where, "required field is missing")
    if data:
        key = min(data)
        raise ConfigError(f"{path}.{key}" if path else key, "unknown key")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def load_config(source) -> RunConfig:
    """Parse and validate a config from the path of a JSON file, or from a
    dict of the same structure."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(str(source), f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(str(source), f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("", "top-level config must be a JSON object")
    config = _load(RunConfig, "", raw)

    geo, meas, bounds = config.geometry, config.measurement, config.bounds
    for i, box in enumerate(config.patches.defects):
        for name in ("box_min", "box_max"):
            if len(getattr(box, name)) != geo.dimension:
                raise ConfigError(f"patches.defects[{i}].{name}", f"expected {geo.dimension} coordinates")
        try:
            DefectSpec(tuple(box.box_min), tuple(box.box_max))
        except ValueError as exc:
            raise ConfigError(f"patches.defects[{i}]", str(exc)) from None
    if config.ga.rng_seed < 0:
        raise ConfigError("ga.rng_seed", f"must be >= 0, got {config.ga.rng_seed}")
    if meas.grid_counts is None and meas.grid_spacing_mm is None:
        meas.grid_spacing_mm = [geo.length_mm / geo.nx, geo.width_mm / geo.ny]  # one element per grid step
    if meas.grid_counts is not None and meas.grid_spacing_mm is not None:
        raise ConfigError("measurement", "give only one of grid_counts and grid_spacing_mm")
    if bounds.lo_factor > bounds.hi_factor:
        raise ConfigError("bounds", f"lo_factor {bounds.lo_factor} exceeds hi_factor {bounds.hi_factor}")
    if not (bounds.lo_factor <= 1.0 <= bounds.hi_factor):
        raise ConfigError("bounds", "bounds must bracket e_ref (lo_factor <= 1 <= hi_factor)")
    if geo.dimension == 2 and config.bcs.fixed_face[0] == "z":
        raise ConfigError("bcs.fixed_face", f"{config.bcs.fixed_face!r} does not exist on a 2D coupon")
    if config.patches.n_sections > geo.nx:
        raise ConfigError("patches.n_sections", f"must be <= nx ({geo.nx}) so every section owns elements")
    return config
