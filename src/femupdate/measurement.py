"""Synthetic and file-based strain measurements on a regular surface grid.

The measurement grid mimics a DIC export: a regular (x, y) lattice inset
from the specimen edge by a margin, with the three in-plane strain
components at every point. Numerical fields are brought onto the grid by
inverse-distance interpolation over the nearest strain sample points.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import OutOfDomainError, ParseError
from .solver import ForwardModel, StrainField

IDW_NEIGHBORS = 4
IDW_POWER = 2
_COINCIDENT = 1e-12
_CSV_HEADER = "x_mm,y_mm,exx,eyy,exy"


@dataclass(frozen=True)
class MeasurementGrid:
    """Regular surface grid: origin, spacing and point counts per axis."""

    origin: tuple
    spacing: tuple
    counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(self, "spacing", (float(self.spacing[0]), float(self.spacing[1])))
        object.__setattr__(self, "counts", (int(self.counts[0]), int(self.counts[1])))
        if self.spacing[0] <= 0 or self.spacing[1] <= 0:
            raise ValueError(f"grid spacing must be positive, got {self.spacing}")
        if self.counts[0] < 1 or self.counts[1] < 1:
            raise ValueError(f"grid counts must be >= 1, got {self.counts}")

    @property
    def n_points(self) -> int:
        return self.counts[0] * self.counts[1]

    def points(self) -> np.ndarray:
        """All grid points in row-major order (y outer, x inner), shape (n, 2)."""
        gx, gy = self.counts
        xs = self.origin[0] + self.spacing[0] * np.arange(gx)
        ys = self.origin[1] + self.spacing[1] * np.arange(gy)
        xg, yg = np.meshgrid(xs, ys, indexing="xy")
        return np.column_stack([xg.ravel(), yg.ravel()])

    def describe(self) -> str:
        return (
            f"{self.counts[0]}x{self.counts[1]} grid, origin ({self.origin[0]:g}, "
            f"{self.origin[1]:g}) mm, spacing ({self.spacing[0]:g}, {self.spacing[1]:g}) mm"
        )


@dataclass(frozen=True)
class ExperimentalField:
    """Measured (or synthetic) strain components on a MeasurementGrid."""

    load_step: int
    grid: MeasurementGrid
    exx: np.ndarray
    eyy: np.ndarray
    exy: np.ndarray
    noise_sigma: float = 0.0
    rng_seed: int | None = None

    def __post_init__(self):
        for name in ("exx", "eyy", "exy"):
            a = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, a)
            if a.shape != (self.grid.n_points,):
                raise ValueError(f"{name} must have {self.grid.n_points} entries, got {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite values")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def grid_for_footprint(
    footprint: tuple,
    spacing: tuple | None = None,
    counts: tuple | None = None,
    margin: float | None = None,
) -> MeasurementGrid:
    """Build a grid inset by ``margin`` into a (length, width) footprint.

    Exactly one of ``spacing`` or ``counts`` must be given. The default
    margin is one grid spacing, which keeps the unreliable edge band of
    real DIC data out of the field.
    """
    length, width = float(footprint[0]), float(footprint[1])
    if (spacing is None) == (counts is None):
        raise ValueError("give exactly one of spacing or counts")
    if counts is not None:
        gx, gy = int(counts[0]), int(counts[1])
        if gx < 2 or gy < 2:
            raise ValueError("grid counts must be >= 2 to define a spacing")
        # margin defaults to one grid spacing (the finer of the two axes)
        if margin is None:
            margin = min(length / (gx + 1), width / (gy + 1))
        dx = (length - 2 * margin) / (gx - 1)
        dy = (width - 2 * margin) / (gy - 1)
        if dx <= 0 or dy <= 0:
            raise ValueError(f"margin {margin} leaves no room for the grid")
        return MeasurementGrid((margin, margin), (dx, dy), (gx, gy))
    dx, dy = float(spacing[0]), float(spacing[1])
    if margin is None:
        margin = min(dx, dy)
    gx = int(math.floor((length - 2 * margin) / dx)) + 1
    gy = int(math.floor((width - 2 * margin) / dy)) + 1
    if gx < 1 or gy < 1:
        raise ValueError(f"margin {margin} and spacing ({dx}, {dy}) leave no grid points")
    return MeasurementGrid((margin, margin), (dx, dy), (gx, gy))


class Interpolator:
    """Inverse-distance interpolation from scattered samples to fixed targets.

    Weights are 1/d^2 over the 4 nearest samples; a target landing on a
    sample point takes that sample's value exactly. Every interpolated
    value is a convex combination of its source values.
    """

    def __init__(self, sample_points: np.ndarray, target_points: np.ndarray):
        sample_points = np.asarray(sample_points, dtype=float)
        target_points = np.asarray(target_points, dtype=float)
        self._check_domain(sample_points, target_points)
        k = min(IDW_NEIGHBORS, sample_points.shape[0])
        dist, idx = cKDTree(sample_points).query(target_points, k=k)
        dist = np.atleast_2d(dist.reshape(target_points.shape[0], k))
        idx = np.atleast_2d(idx.reshape(target_points.shape[0], k))
        weights = np.empty_like(dist)
        coincident = dist[:, 0] < _COINCIDENT
        with np.errstate(divide="ignore"):
            weights = 1.0 / dist**IDW_POWER
        weights[coincident] = 0.0
        weights[coincident, 0] = 1.0
        weights /= weights.sum(axis=1, keepdims=True)
        self._idx = idx
        self._weights = weights
        self._n_samples = sample_points.shape[0]

    @staticmethod
    def _check_domain(samples: np.ndarray, targets: np.ndarray) -> None:
        lo = samples.min(axis=0)
        hi = samples.max(axis=0)
        outside = np.any((targets < lo) | (targets > hi), axis=1)
        if outside.any():
            bad = targets[outside]
            shown = ", ".join(f"({p[0]:.4g}, {p[1]:.4g})" for p in bad[:5])
            more = "" if bad.shape[0] <= 5 else f" and {bad.shape[0] - 5} more"
            raise OutOfDomainError(
                f"{bad.shape[0]} target points outside the sample hull "
                f"[{lo[0]:.4g}, {hi[0]:.4g}] x [{lo[1]:.4g}, {hi[1]:.4g}]: {shown}{more}"
            )

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return np.sum(self._weights * np.asarray(values, dtype=float)[self._idx], axis=1)

    def transpose(self, target_values: np.ndarray) -> np.ndarray:
        """Adjoint of the interpolation: spreads target values back onto the samples."""
        spread = self._weights * np.asarray(target_values, dtype=float)[:, None]
        return np.bincount(self._idx.ravel(), weights=spread.ravel(), minlength=self._n_samples)


def interpolate_fe_to_grid(
    strain_field: StrainField, grid: MeasurementGrid
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bring FE strain samples onto the measurement grid (exx, eyy, exy)."""
    interp = Interpolator(strain_field.points, grid.points())
    return interp(strain_field.exx), interp(strain_field.eyy), interp(strain_field.exy)


def generate_synthetic(
    model: ForwardModel,
    truth: np.ndarray,
    grid: MeasurementGrid,
    noise_sigma: float = 0.0,
    rng_seed: int | None = None,
) -> ExperimentalField:
    """Forward-solve the ground-truth moduli and sample them like a DIC system.

    Gaussian noise of standard deviation ``noise_sigma`` times the RMS of
    each clean component is added independently per component (exx, eyy,
    exy draw order), so the level is relative to the signal. With
    ``noise_sigma`` 0 the clean interpolated field is returned exactly.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    exx, eyy, exy = interpolate_fe_to_grid(model.strain_field(truth), grid)
    if noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        noisy = []
        for clean in (exx, eyy, exy):
            scale = noise_sigma * float(np.sqrt(np.mean(clean**2)))
            noisy.append(clean + rng.normal(0.0, 1.0, clean.size) * scale)
        exx, eyy, exy = noisy
    return ExperimentalField(0, grid, exx, eyy, exy, noise_sigma=noise_sigma, rng_seed=rng_seed)


def measurement_csv_text(field: ExperimentalField) -> str:
    """Render the measurement CSV schema: metadata comments, header, rows."""
    pts = field.grid.points()
    lines = [
        f"# load_step={field.load_step}",
        f"# noise_sigma={field.noise_sigma:.17g}",
        f"# rng_seed={'none' if field.rng_seed is None else field.rng_seed}",
        _CSV_HEADER,
    ]
    for p, a, b, c in zip(pts, field.exx, field.eyy, field.exy):
        lines.append(f"{p[0]:.17g},{p[1]:.17g},{a:.17g},{b:.17g},{c:.17g}")
    return "\n".join(lines) + "\n"


def write_measurement_csv(field: ExperimentalField, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(measurement_csv_text(field))


def load_measurement_csv(path) -> ExperimentalField:
    """Parse a measurement CSV, validating the regular-grid structure.

    Points must form the declared row-major regular grid to 1e-9 mm;
    malformed rows, non-finite strains and grid irregularities raise
    ParseError with the offending line number.
    """
    meta = {"load_step": 0, "noise_sigma": 0.0, "rng_seed": None}
    rows = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header_seen:
                    raise ParseError(lineno, "comment after header is not allowed")
                _parse_meta(line, lineno, meta)
                continue
            if not header_seen:
                _check_header(line, lineno)
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ParseError(lineno, f"expected 5 comma-separated values, got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                raise ParseError(lineno, f"non-numeric value in row: {line!r}") from None
            if not all(np.isfinite(v) for v in vals):
                raise ParseError(lineno, "non-finite strain or coordinate value")
            rows.append((lineno, vals))
    if not header_seen:
        raise ParseError(0, f"missing header line {_CSV_HEADER!r}")
    if not rows:
        raise ParseError(0, "file contains no data rows")
    grid = _infer_grid(rows)
    data = np.array([v for _, v in rows])
    return ExperimentalField(
        int(meta["load_step"]),
        grid,
        data[:, 2],
        data[:, 3],
        data[:, 4],
        noise_sigma=float(meta["noise_sigma"]),
        rng_seed=meta["rng_seed"],
    )


def _parse_meta(line: str, lineno: int, meta: dict) -> None:
    body = line.lstrip("#").strip()
    if "=" not in body:
        return  # free-form comment
    key, _, value = body.partition("=")
    key = key.strip()
    value = value.strip()
    try:
        if key == "load_step":
            meta["load_step"] = int(value)
        elif key == "noise_sigma":
            meta["noise_sigma"] = float(value)
        elif key == "rng_seed":
            meta["rng_seed"] = None if value.lower() == "none" else int(value)
    except ValueError:
        raise ParseError(lineno, f"bad metadata value for {key}: {value!r}") from None


def _check_header(line: str, lineno: int) -> None:
    got = [c.strip() for c in line.split(",")]
    want = _CSV_HEADER.split(",")
    missing = [c for c in want if c not in got]
    if missing:
        raise ParseError(lineno, f"missing column {missing[0]!r} in header {line!r}")
    if got != want:
        raise ParseError(lineno, f"header must be {_CSV_HEADER!r}, got {line!r}")


def _infer_grid(rows: list) -> MeasurementGrid:
    tol = 1e-9
    pts = np.array([(v[0], v[1]) for _, v in rows])
    y0 = pts[0, 1]
    gx = 1
    while gx < len(rows) and abs(pts[gx, 1] - y0) < tol:
        gx += 1
    if len(rows) % gx != 0:
        raise ParseError(rows[-1][0], f"{len(rows)} rows do not form a grid with row length {gx}")
    gy = len(rows) // gx
    origin = (pts[0, 0], pts[0, 1])
    dx = (pts[gx - 1, 0] - origin[0]) / (gx - 1) if gx > 1 else 1.0
    dy = (pts[-1, 1] - origin[1]) / (gy - 1) if gy > 1 else 1.0
    if dx <= 0 or dy <= 0:
        raise ParseError(rows[0][0], "grid points are not ordered with increasing x and y")
    for n, (lineno, v) in enumerate(rows):
        want_x = origin[0] + (n % gx) * dx
        want_y = origin[1] + (n // gx) * dy
        if abs(v[0] - want_x) > tol or abs(v[1] - want_y) > tol:
            raise ParseError(
                lineno,
                f"point ({v[0]:.12g}, {v[1]:.12g}) deviates from the regular grid "
                f"position ({want_x:.12g}, {want_y:.12g})",
            )
    return MeasurementGrid(origin, (dx, dy), (gx, gy))
