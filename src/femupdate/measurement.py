"""Synthetic and file-based strain measurements on a regular surface grid.

The measurement grid mimics a DIC export: a regular (x, y) lattice inset
from the specimen edge by a margin, with the three in-plane strain
components at every point. Numerical fields are brought onto the grid by
inverse-distance interpolation over the nearest strain sample points. The
nearest samples are found exactly by a ring search over a padded table of
the samples in each cell of a uniform grid (``nearest_samples``); of
equidistant samples the lower index wins. ``grid_strain_operator``
composes that interpolation W with the model's surface strain sampling S
into one sparse matrix M from displacements to grid strains; synthesis,
the misfit and its Jacobian all apply M.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, OutOfDomainError, ParseError
from .solver import ForwardModel
from .vtkio import atomic_write_text

IDW_NEIGHBORS = 4
IDW_POWER = 2
_COINCIDENT = 1e-12
# Cell size and memory bound of the neighbour search (``nearest_samples``).
_SAMPLES_PER_CELL = 2
_PAIR_BUDGET = 1 << 13
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
        if not all(float(n).is_integer() for n in self.counts):
            raise ValueError(f"grid counts must be integers, got {self.counts}")
        object.__setattr__(self, "counts", (int(self.counts[0]), int(self.counts[1])))
        if not all(math.isfinite(v) for v in self.origin):
            raise ValueError(f"grid origin must be finite, got {self.origin}")
        if not all(0 < h < math.inf for h in self.spacing):
            raise ValueError(f"grid spacing must be positive and finite, got {self.spacing}")
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
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


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
        if not all(float(n).is_integer() and n >= 2 for n in counts):
            raise ValueError(f"grid counts must be integers >= 2 to define a spacing, got {counts}")
        gx, gy = int(counts[0]), int(counts[1])
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

    Weights are 1/d^2 over the 4 nearest samples (all of them when there
    are fewer); a target landing on a sample point takes that sample's
    value exactly. Every interpolated value is a convex combination of its
    source values. The weights are kept as ``matrix``, a CSR matrix of
    shape (n_targets, n_samples); interpolating is ``matrix @ values`` and
    its adjoint is ``matrix.T``.

    The neighbours are found by ``nearest_samples``, an exact search over a
    uniform cell grid that raises OutOfDomainError for a target outside the
    samples' bounding box. Ties are broken by (distance, sample index): of
    samples at the same distance the lower index is nearer, so a target on
    coincident samples takes the one with the lowest index.
    """

    def __init__(self, sample_points: np.ndarray, target_points: np.ndarray):
        sample_points = np.asarray(sample_points, dtype=float)
        target_points = np.asarray(target_points, dtype=float)
        n_targets, n_samples = target_points.shape[0], sample_points.shape[0]
        k = min(IDW_NEIGHBORS, n_samples)
        dist, idx = nearest_samples(sample_points, target_points, k)
        coincident = dist[:, 0] < _COINCIDENT
        with np.errstate(divide="ignore"):
            weights = 1.0 / dist**IDW_POWER
        weights[coincident] = 0.0
        weights[coincident, 0] = 1.0
        weights /= weights.sum(axis=1, keepdims=True)
        indptr = np.arange(0, n_targets * k + 1, k)
        self.matrix = sp.csr_matrix((weights.ravel(), idx.ravel(), indptr), shape=(n_targets, n_samples))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(values, dtype=float)


def nearest_samples(samples: np.ndarray, targets: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest samples of every target, exactly: (dist, idx), each
    of shape (n_targets, k), ordered by (distance, sample index).

    Points are (x, y) rows. Raises ValueError unless 1 <= k <= n_samples,
    and OutOfDomainError, listing the first few, when a target lies outside
    the bounding box of the samples (a NaN coordinate counts as outside).
    Distances are sqrt(dx^2 + dy^2). The samples are bucketed into square
    cells of side h, about ``_SAMPLES_PER_CELL`` samples per cell, and each
    target searches the rings of cells around its own, ring r being the
    cells r cells away. A sample outside rings 0..r lies more than r h from
    the target, so the search of a target is complete once its k-th
    distance is at most r h (less a relative margin for rounding in the
    cell index), or once its rings cover the grid. One padded table, as
    wide as the fullest cell, lists the samples of cell c in index order in
    row c; the padding is a sentinel sample at +inf, and an all-padding
    last row stands for cells off the grid. All targets still searching
    take ring r together, in groups of at most about ``_PAIR_BUDGET``
    (target, candidate) pairs, so a group's transient memory stays under
    about 1 MB.

    The table is cells x fullest cell, so a clustered or coincident cloud
    costs memory and time quadratic in its samples: 4,000 samples on 3
    distinct points allocate up to 55 MB at once and take 4 s (2-core x86),
    and 40,000 had reached 2.7 GB resident after 11 CPU minutes.
    """
    n_samples, n_targets = samples.shape[0], targets.shape[0]
    if not 1 <= k <= n_samples:
        raise ValueError(f"k must be in [1, n_samples = {n_samples}], got {k}")
    # Per-column reductions: a reduction along axis 0 of an (n, 2) array is slower.
    lo = np.array([samples[:, 0].min(), samples[:, 1].min()])
    hi = np.array([samples[:, 0].max(), samples[:, 1].max()])
    outside = ~np.all((targets >= lo) & (targets <= hi), axis=1)  # NaN counts as outside
    if outside.any():
        bad = targets[outside]
        shown = ", ".join(f"({p[0]:.4g}, {p[1]:.4g})" for p in bad[:5])
        more = "" if bad.shape[0] <= 5 else f" and {bad.shape[0] - 5} more"
        raise OutOfDomainError(
            f"{bad.shape[0]} target points outside the bounding box of the samples "
            f"[{lo[0]:.4g}, {hi[0]:.4g}] x [{lo[1]:.4g}, {hi[1]:.4g}]: {shown}{more}"
        )
    extent = hi - lo
    # About n_samples / _SAMPLES_PER_CELL cells, and never more than about
    # 1.5 n_samples even for a cloud (nearly) flat along one axis.
    area_h = math.sqrt(_SAMPLES_PER_CELL * extent[0] * extent[1] / n_samples)
    h = max(area_h, _SAMPLES_PER_CELL * extent.max() / n_samples)
    h = h if h > 0 else 1.0  # coincident samples: one cell
    shape = (extent / h).astype(np.int64) + 1
    # The cell index of a point may be off by a few ulps of the grid size;
    # stopping a little inside r h keeps the search exact.
    margin = 1.0 - 8.0 * np.finfo(float).eps * shape.max()

    def cell_of(points):
        return np.minimum(((points - lo) / h).astype(np.int64), shape - 1)

    sample_cell = cell_of(samples) @ np.array([shape[1], 1])
    by_cell = np.argsort(sample_cell, kind="stable")  # index order within a cell
    in_order = sample_cell[by_cell]
    count = np.bincount(in_order, minlength=shape[0] * shape[1])
    rank = np.arange(n_samples) - (np.cumsum(count) - count)[in_order]  # place within its cell
    table = np.full((count.size + 1, count.max()), n_samples)
    table[in_order, rank] = by_cell
    padded = np.vstack([samples, np.full((1, 2), np.inf)])
    target_cell = cell_of(targets)

    dist, idx = np.full((n_targets, k), np.inf), np.full((n_targets, k), n_samples)  # all padding
    searching = np.arange(n_targets)
    ring = 0
    while searching.size:
        side = np.arange(-ring, ring + 1)
        dx, dy = np.meshgrid(side, side, indexing="ij")
        on_ring = np.maximum(np.abs(dx), np.abs(dy)) == ring
        offsets = np.column_stack([dx[on_ring], dy[on_ring]])  # (8 ring or 1, 2)
        step = max(1, _PAIR_BUDGET // (offsets.shape[0] * table.shape[1]))
        for group in np.array_split(searching, -(-searching.size // step)):
            cells = target_cell[group, None, :] + offsets  # (targets, ring cells, 2)
            inside = np.all((cells >= 0) & (cells < shape), axis=2)
            flat = np.where(inside, cells[:, :, 0] * shape[1] + cells[:, :, 1], -1)
            found = table[flat].reshape(group.size, -1)
            delta = padded[found] - targets[group, None, :]
            found_dist = np.sqrt(delta[:, :, 0] * delta[:, :, 0] + delta[:, :, 1] * delta[:, :, 1])
            # Merge with the k best so far, per target by (distance, index).
            all_dist = np.hstack([dist[group], found_dist])
            all_idx = np.hstack([idx[group], found])
            keep = np.lexsort((all_idx, all_dist), axis=1)[:, :k]
            dist[group] = np.take_along_axis(all_dist, keep, axis=1)
            idx[group] = np.take_along_axis(all_idx, keep, axis=1)
        done = dist[searching, k - 1] <= ring * h * margin
        if ring >= shape.max() - 1:
            break  # every ring searched: every sample seen
        searching = searching[~done]
        ring += 1
    return dist, idx


def grid_strain_operator(model: ForwardModel, grid: MeasurementGrid) -> sp.csr_matrix:
    """The sparse map M = blockdiag(W, W, W) @ S from a flat displacement
    vector to grid strains, stacked exx | eyy | exy (CSR).

    S is ``model.strain_sampling`` and W the inverse-distance interpolation
    from ``model.surface_points`` to ``grid.points()``. Raises
    OutOfDomainError when the grid leaves the sample bounding box.
    """
    w = Interpolator(model.surface_points, grid.points()).matrix
    return sp.block_diag((w, w, w), format="csr") @ model.strain_sampling


def generate_synthetic(
    model: ForwardModel,
    truth: np.ndarray,
    grid: MeasurementGrid,
    noise_sigma: float = 0.0,
    rng_seed: int | None = None,
) -> ExperimentalField:
    """Forward-solve the ground-truth moduli and sample them like a DIC system.

    The clean field is ``grid_strain_operator(model, grid)`` applied to the
    displacements, the operator the misfit applies, so a noiseless field
    gives a misfit of exactly zero at ``truth``. Gaussian noise of standard
    deviation ``noise_sigma`` times the RMS of each clean component is added
    independently per component (exx, eyy, exy draw order), so the level is
    relative to the signal. With ``noise_sigma`` 0 the clean field is
    returned exactly.
    """
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    exx, eyy, exy = np.split(grid_strain_operator(model, grid) @ model.solve_displacement(truth), 3)
    if noise_sigma > 0:
        rng = np.random.default_rng(rng_seed)
        noisy = []
        for clean in (exx, eyy, exy):
            scale = noise_sigma * float(np.sqrt(np.mean(clean**2)))
            noisy.append(clean + rng.normal(0.0, 1.0, clean.size) * scale)
        exx, eyy, exy = noisy
    return ExperimentalField(0, grid, exx, eyy, exy, noise_sigma=noise_sigma, rng_seed=rng_seed)


def write_measurement_csv(field: ExperimentalField, path) -> None:
    """Write the measurement CSV schema atomically: metadata comments, header, rows."""
    pts = field.grid.points()
    lines = [
        f"# load_step={field.load_step}",
        f"# noise_sigma={field.noise_sigma:.17g}",
        f"# rng_seed={'none' if field.rng_seed is None else field.rng_seed}",
        _CSV_HEADER,
    ]
    for p, a, b, c in zip(pts, field.exx, field.eyy, field.exy):
        lines.append(f"{p[0]:.17g},{p[1]:.17g},{a:.17g},{b:.17g},{c:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_measurement_csv(path) -> ExperimentalField:
    """Parse a measurement CSV, validating the regular-grid structure.

    Points must form the declared row-major regular grid to 1e-9 mm;
    malformed rows (including bytes that are not UTF-8; a UTF-8 byte-order
    mark at the start is accepted), non-finite strains, invalid metadata and
    grid irregularities raise ParseError with the offending line number, and
    an unreadable file raises DataError naming its path.
    """
    meta = {"load_step": 0, "noise_sigma": 0.0, "rng_seed": None}
    rows = []
    header_seen = False
    # Undecodable bytes become lone surrogates, so the line that holds them is
    # known; a leading byte-order mark, as spreadsheet exports write, is dropped.
    try:
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(lineno, "line is not UTF-8 text") from None
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
                if not all(map(math.isfinite, vals)):
                    raise ParseError(lineno, "non-finite strain or coordinate value")
                rows.append((lineno, vals))
    except OSError as exc:
        raise DataError(f"{path}: cannot read measurement file: {exc}") from exc
    if not header_seen:
        raise ParseError(0, f"missing header line {_CSV_HEADER!r}")
    if not rows:
        raise ParseError(0, "file contains no data rows")
    data = np.array([v for _, v in rows])
    grid = _infer_grid(data[:, :2], [lineno for lineno, _ in rows])
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
    if key == "noise_sigma" and not 0 <= meta["noise_sigma"] < math.inf:
        raise ParseError(lineno, f"noise_sigma must be finite and >= 0, got {value!r}")


def _check_header(line: str, lineno: int) -> None:
    got = [c.strip() for c in line.split(",")]
    want = _CSV_HEADER.split(",")
    missing = [c for c in want if c not in got]
    if missing:
        raise ParseError(lineno, f"missing column {missing[0]!r} in header {line!r}")
    if got != want:
        raise ParseError(lineno, f"header must be {_CSV_HEADER!r}, got {line!r}")


def _infer_grid(pts: np.ndarray, linenos: list) -> MeasurementGrid:
    tol = 1e-9
    in_first_row = np.abs(pts[:, 1] - pts[0, 1]) < tol
    gx = len(pts) if in_first_row.all() else int(np.argmin(in_first_row))
    if len(pts) % gx != 0:
        raise ParseError(linenos[-1], f"{len(pts)} rows do not form a grid with row length {gx}")
    gy = len(pts) // gx
    (x0, y0), (x1, _), (_, y1) = pts[[0, gx - 1, -1]].tolist()  # Python floats: an overflow gives inf
    dx = (x1 - x0) / (gx - 1) if gx > 1 else 1.0
    dy = (y1 - y0) / (gy - 1) if gy > 1 else 1.0
    if not (0 < dx < math.inf and 0 < dy < math.inf):
        raise ParseError(linenos[0], "grid points are not ordered with increasing x and y at a finite spacing")
    grid = MeasurementGrid((x0, y0), (dx, dy), (gx, gy))
    want = grid.points()
    off = np.any(np.abs(pts - want) > tol, axis=1)
    if off.any():
        n = int(np.argmax(off))
        raise ParseError(
            linenos[n],
            f"point ({pts[n, 0]:.12g}, {pts[n, 1]:.12g}) deviates from the regular grid "
            f"position ({want[n, 0]:.12g}, {want[n, 1]:.12g})",
        )
    return grid
