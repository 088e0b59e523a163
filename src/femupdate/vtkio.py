"""Legacy-ASCII VTK writers and atomic file output.

Meshes are written as unstructured grids (VTK_QUAD / VTK_HEXAHEDRON),
point clouds (measurement grids, Gauss samples) as VTK_VERTEX cells.
All writes go through a temp-file + rename so interrupted runs never
leave half-written artifacts.
"""

import os
import tempfile

import numpy as np

from .geometry import Mesh

_VTK_QUAD = 9
_VTK_HEX = 12
_VTK_VERTEX = 1


def atomic_write_text(path, text: str) -> None:
    """Write text to ``path`` atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _xyz_lines(values: np.ndarray) -> list:
    """Rows of an (n, 2 or 3) array as "x y z" lines, zero-padded to 3D."""
    xyz = np.zeros((values.shape[0], 3))
    xyz[:, : values.shape[1]] = values
    return [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in xyz.tolist()]


def _data_arrays(kind: str, n: int, arrays: dict) -> list:
    if not arrays:
        return []
    lines = [f"{kind} {n}"]
    for name, values in arrays.items():
        values = np.asarray(values)
        if values.ndim == 1:
            dtype = "int" if np.issubdtype(values.dtype, np.integer) else "double"
            lines.append(f"SCALARS {name} {dtype} 1")
            lines.append("LOOKUP_TABLE default")
            if dtype == "int":
                lines.extend(map(str, values.tolist()))
            else:
                lines.extend(f"{v:.17g}" for v in values.tolist())
        else:
            lines.append(f"VECTORS {name} double")
            lines.extend(_xyz_lines(values))
    return lines


def _write_unstructured_grid(path, title, points, cells, cell_type, cell_data, point_data) -> None:
    """One unstructured grid: ``cells`` (n_cells, nodes per cell) of one VTK cell type."""
    n_cells, per = cells.shape
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.append(f"POINTS {points.shape[0]} double")
    lines.extend(_xyz_lines(points))
    lines.append(f"CELLS {n_cells} {n_cells * (per + 1)}")
    lines.extend(f"{per} " + " ".join(map(str, conn)) for conn in cells.tolist())
    lines.append(f"CELL_TYPES {n_cells}")
    lines.extend([str(cell_type)] * n_cells)
    lines.extend(_data_arrays("CELL_DATA", n_cells, cell_data or {}))
    lines.extend(_data_arrays("POINT_DATA", points.shape[0], point_data or {}))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_mesh_vtk(path, mesh: Mesh, cell_data: dict | None = None, point_data: dict | None = None, title="femupdate mesh"):
    """Write the mesh with optional per-element and per-node data arrays."""
    cell_type = _VTK_QUAD if mesh.elements.shape[1] == 4 else _VTK_HEX
    _write_unstructured_grid(path, title, mesh.nodes, mesh.elements, cell_type, cell_data, point_data)


def write_points_vtk(path, points: np.ndarray, point_data: dict, title="femupdate point field"):
    """Write scattered points as VTK_VERTEX cells with point data."""
    cells = np.arange(points.shape[0])[:, None]
    _write_unstructured_grid(path, title, points, cells, _VTK_VERTEX, None, point_data)


def write_table_csv(path, header: list, rows) -> None:
    """Write a flat CSV with 17-significant-digit floats.

    Rows of Python ints and floats (``ndarray.tolist()``) format fastest;
    numpy scalars give the same text.
    """
    lines = [",".join(header)]
    for row in rows:
        cells = (str(v) if isinstance(v, (int, str, np.integer)) else f"{float(v):.17g}" for v in row)
        lines.append(",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")
