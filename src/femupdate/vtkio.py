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


def _points_block(points: np.ndarray) -> list:
    pts3 = np.zeros((points.shape[0], 3))
    pts3[:, : points.shape[1]] = points
    lines = [f"POINTS {points.shape[0]} double"]
    lines.extend(f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in pts3.tolist())
    return lines


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
            vec3 = np.zeros((values.shape[0], 3))
            vec3[:, : values.shape[1]] = values
            lines.append(f"VECTORS {name} double")
            lines.extend(f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in vec3.tolist())
    return lines


def write_mesh_vtk(path, mesh: Mesh, cell_data: dict | None = None, point_data: dict | None = None, title="femupdate mesh"):
    """Write the mesh with optional per-element and per-node data arrays."""
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.extend(_points_block(mesh.nodes))
    n_el = mesh.n_elements
    per = mesh.elements.shape[1]
    lines.append(f"CELLS {n_el} {n_el * (per + 1)}")
    lines.extend(f"{per} " + " ".join(map(str, conn)) for conn in mesh.elements.tolist())
    lines.append(f"CELL_TYPES {n_el}")
    cell_type = _VTK_QUAD if per == 4 else _VTK_HEX
    lines.extend([str(cell_type)] * n_el)
    lines.extend(_data_arrays("CELL_DATA", n_el, cell_data or {}))
    lines.extend(_data_arrays("POINT_DATA", mesh.n_nodes, point_data or {}))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_points_vtk(path, points: np.ndarray, point_data: dict, title="femupdate point field"):
    """Write scattered points as VTK_VERTEX cells with point data."""
    n = points.shape[0]
    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    lines.extend(_points_block(points))
    lines.append(f"CELLS {n} {2 * n}")
    lines.extend(f"1 {i}" for i in range(n))
    lines.append(f"CELL_TYPES {n}")
    lines.extend([str(_VTK_VERTEX)] * n)
    lines.extend(_data_arrays("POINT_DATA", n, point_data))
    atomic_write_text(path, "\n".join(lines) + "\n")


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
