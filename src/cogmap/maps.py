"""Cognitive maps: domain types, validation, file I/O, reachability and scaling.

A cognitive map is a directed graph whose edges carry signed real weights,
stored as a square adjacency matrix ``weights`` with ``weights[i, j]`` the
weight of the edge i -> j and 0 meaning "no edge".  Maps are immutable after
construction and safe to share across threads.

Two on-disk formats are supported:

* JSON: an object ``{"labels": [...], "weights": [[...], ...]}`` where
  ``labels`` is optional.
* CSV: n rows of n comma-separated numbers, optionally preceded by a header
  row of vertex labels.  With ``decimal_comma=True`` the European convention
  is used instead: cells separated by semicolons, decimal commas ("0,391").

Writers emit the shortest decimal representation that round-trips, so
``load_map(save_map(m)) == m`` exactly.  The CSV writer refuses labels that
the reader would not give back (a comma, a line break, surrounding
whitespace, a header of numbers); JSON takes any label.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np

from .errors import CogmapError, ValidationError

__all__ = [
    "CognitiveMap",
    "complete_map",
    "load_map",
    "save_map",
    "dumps_map",
    "max_abs_weight",
    "reachability_closure",
    "scale_map",
]


@dataclass(frozen=True, eq=False)
class CognitiveMap:
    """A validated weighted signed digraph.

    ``weights`` is an n x n float64 array, frozen read-only.  Vertex i is
    row/column i (0-based in the API; printed output uses 1-based numbers).
    Invariants enforced here: the matrix is square with n >= 1, every entry
    is finite, and the diagonal is zero (self-loops are rejected rather than
    silently ignored, since the path algorithms never visit them).
    """

    weights: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValidationError(f"weight matrix must be square, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValidationError("a cognitive map needs at least one vertex")
        bad = np.argwhere(~np.isfinite(w))
        if bad.size:
            i, j = bad[0]
            raise ValidationError(
                f"non-finite weight at row {i + 1}, column {j + 1}: {float(w[i, j])!r}"
            )
        nz = np.argwhere(np.diagonal(w) != 0.0)
        if nz.size:
            i = int(nz[0][0])
            raise ValidationError(
                f"self-loop at vertex {i + 1} (diagonal entries must be 0)"
            )
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != w.shape[0]:
                raise ValidationError(
                    f"{len(labels)} labels for {w.shape[0]} vertices"
                )
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CognitiveMap):
            return NotImplemented
        return bool(np.array_equal(self.weights, other.weights)) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"CognitiveMap(n={self.n}, edges={int(np.count_nonzero(self.weights))})"


def complete_map(n: int, weight: float = 1.0) -> CognitiveMap:
    """The complete digraph on ``n`` vertices with a uniform edge weight."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    w = np.full((n, n), float(weight))
    np.fill_diagonal(w, 0.0)
    return CognitiveMap(w)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

Source = Union[str, bytes, Path, IO]


def _read_text(source: Source) -> str:
    """The source's text, without the UTF-8 BOM that Excel writes."""
    if isinstance(source, Path):
        data = source.read_bytes()
    elif isinstance(source, (str, bytes)):
        data = source
    else:
        data = source.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(
                f"not UTF-8 text: byte {data[exc.start]:#04x} at offset {exc.start}"
            ) from None
    return data.removeprefix("\ufeff")


def _number(cell: str, decimal_comma: bool) -> float | None:
    """The cell's value (which may be inf or nan), or None if it is not a number."""
    text = cell.strip()
    if decimal_comma:
        text = text.replace(",", ".")
    try:
        return float(text)
    except ValueError:
        return None


def _parse_cell(cell: str, row: int, col: int, decimal_comma: bool) -> float:
    value = _number(cell, decimal_comma)
    if value is None:
        raise ValidationError(f"non-numeric cell at row {row}, column {col}: {cell.strip()!r}")
    if not math.isfinite(value):
        raise ValidationError(f"non-finite cell at row {row}, column {col}: {cell.strip()!r}")
    return value


def _csv_rows(text: str, decimal_comma: bool) -> tuple[tuple[str, ...] | None, list[list[str]]]:
    """The header's labels, or None if the first row is numbers, and the matrix rows' cells.

    Blank lines are skipped; a first row with any non-numeric cell is the header.
    """
    delim = ";" if decimal_comma else ","
    rows = [line.split(delim) for line in text.splitlines() if line.strip()]
    if rows and any(_number(c, decimal_comma) is None for c in rows[0]):
        return tuple(c.strip() for c in rows[0]), rows[1:]
    return None, rows


def _load_csv(text: str, decimal_comma: bool) -> CognitiveMap:
    labels, rows = _csv_rows(text, decimal_comma)
    if not rows:
        raise ValidationError(
            "empty CSV: no rows" if labels is None else "CSV has a header row but no matrix rows"
        )
    n = len(rows)
    matrix = []  # an n x n array is built only once every row has n cells
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(
                f"matrix must be square: row {i + 1} has {len(row)} values, "
                f"expected {n} (the number of rows)"
            )
        matrix.append([_parse_cell(c, i + 1, j + 1, decimal_comma) for j, c in enumerate(row)])
    return CognitiveMap(matrix, labels)


def _load_json(text: str) -> CognitiveMap:
    try:
        # float(s) + 0.0 is float(int(s)) for every integer literal (-0 too),
        # with no digit limit and inf past the float range
        doc = json.loads(text, parse_int=lambda s: float(s) + 0.0)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "weights" not in doc:
        raise ValidationError('JSON map must be an object with a "weights" key')
    rows = doc["weights"]
    if not isinstance(rows, list) or not rows:
        raise ValidationError('"weights" must be a non-empty list of rows')
    n = len(rows)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise ValidationError(
                f"matrix must be square: row {i + 1} has {got} values, expected {n}"
            )
        for j, cell in enumerate(row):
            if not isinstance(cell, float):  # every JSON number parses to a float
                raise ValidationError(
                    f"non-numeric cell at row {i + 1}, column {j + 1}: {cell!r}"
                )
            if not math.isfinite(cell):
                raise ValidationError(f"non-finite cell at row {i + 1}, column {j + 1}: {cell!r}")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ValidationError('"labels" must be a list of strings')
        labels = tuple(labels)
    return CognitiveMap(rows, labels)


def _default_fmt(path) -> str:
    """JSON for a ``str`` or ``Path`` with the suffix ``.json`` in any case, else CSV."""
    json_path = isinstance(path, (str, Path)) and Path(path).suffix.lower() == ".json"
    return "json" if json_path else "csv"


def load_map(
    source: Source, fmt: str | None = None, *, decimal_comma: bool = False
) -> CognitiveMap:
    """Load and validate a cognitive map from ``source``.

    Pass a :class:`pathlib.Path` or an open file to read from disk; a plain
    ``str`` or ``bytes`` is parsed as the file's contents, not as a path.
    ``fmt`` is ``"csv"`` or ``"json"``, by default JSON for a ``Path`` ending
    in ``.json`` and CSV otherwise.  Raises :class:`ValidationError` with the
    offending row/column named for any malformed input.
    """
    if fmt is None:
        fmt = _default_fmt(source if isinstance(source, Path) else None)
    text = _read_text(source)
    if fmt == "csv":
        return _load_csv(text, decimal_comma)
    if fmt == "json":
        return _load_json(text)
    raise ValueError(f"unknown format {fmt!r}, expected 'csv' or 'json'")


def dumps_map(cmap: CognitiveMap, fmt: str = "csv") -> str:
    """Serialize ``cmap``; inverse of :func:`load_map` for both formats.

    Raises :class:`ValidationError` naming the first label that CSV cannot
    carry, one the reader would not give back as written.
    """
    if fmt == "csv":
        out = io.StringIO()
        if cmap.labels:
            header = ",".join(cmap.labels)
            read = _csv_rows(_read_text(header), decimal_comma=False)[0]  # as load_map reads it
            if read != cmap.labels:
                bad = next((s for s, r in zip(cmap.labels, read or ()) if s != r), cmap.labels[0])
                raise ValidationError(
                    f"label {bad!r} would not read back from CSV; save the map as JSON"
                )
            out.write(header + "\n")
        for row in cmap.weights:
            out.write(",".join(repr(float(v)) for v in row) + "\n")
        return out.getvalue()
    if fmt == "json":
        doc: dict = {}
        if cmap.labels:
            doc["labels"] = list(cmap.labels)
        doc["weights"] = [[float(v) for v in row] for row in cmap.weights]
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}, expected 'csv' or 'json'")


def save_map(cmap: CognitiveMap, dest: Union[str, Path, IO], fmt: str | None = None) -> None:
    """Write ``cmap`` to a path or open text file; by default JSON for a ``.json`` path."""
    text = dumps_map(cmap, _default_fmt(dest) if fmt is None else fmt)
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(text, encoding="utf-8")
    else:
        dest.write(text)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def max_abs_weight(cmap: CognitiveMap) -> float:
    """Largest absolute edge weight; 0 exactly when the map has no edges.

    This is the normalization constant that makes the influence recurrence
    scale-free (the accumulated value is divided by it before damping).
    """
    return float(np.max(np.abs(cmap.weights)))


def reachability_closure(cmap: CognitiveMap) -> np.ndarray:
    """Boolean matrix with (i, j) true iff a directed path i -> j exists.

    Paths have length >= 1, so the diagonal is true only for vertices on a
    cycle.  Plain Warshall closure over the nonzero pattern.
    """
    reach = cmap.weights != 0.0
    for k in range(cmap.n):
        reach = reach | np.outer(reach[:, k], reach[k, :])
    reach.setflags(write=False)
    return reach


def scale_map(cmap: CognitiveMap, eta: float) -> CognitiveMap:
    """Multiply every edge weight by ``eta`` (> 0, finite).

    Raises :class:`CogmapError` naming eta and the first weight, in
    row-major order, whose product overflows.
    """
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be a positive finite number, got {eta!r}")
    with np.errstate(over="ignore"):
        weights = cmap.weights * float(eta)
    bad = np.argwhere(np.isinf(weights))
    if bad.size:
        i, j = (int(k) for k in bad[0])
        raise CogmapError(
            f"scaling by eta {float(eta)!r} overflows the weight {float(cmap.weights[i, j])!r} "
            f"at row {i + 1}, column {j + 1}"
        )
    return CognitiveMap(weights, cmap.labels)
