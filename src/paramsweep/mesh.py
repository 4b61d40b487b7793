"""Uniform parameter meshes and user-supplied parameter point files.

A mesh is the Cartesian product of per-parameter grids, each axis either
a fixed complex value or an inclusive real range.  Points are ordered
with the FIRST parameter varying fastest: point i lies at the grid
position ``np.unravel_index(i, counts, order="F")``.

Point files are whitespace-separated real/imaginary pairs, one parameter
point per line::

    0.5 0.0   1.0 -1.0      % point (0.5, 1-1j)

``%`` and ``#`` start comments, as in input files, and blank lines are
skipped.  Every value must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from paramsweep.poly import strip_comment

__all__ = [
    "Fixed",
    "Range",
    "MeshSpec",
    "PointList",
    "generate_mesh",
    "load_param_file",
    "finite_float",
]


@dataclass(frozen=True)
class Fixed:
    value: complex

    @property
    def count(self) -> int:
        return 1

    def grid(self) -> np.ndarray:
        return np.array([self.value], dtype=complex)


@dataclass(frozen=True)
class Range:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("range count must be >= 1")
        if self.lo > self.hi:
            raise ValueError(f"range has min {self.lo} > max {self.hi}")

    def grid(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.lo], dtype=complex)
        return np.linspace(self.lo, self.hi, self.count).astype(complex)


@dataclass(frozen=True)
class MeshSpec:
    axes: tuple[Fixed | Range, ...]

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def size(self) -> int:
        out = 1
        for c in self.counts:
            out *= c
        return out

    @property
    def n_params(self) -> int:
        return len(self.axes)


@dataclass(frozen=True)
class PointList:
    points: tuple[np.ndarray, ...]
    source: str  # "mesh" or "file"

    def __len__(self) -> int:
        return len(self.points)


def generate_mesh(spec: MeshSpec) -> PointList:
    """Cartesian product of the axis grids, first parameter fastest."""
    axes = np.meshgrid(*(ax.grid() for ax in spec.axes), indexing="ij")
    points = np.stack([a.ravel(order="F") for a in axes], axis=1)
    return PointList(points=tuple(points), source="mesh")


def finite_float(tok: str) -> float:
    """``float(tok)``, refusing nan and the infinities."""
    val = float(tok)
    if not math.isfinite(val):
        raise ValueError(f"non-finite value {tok!r}")
    return val


def load_param_file(text: str, n_params: int | None = None) -> PointList:
    """Parse whitespace-separated re/im pairs, one point per line."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = strip_comment(raw).split()
        if not tokens:
            continue
        if n_params is None:
            if len(tokens) % 2 != 0:
                raise ValueError(
                    f"line {lineno}: expected an even number of values "
                    f"(re/im pairs), got {len(tokens)}"
                )
            n_params = len(tokens) // 2
        if len(tokens) != 2 * n_params:
            raise ValueError(
                f"line {lineno}: expected {2 * n_params} values, got {len(tokens)}"
            )
        try:
            vals = [finite_float(tok) for tok in tokens]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        # a float view keeps each (re, im) pair as written; re + 1j*im
        # would turn an imaginary -0.0 into 0.0
        points.append(np.array(vals).view(complex))
    if not points:
        raise ValueError("parameter file contains no points")
    return PointList(points=tuple(points), source="file")
