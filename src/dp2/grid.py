"""Uniform 1D grids for the reference solver and the residual lab.

The solver works on the periodic domain [x0, x0 + length) with nodes
x_j = x0 + j*length/n; n is a power of two so transforms stay fast.
The residual lab reuses the same type with an origin shift so grids can
be centred on a compact support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

# Largest n of any grid (solve's n, each verify level, selfsim's grid_n),
# refused above it before anything is allocated: a dp2 verify whose finest
# level has 2**20 nodes peaks at 142 MB RSS (x86_64, Python 3.11, numpy 2.4).
N_MAX = 2**20


@dataclass(frozen=True)
class Grid1D:
    n: int
    length: float
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not 16 <= self.n <= N_MAX or (self.n & (self.n - 1)) != 0:
            raise ValidationError(f"n must be a power of two in [16, {N_MAX}], got n={self.n}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise ValidationError(f"length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        return self.x0 + np.arange(self.n) * self.dx

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*k/L for the real-transform half-spectrum."""
        return 2.0 * math.pi * np.fft.rfftfreq(self.n, d=self.dx)
