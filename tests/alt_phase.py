"""The alternative polynomial phase system, a cross-check of the main one.

In x = f^(m-1), y = f^(m-2) f', z = xi, with d(xi)/d(eta) = m*x, the profile
equation becomes

    x' = m(m-1) x y
    y' = -m y^2 + x/(m-1) - z^sigma x^2
    z' = m x.

The package integrates only the main (X, Y, Z) system (blowup.phase); this
pointwise field serves the tests that check the main system and computed
profiles against an independent change of variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from blowup.model import Params


@dataclass(frozen=True)
class AltPhaseState:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if self.x < 0.0 or self.z < 0.0:
            raise ValueError("alternative phase space needs x >= 0, z >= 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def vf_alt(params: Params, s: AltPhaseState) -> Tuple[float, float, float]:
    """Right-hand side of the alternative (x, y, z) system."""
    m, sigma = params.m, params.sigma
    x, y, z = s.x, s.y, s.z
    return (m * (m - 1.0) * x * y,
            -m * y * y + x / (m - 1.0) - z ** sigma * x * x,
            m * x)
