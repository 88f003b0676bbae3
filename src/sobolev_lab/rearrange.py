"""The decreasing rearrangement u* of a gridded field, the pipeline's one rearrangement."""

from __future__ import annotations

import numpy as np

from .elliptic import GriddedField
from .radial import VolumeProfile

__all__ = ["decreasing_rearrangement"]


def _masked_values(fld: GriddedField) -> np.ndarray:
    vals = fld.values[fld.mask]
    if np.any(vals < 0):
        raise ValueError("rearrangement machinery expects non-negative fields")
    return vals


def decreasing_rearrangement(fld: GriddedField) -> VolumeProfile:
    """u*(s): sorted-descending node values as a step profile over h^2 cells."""
    vals = _masked_values(fld)
    h2 = fld.h**2
    order = np.sort(vals)[::-1]
    breaks = h2 * np.arange(vals.size + 1, dtype=float)
    return VolumeProfile(s=breaks, values=order, step=True)
