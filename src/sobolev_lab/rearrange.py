"""The decreasing rearrangement u* of a gridded field, the pipeline's one rearrangement."""

from __future__ import annotations

import numpy as np

from .core import InputError
from .elliptic import GriddedField
from .radial import VolumeProfile

__all__ = ["decreasing_rearrangement"]


def _masked_values(fld: GriddedField) -> np.ndarray:
    vals = fld.values[fld.mask]
    if np.any(vals < 0):
        raise InputError("field has negative node values; a rearrangement needs u >= 0")
    return vals


def decreasing_rearrangement(fld: GriddedField) -> VolumeProfile:
    """u*(s): sorted-descending node values as a step profile over h^2 cells.

    The values are one C-contiguous array, sorted in place in the masked
    copy (negate, sort ascending, negate back), so that powers of u* run
    numpy's contiguous loops and no second full-size array is held.
    """
    vals = _masked_values(fld)
    h2 = fld.h**2
    np.negative(vals, out=vals)
    vals.sort()
    np.negative(vals, out=vals)
    breaks = h2 * np.arange(vals.size + 1, dtype=float)
    return VolumeProfile(s=breaks, values=vals)
