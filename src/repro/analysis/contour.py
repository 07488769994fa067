"""ASCII contour rendering: the stand-in for the paper's plotting package.

The original figures were generated by a plotting package that (the
paper notes) could not honour fractional cell volumes, producing the
jagged wedge edge of figure 3.  The reproduction renders density fields
as ASCII contour maps -- good enough to eyeball the shock, the expansion
fan and the wake shock in a terminal and in the benchmark logs -- and
dumps raw ``.npz`` fields for anything fancier.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Characters from low to high density.
DEFAULT_PALETTE = " .:-=+*#%@"


def render_ascii(
    field: np.ndarray,
    levels: Optional[Sequence[float]] = None,
    palette: str = DEFAULT_PALETTE,
    max_width: int = 100,
) -> str:
    """Render a 2-D field as an ASCII density map.

    The field is indexed ``[i (x), j (y)]``; the rendering puts y up and
    x rightward (flow left to right), one character per cell, decimating
    columns if the field is wider than ``max_width``.

    ``levels`` are the bin edges between palette characters; by default
    they are evenly spaced between the field's min and max.
    """
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 2:
        raise ConfigurationError("field must be 2-D")
    if f.shape[0] > max_width:
        stride = -(-f.shape[0] // max_width)
        f = f[::stride]
    if levels is None:
        lo, hi = float(f.min()), float(f.max())
        if hi <= lo:
            hi = lo + 1.0
        levels = np.linspace(lo, hi, len(palette) + 1)[1:-1]
    else:
        levels = np.asarray(levels, dtype=np.float64)
        if levels.size != len(palette) - 1:
            raise ConfigurationError(
                f"need {len(palette) - 1} levels for a {len(palette)}-char "
                "palette"
            )
    idx = np.searchsorted(levels, f)
    chars = np.array(list(palette))
    rows = []
    for j in range(f.shape[1] - 1, -1, -1):
        rows.append("".join(chars[idx[:, j]]))
    return "\n".join(rows)


def save_field_npz(path: str, **fields: np.ndarray) -> None:
    """Dump named fields to a compressed ``.npz`` (benches' raw output)."""
    if not fields:
        raise ConfigurationError("no fields given")
    np.savez_compressed(path, **fields)
