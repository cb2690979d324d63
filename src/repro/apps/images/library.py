"""Synthetic image library for the distillation experiment.

Deterministic grayscale test patterns in the SIMG format of
:mod:`repro.interp.image_prims` — gradients, checkerboards and blobs of
noise-free texture, at a spread of sizes so the distiller has something
to chew on.  Each pattern imports numpy itself (DESIGN §13c).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...interp.image_prims import encode_image

if TYPE_CHECKING:
    import numpy as np


def gradient(width: int, height: int) -> np.ndarray:
    import numpy as np

    x = np.linspace(0, 255, width, dtype=np.float64)
    y = np.linspace(0, 255, height, dtype=np.float64)
    return ((x[None, :] + y[:, None]) / 2).astype(np.uint8)


def checkerboard(width: int, height: int, square: int = 8) -> np.ndarray:
    import numpy as np

    yy, xx = np.mgrid[0:height, 0:width]
    return (((xx // square + yy // square) % 2) * 255).astype(np.uint8)


def rings(width: int, height: int) -> np.ndarray:
    import numpy as np

    yy, xx = np.mgrid[0:height, 0:width]
    cx, cy = width / 2, height / 2
    r = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
    return ((np.sin(r / 4) * 0.5 + 0.5) * 255).astype(np.uint8)


def build_library() -> dict[str, bytes]:
    """The experiment's image catalogue (name -> SIMG blob)."""
    return {
        "icon.simg": encode_image(checkerboard(32, 32, 4)),
        "photo-small.simg": encode_image(gradient(80, 60)),
        "photo-medium.simg": encode_image(rings(160, 120)),
        "photo-large.simg": encode_image(gradient(256, 192)),
        "poster.simg": encode_image(rings(320, 240)),
    }
