"""Image distillation primitives (paper §5, medium-term goals).

"Our medium term goal is to do adaptation of data traffic such as images
... over low bandwidth networks.  One possible solution is the
integration of image distillation support into PLAN-P."

This module integrates that support.  Images travel as blobs in a tiny
uncompressed grayscale format (SIMG):

    bytes 0..3   magic "SIMG"
    bytes 4..5   width  (big-endian)
    bytes 6..7   height (big-endian)
    byte  8      bits per pixel (1..8)
    bytes 9..    pixels, row-major, one byte each (quantised values are
                 stored left-aligned in the byte)

Distillation operators (à la Fox et al.'s transcoding proxies, which the
paper cites implicitly via "image distillation"):

* ``imgDownscale`` — halve both dimensions by 2×2 box averaging;
* ``imgQuantize``  — reduce to n bits per pixel;
* ``imgDistill``   — repeatedly downscale until the encoding fits a
  byte budget (the form an ASP uses on a slow link).

Registering these extends the interpreter, the type checker and both
JIT backends at once — the §2.3 extension story in action, which
``tests/interp/test_image_prims.py`` checks explicitly.  The functions
that compute with numpy import it themselves, so registering the
primitives does not load it (DESIGN §13c).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..lang import types as T
from ..lang.errors import PlanPRuntimeError
from .context import ExecutionContext
from .primitives import register, sig

if TYPE_CHECKING:
    import numpy as np

MAGIC = b"SIMG"
HEADER_BYTES = 9


def encode_image(pixels: np.ndarray, bits: int = 8) -> bytes:
    """Build a SIMG blob from a 2-D uint8 array."""
    import numpy as np

    if pixels.ndim != 2:
        raise ValueError("pixels must be a 2-D array")
    if not 1 <= bits <= 8:
        raise ValueError("bits per pixel must be in 1..8")
    height, width = pixels.shape
    header = (MAGIC + width.to_bytes(2, "big") + height.to_bytes(2, "big")
              + bytes([bits]))
    return header + pixels.astype(np.uint8).tobytes()


def decode_image(blob: bytes) -> tuple[np.ndarray, int]:
    """Parse a SIMG blob into (pixels, bits); raises BadPacket."""
    import numpy as np

    if len(blob) < HEADER_BYTES or blob[:4] != MAGIC:
        raise PlanPRuntimeError("not a SIMG image",
                                exception_name="BadPacket")
    width = int.from_bytes(blob[4:6], "big")
    height = int.from_bytes(blob[6:8], "big")
    bits = blob[8]
    if not 1 <= bits <= 8:
        raise PlanPRuntimeError(f"bad bit depth {bits}",
                                exception_name="BadPacket")
    expected = width * height
    body = blob[HEADER_BYTES:]
    if len(body) != expected:
        raise PlanPRuntimeError(
            f"image body is {len(body)} bytes, header says {expected}",
            exception_name="BadPacket")
    pixels = np.frombuffer(body, np.uint8).reshape(height, width)
    return pixels, bits


def downscale(pixels: np.ndarray) -> np.ndarray:
    """2x2 box filter; odd edges are dropped (like the classic pyramid)."""
    import numpy as np

    height, width = pixels.shape
    height -= height % 2
    width -= width % 2
    if height == 0 or width == 0:
        return pixels[:1, :1].copy()
    trimmed = pixels[:height, :width].astype(np.uint16)
    pooled = (trimmed[0::2, 0::2] + trimmed[0::2, 1::2]
              + trimmed[1::2, 0::2] + trimmed[1::2, 1::2]) // 4
    return pooled.astype(np.uint8)


def quantize(pixels: np.ndarray, bits: int) -> np.ndarray:
    """Keep the top ``bits`` bits of each pixel (left-aligned)."""
    import numpy as np

    shift = 8 - bits
    return ((pixels >> shift) << shift).astype(np.uint8)


# ---------------------------------------------------------------------------
# Primitive implementations
# ---------------------------------------------------------------------------


def _impl_is_image(ctx: ExecutionContext, a: list[object]) -> object:
    blob = a[0]
    try:
        decode_image(blob)  # type: ignore[arg-type]
        return True
    except PlanPRuntimeError:
        return False


def _impl_width(ctx: ExecutionContext, a: list[object]) -> object:
    pixels, _bits = decode_image(a[0])  # type: ignore[arg-type]
    return int(pixels.shape[1])


def _impl_height(ctx: ExecutionContext, a: list[object]) -> object:
    pixels, _bits = decode_image(a[0])  # type: ignore[arg-type]
    return int(pixels.shape[0])


def _impl_depth(ctx: ExecutionContext, a: list[object]) -> object:
    _pixels, bits = decode_image(a[0])  # type: ignore[arg-type]
    return int(bits)


def _impl_downscale(ctx: ExecutionContext, a: list[object]) -> object:
    pixels, bits = decode_image(a[0])  # type: ignore[arg-type]
    return encode_image(downscale(pixels), bits)


def _impl_quantize(ctx: ExecutionContext, a: list[object]) -> object:
    blob, bits = a
    if not 1 <= bits <= 8:  # type: ignore[operator]
        raise PlanPRuntimeError(f"bad target depth {bits}",
                                exception_name="BadPacket")
    pixels, _old = decode_image(blob)  # type: ignore[arg-type]
    return encode_image(quantize(pixels, bits),  # type: ignore[arg-type]
                        bits)  # type: ignore[arg-type]


def _impl_distill(ctx: ExecutionContext, a: list[object]) -> object:
    blob, budget = a
    if budget < HEADER_BYTES + 1:  # type: ignore[operator]
        raise PlanPRuntimeError(f"budget {budget} too small",
                                exception_name="BadPacket")
    pixels, bits = decode_image(blob)  # type: ignore[arg-type]
    current = blob
    while len(current) > budget:  # type: ignore[arg-type]
        if pixels.size <= 1:
            break
        pixels = downscale(pixels)
        current = encode_image(pixels, bits)
    return current


register("imgIs", sig([T.BLOB], T.BOOL), _impl_is_image)
register("imgWidth", sig([T.BLOB], T.INT), _impl_width,
         may_raise=("BadPacket",))
register("imgHeight", sig([T.BLOB], T.INT), _impl_height,
         may_raise=("BadPacket",))
register("imgDepth", sig([T.BLOB], T.INT), _impl_depth,
         may_raise=("BadPacket",))
register("imgDownscale", sig([T.BLOB], T.BLOB), _impl_downscale,
         may_raise=("BadPacket",))
register("imgQuantize", sig([T.BLOB, T.INT], T.BLOB), _impl_quantize,
         may_raise=("BadPacket",))
register("imgDistill", sig([T.BLOB, T.INT], T.BLOB), _impl_distill,
         may_raise=("BadPacket",))
