"""The audio ASPs' sample transforms, written out in numpy.

The router ASP (``repro.asps.audio``) degrades a frame with PLAN-P
primitives and the client ASP restores it; these are the reference the
unit tests hold both chains to.
"""

from __future__ import annotations

import numpy as np

from repro.asps.audio import FMT_MONO16, FMT_MONO8, FMT_STEREO16


def degrade(pcm: bytes, from_fmt: int, to_fmt: int) -> bytes:
    """Reference implementation of the router ASP's transform chain."""
    if to_fmt <= from_fmt:
        return pcm
    data = pcm
    if from_fmt == FMT_STEREO16 and to_fmt >= FMT_MONO16:
        samples = np.frombuffer(data, dtype="<i2").reshape(-1, 2)
        data = (samples.astype(np.int32).sum(axis=1) // 2) \
            .astype("<i2").tobytes()
    if to_fmt == FMT_MONO8:
        samples = np.frombuffer(data, dtype="<i2")
        data = ((samples.astype(np.int32) >> 8) + 128) \
            .astype(np.uint8).tobytes()
    return data


def restore_to_stereo16(pcm: bytes, fmt: int) -> bytes:
    """Reference implementation of the client ASP's restoration chain."""
    data = pcm
    if fmt == FMT_MONO8:
        samples = np.frombuffer(data, dtype=np.uint8)
        data = ((samples.astype(np.int32) - 128) << 8) \
            .astype("<i2").tobytes()
        fmt = FMT_MONO16
    if fmt == FMT_MONO16:
        samples = np.frombuffer(data, dtype="<i2")
        data = np.repeat(samples, 2).astype("<i2").tobytes()
    return data
