"""Audio frame formats shared by the source, the client and the tests.

A frame datagram is ``[fmt:1][seq:4 BE][pcm bytes]`` (see
:mod:`repro.asps.audio`).  PCM is signed 16-bit little-endian,
interleaved stereo at format 0; the quality ladder halves the byte rate
at each step, giving the paper's 176 / 88 / 44 kbit/s levels:

======  ================  ==========================
format  encoding          payload bytes per sample
======  ================  ==========================
0       16-bit stereo     4
1       16-bit monaural   2
2       8-bit monaural    1
======  ================  ==========================
"""

from __future__ import annotations

import numpy as np

from ...asps.audio import (FMT_MONO16, FMT_MONO8, FMT_STEREO16,
                           FRAME_HEADER_BYTES)

#: Sample rate chosen so 16-bit stereo consumes the paper's 176 kbit/s.
SAMPLE_RATE = 5500
FRAME_MS = 20
SAMPLES_PER_FRAME = SAMPLE_RATE * FRAME_MS // 1000
#: left-channel tone of the synthetic stream; the right runs a fifth above
TONE_HZ = 440.0

FORMAT_NAMES = {FMT_STEREO16: "16-bit stereo",
                FMT_MONO16: "16-bit mono",
                FMT_MONO8: "8-bit mono"}

#: payload bytes per sample period for each format
BYTES_PER_SAMPLE = {FMT_STEREO16: 4, FMT_MONO16: 2, FMT_MONO8: 1}


def generate_pcm_stereo16(seq: int, n_samples: int) -> bytes:
    """A deterministic stereo sine frame (the 'CD audio' stand-in)."""
    t0 = seq * n_samples
    t = (np.arange(t0, t0 + n_samples) / SAMPLE_RATE)
    left = (np.sin(2 * np.pi * TONE_HZ * t) * 12000).astype("<i2")
    right = (np.sin(2 * np.pi * TONE_HZ * 1.5 * t) * 12000).astype("<i2")
    return np.column_stack([left, right]).astype("<i2").tobytes()


def encode_frame(fmt: int, seq: int, pcm: bytes) -> bytes:
    if fmt not in BYTES_PER_SAMPLE:
        raise ValueError(f"unknown audio format {fmt}")
    return bytes([fmt]) + seq.to_bytes(4, "big") + pcm


def decode_frame(payload: bytes) -> tuple[int, int, bytes]:
    """Returns (fmt, seq, pcm); raises ValueError on a short frame."""
    if len(payload) < FRAME_HEADER_BYTES:
        raise ValueError(f"short audio frame ({len(payload)} bytes)")
    fmt = payload[0]
    seq = int.from_bytes(payload[1:5], "big")
    return fmt, seq, payload[FRAME_HEADER_BYTES:]


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


def frame_kbps(fmt: int) -> float:
    """Nominal payload bandwidth of a format, in kbit/s."""
    return SAMPLE_RATE * BYTES_PER_SAMPLE[fmt] * 8 / 1000
