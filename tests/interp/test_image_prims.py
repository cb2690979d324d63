"""Image distillation primitive tests (paper §5 extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import RecordingContext
from repro.interp.image_prims import (decode_image, downscale,
                                      encode_image, quantize)
from repro.interp.primitives import PRIMITIVES
from repro.lang import PlanPRuntimeError

from ..conftest import remote_emissions


def call(name, *args):
    return PRIMITIVES[name].impl(RecordingContext(), list(args))


def sample_image(width=16, height=12):
    return encode_image(
        (np.arange(width * height) % 256).astype(np.uint8)
        .reshape(height, width))


class TestFormat:
    def test_encode_decode_roundtrip(self):
        pixels = np.arange(48, dtype=np.uint8).reshape(6, 8)
        got, bits = decode_image(encode_image(pixels, bits=8))
        assert np.array_equal(got, pixels)
        assert bits == 8

    def test_bad_magic_rejected(self):
        with pytest.raises(PlanPRuntimeError) as err:
            decode_image(b"JUNKxxxxxxxxxxxx")
        assert err.value.exception_name == "BadPacket"

    def test_truncated_body_rejected(self):
        blob = sample_image()[:-3]
        with pytest.raises(PlanPRuntimeError):
            decode_image(blob)

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros((2, 2), np.uint8), bits=9)


class TestOperators:
    def test_downscale_halves(self):
        pixels = np.arange(64, dtype=np.uint8).reshape(8, 8)
        small = downscale(pixels)
        assert small.shape == (4, 4)
        # Top-left 2x2 block of 0,1,8,9 averages to 4.
        assert small[0, 0] == 4

    def test_downscale_odd_dimensions(self):
        pixels = np.zeros((5, 7), np.uint8)
        assert downscale(pixels).shape == (2, 3)

    def test_downscale_degenerate(self):
        assert downscale(np.zeros((1, 1), np.uint8)).shape == (1, 1)

    def test_quantize_reduces_levels(self):
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        q = quantize(pixels, 2)
        assert set(np.unique(q)) == {0, 64, 128, 192}

    @given(st.integers(2, 12), st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_downscale_never_grows(self, w, h):
        pixels = np.zeros((h, w), np.uint8)
        small = downscale(pixels)
        assert small.shape[0] <= h and small.shape[1] <= w
        assert small.size < pixels.size or pixels.size == 1


class TestPrimitives:
    def test_dimensions(self):
        blob = sample_image(20, 10)
        assert call("imgWidth", blob) == 20
        assert call("imgHeight", blob) == 10
        assert call("imgDepth", blob) == 8

    def test_is_image(self):
        assert call("imgIs", sample_image()) is True
        assert call("imgIs", b"not an image") is False

    def test_downscale_primitive(self):
        blob = sample_image(16, 12)
        small = call("imgDownscale", blob)
        assert call("imgWidth", small) == 8
        assert call("imgHeight", small) == 6

    def test_quantize_primitive(self):
        blob = sample_image()
        q = call("imgQuantize", blob, 4)
        assert call("imgDepth", q) == 4
        assert len(q) == len(blob)

    def test_quantize_bad_depth(self):
        with pytest.raises(PlanPRuntimeError):
            call("imgQuantize", sample_image(), 0)

    def test_distill_fits_budget(self):
        blob = sample_image(64, 64)  # 4105 bytes
        out = call("imgDistill", blob, 1200)
        assert len(out) <= 1200
        assert call("imgIs", out)

    def test_distill_noop_when_within_budget(self):
        blob = sample_image(8, 8)
        assert call("imgDistill", blob, 10_000) == blob

    def test_distill_tiny_budget_rejected(self):
        with pytest.raises(PlanPRuntimeError):
            call("imgDistill", sample_image(), 5)

    @given(st.integers(200, 3000))
    @settings(max_examples=20, deadline=None)
    def test_distill_budget_property(self, budget):
        blob = sample_image(48, 48)
        out = call("imgDistill", blob, budget)
        # Either it fits, or the image is already a single pixel.
        assert len(out) <= budget or call("imgWidth", out) <= 1

    def test_usable_from_planp(self):
        """The primitives extend the whole toolchain (interpreter, type
        checker and both JITs) — compile a program using them on every
        backend."""
        from repro.jit import load_program

        src = """
channel network(ps : int, ss : unit, p : ip*udp*blob) is
  if imgIs(#3 p) then
    try
      (OnRemote(network, (#1 p, #2 p, imgDistill(#3 p, 500)));
       (ps + 1, ss))
    handle _ =>
      (OnRemote(network, p); (ps, ss))
  else
    (OnRemote(network, p); (ps, ss))
"""
        for backend in ("interpreter", "closure", "source"):
            loaded = load_program(src, backend=backend)
            ctx = RecordingContext()
            chan = loaded.info.channels["network"][0]
            from repro.net.packet import IpHeader, UdpHeader

            packet = (IpHeader(), UdpHeader(), sample_image(64, 64))
            ps, _ss = loaded.engine.run_channel(chan, 0, None, packet,
                                                ctx)
            assert ps == 1
            emitted = remote_emissions(ctx)[0].packet_value[2]
            assert len(emitted) <= 500
