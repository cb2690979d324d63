"""The MPEG-1 stream model.

A live stream has a GOP (group-of-pictures) pattern of I/P/B frames with
characteristic relative sizes; frame sizes are scaled so the stream
averages its target bit rate.  Frames larger than the MTU budget are
fragmented into chunks with a small reassembly header:

    bytes 0..3   frame number (big-endian)
    bytes 4..5   chunk index
    bytes 6..7   chunk count
    byte  8      frame type (``I``/``P``/``B``)
    bytes 9..    frame data
"""

from __future__ import annotations

from dataclasses import dataclass

CHUNK_HEADER_BYTES = 9
MAX_CHUNK_DATA = 1400

#: Relative frame sizes, loosely MPEG-1-shaped.
TYPE_WEIGHTS = {"I": 5.0, "P": 1.6, "B": 0.6}


@dataclass(frozen=True)
class MpegStream:
    """Static description of one live video stream."""

    name: str
    width: int = 352
    height: int = 240
    fps: int = 24
    gop: str = "IBBPBBPBB"
    bitrate_bps: int = 1_200_000

    def __post_init__(self) -> None:
        if not self.gop or set(self.gop) - set("IPB"):
            raise ValueError(f"malformed GOP pattern {self.gop!r}")

    @property
    def mean_frame_bytes(self) -> float:
        return self.bitrate_bps / 8 / self.fps

    def frame_type(self, frame_no: int) -> str:
        return self.gop[frame_no % len(self.gop)]

    def frame_size(self, frame_no: int) -> int:
        """Deterministic size of frame ``frame_no`` in bytes."""
        weights = [TYPE_WEIGHTS[t] for t in self.gop]
        mean_weight = sum(weights) / len(weights)
        weight = TYPE_WEIGHTS[self.frame_type(frame_no)]
        return max(64, int(self.mean_frame_bytes * weight / mean_weight))

    def setup_line(self) -> str:
        """The server's stream-description response ("SETUP ...")."""
        return (f"SETUP {self.name} {self.width} {self.height} "
                f"{self.fps} {self.gop}")

    @classmethod
    def parse_setup(cls, line: str) -> "MpegStream":
        parts = line.strip().split(" ")
        if len(parts) != 6 or parts[0] != "SETUP":
            raise ValueError(f"malformed setup line {line!r}")
        return cls(name=parts[1], width=int(parts[2]),
                   height=int(parts[3]), fps=int(parts[4]), gop=parts[5])


def fragment_frame(frame_no: int, frame_type: str,
                   size: int) -> list[bytes]:
    """Split one frame into wire chunks (synthetic frame data)."""
    n_chunks = max(1, (size + MAX_CHUNK_DATA - 1) // MAX_CHUNK_DATA)
    chunks = []
    remaining = size
    for idx in range(n_chunks):
        data_len = min(MAX_CHUNK_DATA, remaining)
        remaining -= data_len
        header = (frame_no.to_bytes(4, "big")
                  + idx.to_bytes(2, "big")
                  + n_chunks.to_bytes(2, "big")
                  + frame_type.encode("latin-1"))
        chunks.append(header + bytes(data_len))
    return chunks


def parse_chunk(payload: bytes) -> tuple[int, int, int, str, int]:
    """Returns (frame_no, chunk_idx, n_chunks, frame_type, data_len)."""
    if len(payload) < CHUNK_HEADER_BYTES:
        raise ValueError(f"short video chunk ({len(payload)} bytes)")
    frame_no = int.from_bytes(payload[0:4], "big")
    chunk_idx = int.from_bytes(payload[4:6], "big")
    n_chunks = int.from_bytes(payload[6:8], "big")
    frame_type = payload[8:9].decode("latin-1")
    return (frame_no, chunk_idx, n_chunks, frame_type,
            len(payload) - CHUNK_HEADER_BYTES)


class FrameAssembler:
    """Reassembles frames from chunks at the client."""

    def __init__(self):
        self._pending: dict[int, set[int]] = {}
        self._expected: dict[int, int] = {}
        self.frames_completed: list[tuple[int, str, float]] = []
        self.bytes_received = 0

    def add_chunk(self, payload: bytes, now: float) -> bool:
        """Feed one chunk; returns True when it completes a frame."""
        frame_no, chunk_idx, n_chunks, frame_type, data_len = \
            parse_chunk(payload)
        self.bytes_received += len(payload)
        seen = self._pending.setdefault(frame_no, set())
        seen.add(chunk_idx)
        self._expected[frame_no] = n_chunks
        if len(seen) >= n_chunks:
            del self._pending[frame_no]
            del self._expected[frame_no]
            self.frames_completed.append((frame_no, frame_type, now))
            return True
        return False
