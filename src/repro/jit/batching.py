"""Shared protocol for the tier-3 batch execution path.

A batch fold ``run(decl, ps, ss, batch, ctx)`` runs a channel over
every row of a :class:`~repro.runtime.codec.PacketBatch` in one call.
One engine brings one: the closure engine's ``run_channel_batch``; the
interpreter and the source backend bring none, and a host runs them
packet by packet.  The containment contract between a fold and
:class:`~repro.runtime.dispatch.DispatchCore` is carried by
:class:`BatchFault`:

* if row ``i`` raises, the fold re-raises it as ``BatchFault(i, ps,
  ss, err)`` where ``ps``/``ss`` are the states *entering* row ``i`` —
  rows ``0..i-1`` committed, row ``i`` did not;
* any *other* exception escaping the fold therefore means setup or
  decode failed before the first row executed, so the caller may
  safely re-run the whole batch packet-by-packet.
"""

from __future__ import annotations


class BatchFault(Exception):
    """Row ``index`` of a batch raised ``err``; ``ps``/``ss`` are the
    protocol/channel states as of entering that row."""

    def __init__(self, index: int, ps, ss, err: BaseException):
        super().__init__(index, err)
        self.index = index
        self.ps = ps
        self.ss = ss
        self.err = err
