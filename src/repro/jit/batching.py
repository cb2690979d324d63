"""Shared protocol for the tier-3 batch execution path.

A batch fold ``run(decl, ps, ss, batch, ctx)`` runs a channel over
every row of a :class:`~repro.runtime.codec.PacketBatch` in one call:
the closure engine's own ``run_channel_batch``, or the generic
:func:`run_rows` for the interpreter and the source backend, which
bring none (:func:`batch_runner` picks).  The containment contract
between a fold and :class:`~repro.runtime.dispatch.DispatchCore` is
carried by :class:`BatchFault`:

* if row ``i`` raises, the fold re-raises it as ``BatchFault(i, ps,
  ss, err)`` where ``ps``/``ss`` are the states *entering* row ``i`` —
  rows ``0..i-1`` committed, row ``i`` did not;
* any *other* exception escaping the fold therefore means setup or
  decode failed before the first row executed, so the caller may
  safely re-run the whole batch packet-by-packet.
"""

from __future__ import annotations

from functools import partial


class BatchFault(Exception):
    """Row ``index`` of a batch raised ``err``; ``ps``/``ss`` are the
    protocol/channel states as of entering that row."""

    def __init__(self, index: int, ps, ss, err: BaseException):
        super().__init__(index, err)
        self.index = index
        self.ps = ps
        self.ss = ss
        self.err = err


def run_rows(run_channel, decl, ps, ss, batch, ctx):
    """Generic batch loop for engines without a fold of their own:
    fold ``run_channel`` over the decoded rows under the
    :class:`BatchFault` contract.  ``rows()`` is forced before the
    loop so decode errors surface with zero rows executed."""
    rows = batch.rows()
    i = 0
    try:
        for value in rows:
            ctx._row = i
            ps, ss = run_channel(decl, ps, ss, value, ctx)
            i += 1
    except BatchFault:
        raise
    except Exception as err:
        raise BatchFault(i, ps, ss, err) from err
    return ps, ss


def batch_runner(engine):
    """The engine's batch entry point ``run(decl, ps, ss, batch, ctx)``:
    its own ``run_channel_batch`` when it has one, else the generic
    :func:`run_rows` fold over its ``run_channel``."""
    run = getattr(engine, "run_channel_batch", None)
    return run if run is not None else partial(run_rows,
                                               engine.run_channel)
