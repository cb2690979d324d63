"""Differential property: the tier-3 batch loop ≡ the serial loop.

For random well-typed programs and random small packet streams, folding
the stream through ``batch_runner(engine)`` (the closure JIT's own
batch fold, the generic ``run_rows`` driver over the interpreter and
the source JIT) must produce exactly what a per-packet
``run_channel`` loop produces: the same final protocol state, the same
emission stream in the same order, the same console output — and on a
faulting row, the same committed prefix plus the same error, surfaced
through the :class:`~repro.jit.batching.BatchFault` contract.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import RecordingContext
from repro.interp.values import default_value
from repro.jit import make_engine
from repro.jit.batching import BatchFault, batch_runner
from repro.lang import parse, typecheck
from repro.runtime import codec

from ..conftest import tcp_packet_value
from ..strategies import programs

#: payload lengths the generated guards care about (blobLen appears in
#: the program strategy's integer leaves)
_payloads = st.lists(
    st.binary(max_size=12), min_size=0, max_size=12)


def _wire_stream(payloads):
    """Encode one wire packet per payload; the stream exercises both
    the batch decoder and the engines' dispatch of ip*tcp*blob."""
    return [codec.encode(tcp_packet_value(payload=p, dport=80 + i % 3,
                                          syn=bool(i % 2)))
            for i, p in enumerate(payloads)]


def _batch_for(info, packets):
    decl = info.channels["network"][0]
    plan = codec.dispatch_plan(decl.packet_type)
    assert plan is not None
    return decl, plan.batch_decoder().batch(packets)


def _serial(info, backend, packets):
    engine = make_engine(info, backend, RecordingContext())
    decl = info.channels["network"][0]
    ctx = RecordingContext(seed=7)
    ps = default_value(decl.protocol_state_type)
    ss = engine.initial_channel_state(decl, ctx)
    outcome = None
    for packet in packets:
        value = codec.decode(packet, decl.packet_type)
        try:
            ps, ss = engine.run_channel(decl, ps, ss, value, ctx)
        except Exception as err:
            outcome = type(err).__name__
            break
    return (ps, ss, outcome,
            [(e.kind, e.channel, e.packet_value) for e in ctx.emissions],
            ctx.printed)


def _batched(info, backend, packets):
    engine = make_engine(info, backend, RecordingContext())
    decl, batch = _batch_for(info, packets)
    ctx = RecordingContext(seed=7)
    ps = default_value(decl.protocol_state_type)
    ss = engine.initial_channel_state(decl, ctx)
    outcome = None
    try:
        ps, ss = batch_runner(engine)(decl, ps, ss, batch, ctx)
    except BatchFault as fault:
        # A fault commits the prefix: states entering the faulted row.
        ps, ss = fault.ps, fault.ss
        outcome = type(fault.err).__name__
    return (ps, ss, outcome,
            [(e.kind, e.channel, e.packet_value) for e in ctx.emissions],
            ctx.printed)


@given(source=programs(), payloads=_payloads)
@settings(max_examples=80, deadline=None)
def test_batch_tiers_agree_with_serial(source, payloads):
    info = typecheck(parse(source))
    packets = _wire_stream(payloads)
    serial = _serial(info, "interpreter", packets)
    for backend in ("interpreter", "closure", "source"):
        assert _batched(info, backend, packets) == serial, backend


#: Raises DivideByZero on (and only on) the empty-payload row; every
#: other row forwards.  The division guards OnRemote, so the faulting
#: row must emit nothing.
_FAULTING = """
channel network(ps : int, ss : unit, p : ip*tcp*blob) is
  (let val q : int = ps / blobLen(#3 p) in
     (OnRemote(network, p); (ps + q + 1, ss)) end)
"""


@pytest.mark.parametrize("backend", ["interpreter", "closure", "source"])
def test_faulting_row_matches_serial_prefix(backend):
    info = typecheck(parse(_FAULTING))
    payloads = [b"abc", b"xy", b"", b"tail"]  # fault at row 2
    packets = _wire_stream(payloads)
    serial = _serial(info, "interpreter", packets)
    assert serial[2] == "PlanPRuntimeError"
    assert len(serial[3]) == 2  # two rows forwarded before the fault

    engine = make_engine(info, backend, RecordingContext())
    decl, batch = _batch_for(info, packets)
    ctx = RecordingContext(seed=7)
    ps = default_value(decl.protocol_state_type)
    ss = engine.initial_channel_state(decl, ctx)
    with pytest.raises(BatchFault) as exc:
        batch_runner(engine)(decl, ps, ss, batch, ctx)
    fault = exc.value
    assert fault.index == 2
    assert (fault.ps, fault.ss) == (serial[0], serial[1])
    assert type(fault.err).__name__ == "PlanPRuntimeError"
    assert fault.err.exception_name == "DivideByZero"
    assert [(e.kind, e.channel, e.packet_value)
            for e in ctx.emissions] == serial[3]


@pytest.mark.parametrize("backend", ["closure", "source"])
def test_resume_after_fault_completes_the_tail(backend):
    """The layer's recovery protocol in miniature: re-batch the rows
    after the fault and the tail runs to completion with the committed
    states."""
    info = typecheck(parse(_FAULTING))
    packets = _wire_stream([b"abc", b"", b"xy", b"z"])
    engine = make_engine(info, backend, RecordingContext())
    decl, _ = _batch_for(info, packets)
    plan = codec.dispatch_plan(decl.packet_type)
    ctx = RecordingContext(seed=7)
    ps = default_value(decl.protocol_state_type)
    ss = engine.initial_channel_state(decl, ctx)
    run = batch_runner(engine)
    with pytest.raises(BatchFault) as exc:
        run(decl, ps, ss, plan.batch_decoder().batch(packets), ctx)
    fault = exc.value
    assert fault.index == 1
    tail = plan.batch_decoder().batch(packets[fault.index + 1:])
    ps, ss = run(decl, fault.ps, fault.ss, tail, ctx)
    # Rows 0, 2, 3 ran: three forwards; ps goes 0 →(q=0/3) 1, then
    # after resume 1 →(q=1/2) 2 →(q=2/1) 5.
    assert len(ctx.emissions) == 3
    assert ps == 5
