"""Primitive library tests, one class per family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import RecordingContext
from repro.interp.primitives import PRIMITIVES
from repro.interp.values import PlanPList, PlanPTable
from repro.lang import PlanPRuntimeError
from repro.lang import types as T
from repro.lang.errors import SourcePos, TypeCheckError
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, TcpHeader, UdpHeader


def call(name, *args, ctx=None):
    return PRIMITIVES[name].impl(ctx or RecordingContext(), list(args))


def rule(name, arg_types):
    return PRIMITIVES[name].type_rule(list(arg_types), SourcePos())


class TestIpPrimitives:
    def setup_method(self):
        self.ip = IpHeader(src=HostAddr.parse("1.1.1.1"),
                           dst=HostAddr.parse("2.2.2.2"))

    def test_src_dst(self):
        assert str(call("ipSrc", self.ip)) == "1.1.1.1"
        assert str(call("ipDst", self.ip)) == "2.2.2.2"

    def test_dest_set_is_functional(self):
        new = call("ipDestSet", self.ip, HostAddr.parse("3.3.3.3"))
        assert str(new.dst) == "3.3.3.3"
        assert str(self.ip.dst) == "2.2.2.2"  # original untouched

    def test_swap(self):
        swapped = call("ipSwap", self.ip)
        assert str(swapped.src) == "2.2.2.2"
        assert str(swapped.dst) == "1.1.1.1"

    def test_mk(self):
        made = call("ipMk", HostAddr.parse("9.9.9.9"),
                    HostAddr.parse("8.8.8.8"))
        assert str(made.src) == "9.9.9.9"

    def test_tos_set(self):
        assert call("ipTos", call("ipTosSet", self.ip, 5)) == 5

    def test_type_rule(self):
        assert rule("ipSrc", [T.IP]) == T.HOST
        with pytest.raises(TypeCheckError):
            rule("ipSrc", [T.TCP])
        with pytest.raises(TypeCheckError):
            rule("ipSrc", [T.IP, T.IP])


class TestTransportPrimitives:
    def test_tcp_ports(self):
        tcp = TcpHeader(src_port=1234, dst_port=80)
        assert call("tcpSrc", tcp) == 1234
        assert call("tcpDst", tcp) == 80
        assert call("tcpDst", call("tcpDstSet", tcp, 8080)) == 8080

    def test_tcp_flags(self):
        tcp = TcpHeader(syn=True, ack_flag=True)
        assert call("tcpSyn", tcp) is True
        assert call("tcpFin", tcp) is False
        assert call("tcpAckFlag", tcp) is True

    def test_udp_swap(self):
        udp = UdpHeader(src_port=1, dst_port=2)
        swapped = call("udpSwap", udp)
        assert (swapped.src_port, swapped.dst_port) == (2, 1)

    def test_udp_mk(self):
        made = call("udpMk", 10, 20)
        assert (made.src_port, made.dst_port) == (10, 20)


class TestBlobPrimitives:
    def test_len_byte_sub_cat(self):
        blob = b"hello"
        assert call("blobLen", blob) == 5
        assert call("blobByte", blob, 1) == ord("e")
        assert call("blobSub", blob, 1, 3) == b"ell"
        assert call("blobCat", blob, b"!") == b"hello!"

    def test_byte_out_of_range(self):
        with pytest.raises(PlanPRuntimeError) as err:
            call("blobByte", b"ab", 5)
        assert err.value.exception_name == "Subscript"

    def test_sub_out_of_range(self):
        with pytest.raises(PlanPRuntimeError):
            call("blobSub", b"abc", 2, 5)

    def test_int_roundtrip(self):
        blob = call("blobWithInt", bytes(8), 2, -12345)
        assert call("blobInt", blob, 2) == -12345
        assert len(blob) == 8

    def test_with_byte(self):
        assert call("blobWithByte", b"abc", 1, ord("X")) == b"aXc"

    def test_string_roundtrip(self):
        assert call("stringOfBlob", call("blobOfString", "hi")) == "hi"

    def test_index(self):
        assert call("blobIndex", b"xxGETxx", "GET") == 2
        assert call("blobIndex", b"xx", "GET") == -1

    def test_empty(self):
        assert call("blobEmpty") == b""


class TestStringPrimitives:
    def test_len_cat_sub(self):
        assert call("strLen", "abc") == 3
        assert call("strCat", "ab", "cd") == "abcd"
        assert call("strSub", "hello", 1, 3) == "ell"

    def test_sub_out_of_range(self):
        with pytest.raises(PlanPRuntimeError):
            call("strSub", "ab", 0, 5)

    def test_index(self):
        assert call("strIndex", "PLAY f", "PLAY ") == 0
        assert call("strIndex", "x", "PLAY") == -1

    def test_field(self):
        assert call("strField", "PLAY movie 9000", 1, " ") == "movie"
        assert call("strField", "a b", 1, " ") == "b"

    def test_field_missing_raises(self):
        with pytest.raises(PlanPRuntimeError) as err:
            call("strField", "a b", 5, " ")
        assert err.value.exception_name == "Subscript"

    def test_int_conversions(self):
        assert call("intToString", -7) == "-7"
        assert call("stringToInt", "42") == 42

    def test_string_to_int_failure(self):
        with pytest.raises(PlanPRuntimeError) as err:
            call("stringToInt", "4x")
        assert err.value.exception_name == "BadInt"

    def test_host_to_string(self):
        assert call("hostToString", HostAddr.parse("1.2.3.4")) == \
            "1.2.3.4"

    def test_char_pos_and_chr(self):
        assert call("charPos", "A") == 65
        assert call("chr", 66) == "B"


class TestTablePrimitives:
    def test_set_get(self):
        table = call("mkTable", 16)
        assert isinstance(table, PlanPTable)
        call("tableSet", table, "k", 7)
        assert call("tableGet", table, "k") == 7

    def test_get_missing_raises_notfound(self):
        with pytest.raises(PlanPRuntimeError) as err:
            call("tableGet", call("mkTable", 4), "k")
        assert err.value.exception_name == "NotFound"

    def test_get_default_and_mem(self):
        table = call("mkTable", 4)
        assert call("tableGetDefault", table, "k", -1) == -1
        assert call("tableMem", table, "k") is False
        call("tableSet", table, "k", 1)
        assert call("tableMem", table, "k") is True

    def test_remove_and_size(self):
        table = call("mkTable", 4)
        call("tableSet", table, "a", 1)
        call("tableSet", table, "b", 2)
        assert call("tableSize", table) == 2
        call("tableRemove", table, "a")
        assert call("tableSize", table) == 1

    def test_type_rule_rejects_non_equality_keys(self):
        with pytest.raises(TypeCheckError, match="equality"):
            rule("tableGet", [T.HashTableType(T.INT),
                              T.HashTableType(T.INT)])

    def test_type_rule_value_type(self):
        assert rule("tableGet",
                    [T.HashTableType(T.HOST), T.INT]) == T.HOST


class TestListPrimitives:
    def test_head_tail_len(self):
        lst = PlanPList((1, 2, 3))
        assert call("listHead", lst) == 1
        assert call("listTail", lst) == PlanPList((2, 3))
        assert call("listLen", lst) == 3

    def test_empty_head_raises(self):
        with pytest.raises(PlanPRuntimeError) as err:
            call("listHead", PlanPList())
        assert err.value.exception_name == "HeadEmpty"

    def test_null_rev_mem(self):
        assert call("listNull", call("listNew")) is True
        assert call("listRev", PlanPList((1, 2))) == PlanPList((2, 1))
        assert call("listMem", 2, PlanPList((1, 2))) is True


class TestAudioPrimitives:
    @staticmethod
    def _pcm_stereo(samples):
        return np.array(samples, dtype="<i2").tobytes()

    def test_stereo_to_mono_averages(self):
        pcm = self._pcm_stereo([100, 200, -50, 50])
        mono = call("audioStereoToMono", pcm)
        assert np.frombuffer(mono, "<i2").tolist() == [150, 0]

    def test_mono_to_stereo_duplicates(self):
        pcm = self._pcm_stereo([7, -7])
        stereo = call("audioMonoToStereo", pcm)
        assert np.frombuffer(stereo, "<i2").tolist() == [7, 7, -7, -7]

    def test_16_to_8_to_16_bounded_error(self):
        samples = [-32768, -256, 0, 255, 1000, 32767]
        pcm = self._pcm_stereo(samples)
        restored = call("audio8to16", call("audio16to8", pcm))
        back = np.frombuffer(restored, "<i2")
        for orig, rest in zip(samples, back):
            assert abs(int(orig) - int(rest)) < 256  # 8-bit quantisation

    def test_sizes_halve(self):
        pcm = self._pcm_stereo(list(range(8)))  # 16 bytes
        assert len(call("audioStereoToMono", pcm)) == 8
        assert len(call("audio16to8", pcm)) == 8

    def test_odd_length_rejected(self):
        with pytest.raises(PlanPRuntimeError) as err:
            call("audio16to8", b"abc")
        assert err.value.exception_name == "BadPacket"

    def test_odd_sample_count_stereo_rejected(self):
        with pytest.raises(PlanPRuntimeError):
            call("audioStereoToMono", b"ab")

    @given(st.lists(st.integers(-32768, 32767), min_size=2, max_size=64)
           .filter(lambda s: len(s) % 2 == 0))
    @settings(max_examples=50, deadline=None)
    def test_degradation_chain_preserves_length_ratios(self, samples):
        pcm = np.array(samples, dtype="<i2").tobytes()
        mono = call("audioStereoToMono", pcm)
        m8 = call("audio16to8", mono)
        assert len(mono) == len(pcm) // 2
        assert len(m8) == len(mono) // 2
        # Restoration returns to the original size.
        restored = call("audioMonoToStereo", call("audio8to16", m8))
        assert len(restored) == len(pcm)


class TestEnvironmentPrimitives:
    def test_this_host_and_time(self):
        ctx = RecordingContext(now_ms=123)
        assert call("thisHost", ctx=ctx) == ctx.host
        assert call("getTime", ctx=ctx) == 123

    def test_link_monitoring(self):
        ctx = RecordingContext(default_bandwidth=2000, default_load=500)
        host = HostAddr.parse("5.5.5.5")
        assert call("linkBandwidth", host, ctx=ctx) == 2000
        assert call("linkLoad", host, ctx=ctx) == 500
        ctx.loads[host] = 999
        assert call("linkLoad", host, ctx=ctx) == 999

    def test_random_is_seeded(self):
        ctx1, ctx2 = RecordingContext(seed=4), RecordingContext(seed=4)
        seq1 = [call("random", 100, ctx=ctx1) for _ in range(8)]
        seq2 = [call("random", 100, ctx=ctx2) for _ in range(8)]
        assert seq1 == seq2  # equal seeds, equal draws
        assert all(0 <= n < 100 for n in seq1)
        assert call("random", 0, ctx=ctx1) == 0  # degenerate bound

    def test_print_and_println(self):
        ctx = RecordingContext()
        call("print", "a", ctx=ctx)
        call("println", 42, ctx=ctx)
        call("println", True, ctx=ctx)
        assert ctx.printed == ["a", "42\n", "true\n"]

    def test_deliver_and_drop_record(self):
        ctx = RecordingContext()
        packet = (IpHeader(), UdpHeader(), b"x")
        call("deliver", packet, ctx=ctx)
        call("drop", packet, ctx=ctx)
        assert [e.kind for e in ctx.emissions] == ["deliver", "drop"]


class TestRegistryIntegrity:
    def test_no_primitive_collides_with_emission_names(self):
        assert "OnRemote" not in PRIMITIVES
        assert "OnNeighbor" not in PRIMITIVES

    def test_may_raise_names_are_known(self):
        from repro.interp.primitives import BUILTIN_EXCEPTIONS

        for prim in PRIMITIVES.values():
            for exn in prim.may_raise:
                assert exn in BUILTIN_EXCEPTIONS

    def test_exit_primitives_flagged(self):
        assert PRIMITIVES["deliver"].is_exit
        assert not PRIMITIVES["drop"].is_exit
