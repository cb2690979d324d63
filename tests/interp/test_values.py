"""Run-time value domain tests."""

import pytest
from hypothesis import given, settings

from repro.interp.primitives import OPERATORS
from repro.interp.values import (UNIT, PlanPList, PlanPTable,
                                 default_value, format_value)
from repro.lang import types as T
from repro.net.addresses import HostAddr
from repro.net.packet import IpHeader, TcpHeader, UdpHeader

from ..strategies import values
from ._reference_values import conforms


class TestUnit:
    def test_singleton(self):
        from repro.interp.values import _UnitType

        assert _UnitType() is UNIT

    def test_repr(self):
        assert repr(UNIT) == "()"

    def test_equality(self):
        assert UNIT == UNIT
        assert UNIT != 0


class TestPlanPTable:
    def test_put_get(self):
        table = PlanPTable(4)
        table.put("a", 1)
        assert table.get("a") == 1

    def test_get_missing_raises_keyerror(self):
        with pytest.raises(KeyError):
            PlanPTable(4).get("missing")

    def test_get_default(self):
        table = PlanPTable(4)
        assert table.get_default("x", 9) == 9

    def test_overwrite(self):
        table = PlanPTable(4)
        table.put("a", 1)
        table.put("a", 2)
        assert table.get("a") == 2
        assert len(table) == 1

    def test_capacity_evicts_oldest(self):
        table = PlanPTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.put("c", 3)
        assert len(table) == 2
        assert "a" not in table
        assert table.get("c") == 3

    def test_reinsert_refreshes_age(self):
        table = PlanPTable(2)
        table.put("a", 1)
        table.put("b", 2)
        table.put("a", 10)  # refresh a
        table.put("c", 3)   # evicts b
        assert "a" in table
        assert "b" not in table

    def test_remove_is_idempotent(self):
        table = PlanPTable(2)
        table.put("a", 1)
        table.remove("a")
        table.remove("a")
        assert "a" not in table

    def test_tuple_keys(self):
        table = PlanPTable(8)
        key = (HostAddr.parse("1.2.3.4"), 80)
        table.put(key, "v")
        assert table.get((HostAddr.parse("1.2.3.4"), 80)) == "v"

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanPTable(0)


class TestPlanPList:
    def test_cons_builds_front(self):
        lst = PlanPList().cons(2).cons(1)
        assert lst.items == (1, 2)

    def test_head_tail(self):
        lst = PlanPList((1, 2, 3))
        assert lst.head == 1
        assert lst.tail.items == (2, 3)

    def test_head_of_empty_raises(self):
        with pytest.raises(IndexError):
            PlanPList().head

    def test_reversed(self):
        assert PlanPList((1, 2, 3)).reversed().items == (3, 2, 1)

    def test_equality_and_hash(self):
        assert PlanPList((1, 2)) == PlanPList((1, 2))
        assert hash(PlanPList((1, 2))) == hash(PlanPList((1, 2)))
        assert PlanPList((1,)) != PlanPList((2,))


class TestDefaultValue:
    def test_scalars(self):
        assert default_value(T.INT) == 0
        assert default_value(T.BOOL) is False
        assert default_value(T.STRING) == ""
        assert default_value(T.UNIT) is UNIT

    def test_headers(self):
        assert isinstance(default_value(T.IP), IpHeader)
        assert isinstance(default_value(T.UDP), UdpHeader)

    def test_tuple(self):
        got = default_value(T.TupleType((T.INT, T.BOOL)))
        assert got == (0, False)

    def test_table_and_list(self):
        assert isinstance(default_value(T.HashTableType(T.INT)),
                          PlanPTable)
        assert isinstance(default_value(T.ListType(T.INT)), PlanPList)


class TestConforms:
    def test_int_vs_bool_distinguished(self):
        assert conforms(3, T.INT)
        assert not conforms(True, T.INT)
        assert conforms(True, T.BOOL)

    def test_char_is_one_char_string(self):
        assert conforms("x", T.CHAR)
        assert not conforms("xy", T.CHAR)

    def test_packet_tuple(self):
        ty = T.TupleType((T.IP, T.TCP, T.BLOB))
        value = (IpHeader(), TcpHeader(), b"data")
        assert conforms(value, ty)
        assert not conforms((IpHeader(), UdpHeader(), b""), ty)

    def test_list_elements_checked(self):
        assert conforms(PlanPList((1, 2)), T.ListType(T.INT))
        assert not conforms(PlanPList((1, "x")), T.ListType(T.INT))

    @pytest.mark.parametrize("ty", [
        T.INT, T.BOOL, T.CHAR, T.STRING, T.UNIT, T.HOST, T.BLOB, T.IP,
        T.TCP, T.UDP, T.TupleType((T.IP, T.UDP, T.BLOB)),
        T.ListType(T.ListType(T.INT)), T.HashTableType(T.STRING)])
    def test_generated_values_inhabit_their_type(self, ty):
        """The operand strategy the engine-equivalence properties draw
        from stays inside the value domain."""

        @given(values(ty, key=T.INT))
        @settings(max_examples=30, deadline=None)
        def check(value):
            assert conforms(value, ty)

        check()


class TestFormatValue:
    def test_bools_print_ml_style(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"

    def test_host(self):
        assert format_value(HostAddr.parse("10.0.0.1")) == "10.0.0.1"

    def test_tuple(self):
        assert format_value((1, True)) == "(1, true)"

    def test_blob_summarised(self):
        assert format_value(b"abcd") == "<blob 4B>"

    def test_values_equal_structural(self):
        equal = OPERATORS[2]["="].value
        assert equal((1, "a"), (1, "a"))
        assert not equal((1,), (2,))
        assert equal(PlanPList((1, 2)), PlanPList((1, 2)))
        assert equal(HostAddr.parse("10.0.0.1"), HostAddr.parse("10.0.0.1"))
        assert equal(UNIT, UNIT)
