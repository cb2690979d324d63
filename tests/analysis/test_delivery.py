"""Guaranteed-delivery analysis tests."""

import pytest

from repro.analysis import check_delivery
from repro.lang import VerificationError, parse, typecheck


def check(source: str):
    return typecheck(parse(source))


def rejected(source: str, pattern: str):
    with pytest.raises(VerificationError, match=pattern) as err:
        check_delivery(check(source))
    assert err.value.analysis == "delivery"


class TestAlwaysExits:
    def test_forward_passes(self):
        report = check_delivery(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps, ss))"))
        assert report.exits_verified == 1

    def test_deliver_counts_as_exit(self):
        check_delivery(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(deliver(p); (ps, ss))"))

    def test_silent_path_rejected(self):
        rejected(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpDst(#2 p) = 7 then (ps, ss) "
            "else (OnRemote(network, p); (ps, ss))",
            "neither forwards nor delivers")

    def test_both_branches_emit_passes(self):
        check_delivery(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpDst(#2 p) = 7 then (deliver(p); (ps, ss)) "
            "else (OnRemote(network, p); (ps, ss))"))

    def test_emit_in_condition_counts(self):
        check_delivery(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); "
            "(if ps > 0 then ps else 0 - ps, ss))"))

    def test_emission_inside_fun_counts(self):
        check_delivery(check(
            "fun fwd(p : ip*tcp*blob) : unit = OnRemote(network, p)\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(fwd(p); (ps, ss))"))

    def test_emission_only_in_one_fun_branch_rejected(self):
        rejected(
            "fun maybe(p : ip*tcp*blob, b : bool) : unit = "
            "if b then OnRemote(network, p) else ()\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(maybe(p, tcpSyn(#2 p)); (ps, ss))",
            "neither forwards")


class TestDrops:
    def test_explicit_drop_rejected(self):
        rejected(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "if tcpDst(#2 p) = 7 then (drop(p); deliver(p); (ps, ss)) "
            "else (OnRemote(network, p); (ps, ss))",
            "intentionally drops")

    def test_drop_inside_fun_rejected(self):
        rejected(
            "fun toss(p : ip*tcp*blob) : unit = drop(p)\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(toss(p); OnRemote(network, p); (ps, ss))",
            "intentionally drops")


class TestUnhandledExceptions:
    def test_unguarded_blob_access_rejected(self):
        rejected(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (blobByte(#3 p, 0), ss))",
            "Subscript")

    def test_guarded_blob_access_passes(self):
        check_delivery(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); "
            "(try blobByte(#3 p, 0) handle Subscript => 0, ss))"))

    def test_wildcard_handler_covers_everything(self):
        check_delivery(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); "
            "(try blobByte(#3 p, 0) + stringToInt(stringOfBlob(#3 p)) "
            "handle _ => 0, ss))"))

    def test_wrong_handler_rejected(self):
        rejected(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); "
            "(try blobByte(#3 p, 0) handle NotFound => 0, ss))",
            "Subscript")

    def test_division_by_literal_nonzero_is_safe(self):
        check_delivery(check(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (ps / 2, ss))"))

    def test_division_by_variable_needs_handler(self):
        rejected(
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (1 / ps, ss))",
            "DivideByZero")

    def test_user_raise_needs_handler(self):
        rejected(
            "exception Boom\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); "
            "(if ps > 9 then raise Boom else ps, ss))",
            "Boom")

    def test_exception_in_fun_propagates_to_channel(self):
        rejected(
            "fun risky(b : blob) : int = blobByte(b, 0)\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); (risky(#3 p), ss))",
            "Subscript")

    def test_handler_around_fun_call_passes(self):
        check_delivery(check(
            "fun risky(b : blob) : int = blobByte(b, 0)\n"
            "channel network(ps : int, ss : unit, p : ip*tcp*blob) is "
            "(OnRemote(network, p); "
            "(try risky(#3 p) handle Subscript => 0, ss))"))

    def test_initstate_exceptions_checked(self):
        rejected(
            "channel network(ps : int, ss : int, p : ip*tcp*blob) "
            "initstate stringToInt(\"x\") is "
            "(OnRemote(network, p); (ps, ss))",
            "BadInt")


def doubling_chain(depth: int, bottom: str) -> str:
    """``f_i(p) = (f_{i-1}(p); f_{i-1}(p))`` over ``f_1(p) = bottom``:
    one line per function, 2^(depth-1) calls of ``f_1`` if unfolded."""
    lines = [f"fun f1(p : ip*blob) : unit = {bottom}"]
    lines += [f"fun f{i}(p : ip*blob) : unit = (f{i - 1}(p); f{i - 1}(p))"
              for i in range(2, depth + 1)]
    lines.append(f"channel network(ps : int, ss : unit, p : ip*blob) is "
                 f"(f{depth}(p); OnRemote(network, p); (ps, ss))")
    return "\n".join(lines)


class TestCallChains:
    """The analysis asks each question of a ``fun`` body once.  It used
    to re-analyse a callee at every call site, so a 40-line download of
    doubling helpers would have taken 2^39 body walks: the verifier hung
    on a program it should refuse or accept in microseconds."""

    @staticmethod
    def spy_on_bodies(monkeypatch, info):
        """Fail on the second analysis of any function body by any
        method that takes one: ``scan`` (escapes and drops in one walk)
        and ``always_exits``, or the separate ``escaping`` and
        ``drop_sites`` walks of an analysis that has those instead."""
        from repro.analysis.delivery import DeliveryAnalysis

        bodies = {id(f.decl.body): name for name, f in info.funs.items()}
        seen = set()
        for method in ("scan", "escaping", "drop_sites", "always_exits"):
            original = getattr(DeliveryAnalysis, method, None)
            if original is None:
                continue

            def spy(self, expr, _original=original, _method=method):
                name = bodies.get(id(expr))
                if name is not None:
                    assert (_method, name) not in seen, \
                        f"{_method} analysed the body of {name} twice"
                    seen.add((_method, name))
                return _original(self, expr)

            monkeypatch.setattr(DeliveryAnalysis, method, spy)
        return seen

    def test_each_function_body_is_analysed_once(self, monkeypatch):
        info = check(doubling_chain(40, "print(\"x\")"))
        seen = self.spy_on_bodies(monkeypatch, info)
        assert check_delivery(info).exits_verified == 1
        assert {name for _, name in seen} == set(info.funs)

    def test_a_drop_at_the_bottom_is_named_once(self, monkeypatch):
        info = check(doubling_chain(40, "drop(p)"))
        self.spy_on_bodies(monkeypatch, info)
        with pytest.raises(VerificationError,
                           match=r"intentionally drops packets \(line 1\)"):
            check_delivery(info)
