"""Fault-injection layer: directive parsing, socket faults, framing.

The fault plan is only useful if it is *deterministic* — the same
directive string must produce the same failure at the same point every
run — so these tests pin the grammar, the one-shot firing semantics,
and the socket-level behaviours the chaos suite builds on. The
``FrameDecoder`` adversarial cases live here too: fault-injected
partial writes and corrupted frames are exactly the deliveries the
decoder must survive.
"""

import socket

import pytest

from repro.distributed.faults import (
    PLAN_ENV,
    FaultPlan,
    FaultRule,
    FaultySocket,
)
from repro.distributed.framing import (
    KIND_ACK,
    KIND_BYE,
    KIND_SUMMARY,
    FrameDecoder,
    encode_frame,
    encode_json_frame,
)
from repro.errors import FaultPlanError, ReproError, SummaryFormatError


class TestDirectiveParsing:
    def test_full_grammar_round_trip(self):
        plan = FaultPlan.parse(
            "reader, worker:0, worker:1:hard, worker:2:midslot@1, "
            "sever:mon-a:3, blackhole:mon-b:0, delay-ack:mon-c:0.05, "
            "corrupt:mon-d:2"
        )
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == [
            "reader-crash",
            "worker-crash",
            "worker-crash",
            "worker-crash",
            "sever",
            "blackhole",
            "delay-ack",
            "corrupt",
        ]
        assert plan.reader_crash()
        assert plan.worker_crash(0) == "clean"
        assert plan.worker_crash(1) == "hard"
        # incarnation-scoped: fires at incarnation 1 only
        assert plan.worker_crash(2) is None
        assert plan.worker_crash(2, incarnation=1) == "midslot"
        assert plan.ack_delay("mon-c") == pytest.approx(0.05)
        assert plan.ack_delay("mon-a") == 0.0

    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert FaultPlan.parse("").is_empty
        assert FaultPlan.parse("  , ,").is_empty
        assert FaultPlan().client_state("mon-a") is None
        assert FaultPlan().worker_crash(0) is None

    @pytest.mark.parametrize(
        "directive",
        [
            "worker",
            "worker:x",
            "worker:0:sideways",
            "worker:0:hard:extra",
            "reader:0",
            "sever:mon-a",
            "sever:mon-a:soon",
            "delay-ack:mon-a",
            "delay-ack:mon-a:fast",
            "corrupt:mon-a:two",
            "worker:0@soon",
            "explode:mon-a:1",
        ],
    )
    def test_bad_directives_raise(self, directive):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(directive)

    def test_fault_plan_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            FaultPlan.parse("explode")
        with pytest.raises(ValueError):
            FaultPlan.parse("explode")

    def test_from_env_reads_the_plan_variable(self):
        env = {PLAN_ENV: "sever:mon-a:3,worker:1:hard"}
        plan = FaultPlan.from_env(env)
        assert {rule.kind for rule in plan.rules} == {
            "sever",
            "worker-crash",
        }
        assert FaultPlan.from_env({}).is_empty

    def test_plans_are_immutable_and_picklable(self):
        import pickle

        plan = FaultPlan.parse("worker:0:midslot,sever:m:1", seed=3)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        with pytest.raises(AttributeError):
            plan.seed = 4


class TestClientFaultState:
    def frames(self, state, count):
        return [state.on_send(b"frame")[0] for _ in range(count)]

    def test_sever_fires_once_at_threshold(self):
        state = FaultPlan.parse("sever:m:2").client_state("m")
        assert self.frames(state, 5) == [
            "send",
            "send",
            "sever",
            "send",
            "send",
        ]

    def test_blackhole_swallows_everything_after(self):
        state = FaultPlan.parse("blackhole:m:1").client_state("m")
        assert self.frames(state, 4) == ["send", "drop", "drop", "drop"]

    def test_corrupt_flips_the_kind_tag_once(self):
        state = FaultPlan.parse("corrupt:m:1").client_state("m")
        action, data = state.on_send(b"AAAA")
        assert (action, data) == ("send", b"AAAA")
        action, data = state.on_send(b"AAAA")
        assert action == "send"
        assert data == bytes([ord("A") ^ 0xFF]) + b"AAA"
        assert state.on_send(b"AAAA") == ("send", b"AAAA")

    def test_state_is_scoped_to_the_monitor(self):
        plan = FaultPlan.parse("sever:m1:0,corrupt:m2:0")
        state = plan.client_state("m1")
        assert [rule.kind for rule in state.rules] == ["sever"]
        assert plan.client_state("nobody") is None


class TestFaultySocket:
    def pair(self, directives, monitor="m"):
        left, right = socket.socketpair()
        state = FaultPlan.parse(directives).client_state(monitor)
        return FaultySocket(left, state), left, right

    def test_sever_closes_and_raises(self):
        faulty, left, right = self.pair("sever:m:1")
        with right:
            faulty.sendall(b"one")
            assert right.recv(16) == b"one"
            with pytest.raises(ConnectionError, match="injected"):
                faulty.sendall(b"two")
            assert left.fileno() == -1  # really closed, not wedged

    def test_blackhole_drops_bytes_silently(self):
        faulty, left, right = self.pair("blackhole:m:0")
        with left, right:
            faulty.sendall(b"gone")
            right.settimeout(0.1)
            with pytest.raises(TimeoutError):
                right.recv(16)

    def test_reads_pass_through_untouched(self):
        faulty, left, right = self.pair("sever:m:99")
        with left, right:
            right.sendall(b"pong")
            faulty.settimeout(1.0)
            assert faulty.recv(16) == b"pong"


class TestFrameDecoderAdversarial:
    def wire(self):
        return (
            encode_json_frame(KIND_ACK, {"cell": 0, "status": "ok"})
            + encode_frame(KIND_SUMMARY, b"x" * 200)
            + encode_frame(KIND_BYE)
        )

    def test_byte_at_a_time_delivery(self):
        data = self.wire()
        decoder = FrameDecoder()
        frames = []
        for index in range(len(data)):
            frames.extend(decoder.feed(data[index : index + 1]))
        assert [kind for kind, _ in frames] == [
            KIND_ACK,
            KIND_SUMMARY,
            KIND_BYE,
        ]
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_partial_write_boundaries(self, seed):
        import random

        data = self.wire()
        rng = random.Random(seed)
        decoder = FrameDecoder()
        frames, offset = [], 0
        while offset < len(data):
            step = rng.randint(1, 17)
            frames.extend(decoder.feed(data[offset : offset + step]))
            offset += step
        assert len(frames) == 3
        assert frames[1][1] == b"x" * 200
        assert decoder.pending_bytes == 0

    def test_truncated_tail_is_buffered_not_raised(self):
        data = self.wire()
        decoder = FrameDecoder()
        frames = decoder.feed(data[:-3])  # BYE header cut short
        assert len(frames) == 2
        assert decoder.pending_bytes == 2
        # the rest arrives: the frame completes
        assert decoder.feed(data[-3:]) == [(KIND_BYE, b"")]

    def test_corrupt_kind_tag_raises_immediately(self):
        data = bytearray(self.wire())
        data[0] ^= 0xFF
        with pytest.raises(SummaryFormatError, match="unknown frame"):
            FrameDecoder().feed(bytes(data))

    def test_absurd_length_field_raises(self):
        import struct

        header = struct.pack(">cI", KIND_SUMMARY, 1 << 30)
        with pytest.raises(SummaryFormatError, match="limit"):
            FrameDecoder().feed(header)

    def test_faulty_socket_corruption_is_caught_by_decoder(self):
        """End to end: the corrupt fault produces a frame the
        collector's decoder provably rejects."""
        state = FaultPlan.parse("corrupt:m:0").client_state("m")
        _, data = state.on_send(encode_frame(KIND_SUMMARY, b"payload"))
        with pytest.raises(SummaryFormatError, match="unknown frame"):
            FrameDecoder().feed(data)


class TestFaultRuleDefaults:
    def test_rule_defaults(self):
        rule = FaultRule(kind="sever", target="m")
        assert (rule.mode, rule.after, rule.delay, rule.incarnation) == (
            "clean",
            0,
            0.0,
            0,
        )
