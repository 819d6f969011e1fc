"""Tests for traffic-trace recording and open-loop replay."""

import pytest

from repro import Design, Network, NetworkConfig, VirtualNetwork
from repro.memsys import MemorySystem
from repro.traffic.trace import (
    TraceRecord,
    TraceRecorder,
    TraceReplaySource,
    TrafficTrace,
)
from repro.traffic.synthetic import uniform_random_traffic
from repro.traffic.workloads import WORKLOADS

from conftest import make_network


def small_trace():
    return TrafficTrace(
        [
            TraceRecord(cycle=0, src=0, dst=4, vnet=0, num_flits=2),
            TraceRecord(cycle=3, src=2, dst=6, vnet=2, num_flits=18),
            TraceRecord(cycle=3, src=1, dst=8, vnet=1, num_flits=2),
            TraceRecord(cycle=10, src=5, dst=0, vnet=0, num_flits=2),
        ]
    )


class TestTrafficTrace:
    def test_counts(self):
        trace = small_trace()
        assert len(trace) == 4
        assert trace.total_flits == 24
        assert trace.duration == 11

    def test_empty_trace(self):
        trace = TrafficTrace()
        assert trace.duration == 0
        assert trace.total_flits == 0

    def test_rejects_time_travel(self):
        trace = small_trace()
        with pytest.raises(ValueError, match="time-ordered"):
            trace.append(
                TraceRecord(cycle=5, src=0, dst=1, vnet=0, num_flits=1)
            )

    def test_save_load_roundtrip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        assert loaded.records == trace.records

    def test_record_to_packet(self):
        record = TraceRecord(cycle=7, src=2, dst=5, vnet=2, num_flits=18)
        packet = record.to_packet(created_at=100)
        assert packet.src == 2
        assert packet.vnet is VirtualNetwork.DATA
        assert packet.num_flits == 18
        assert packet.created_at == 100


class TestRecorder:
    def test_records_synthetic_traffic(self):
        net = make_network(Design.BACKPRESSURED)
        recorder = TraceRecorder(net)
        src = uniform_random_traffic(net, 0.3, seed=2)
        src.run(300)
        assert len(recorder.trace) == src.offered_packets
        assert recorder.trace.total_flits == net.stats.flits_injected

    def test_records_closed_loop_traffic(self):
        net = make_network(Design.BACKPRESSURED)
        recorder = TraceRecorder(net)
        system = MemorySystem(net, WORKLOADS["ocean"], seed=2)
        system.run(800)
        assert len(recorder.trace) > 0
        kinds = {r.kind for r in recorder.trace}
        assert "GETS" in kinds or "GETX" in kinds

    def test_detach_stops_recording(self):
        net = make_network(Design.BACKPRESSURED)
        recorder = TraceRecorder(net)
        src = uniform_random_traffic(net, 0.3, seed=2)
        src.run(100)
        count = len(recorder.trace)
        recorder.detach()
        src.run(100)
        assert len(recorder.trace) == count

    def test_two_recorders_coexist(self):
        net = make_network(Design.BACKPRESSURED)
        first = TraceRecorder(net)
        second = TraceRecorder(net)
        src = uniform_random_traffic(net, 0.3, seed=2)
        src.run(100)
        first.detach()
        src.run(100)
        assert 0 < len(first.trace) < len(second.trace)
        assert second.trace.records[: len(first.trace)] == first.trace.records
        assert len(second.trace) == src.offered_packets


class TestReplay:
    def test_replay_delivers_everything(self):
        trace = small_trace()
        net = make_network(Design.AFC)
        replay = TraceReplaySource(net, trace)
        cycles = replay.run_to_completion()
        assert replay.exhausted
        assert net.stats.packets_completed == len(trace)
        assert cycles >= trace.duration
        net.check_flit_conservation()

    def test_replay_offers_at_recorded_cycles(self):
        trace = small_trace()
        net = make_network(Design.BACKPRESSURED)
        replay = TraceReplaySource(net, trace)
        replay.run(1)
        assert net.stats.packets_injected == 1  # only the cycle-0 record
        replay.run(3)
        assert net.stats.packets_injected == 3

    def test_replay_is_relative_to_start_cycle(self):
        trace = small_trace()
        net = make_network(Design.BACKPRESSURED)
        net.run(50)  # replay starts later
        replay = TraceReplaySource(net, trace)
        replay.run(1)
        assert net.stats.packets_injected == 1

    def test_recorded_trace_replays_on_other_design(self):
        """The record -> replay loop the paper's methodology section
        warns about: it runs, but it forces injections open-loop."""
        source_net = make_network(Design.BACKPRESSURED)
        recorder = TraceRecorder(source_net)
        system = MemorySystem(source_net, WORKLOADS["water"], seed=2)
        system.run(600)
        trace = recorder.detach()
        assert len(trace) > 0

        target = make_network(Design.BACKPRESSURELESS)
        replay = TraceReplaySource(target, trace)
        replay.run_to_completion()
        assert target.stats.packets_completed == len(trace)
