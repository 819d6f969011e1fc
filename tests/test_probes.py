"""Direct unit tests for repro.analysis.probes.

:func:`channel_utilization` only duck-types ``network.channels`` with
``flit_traversals`` / ``upstream`` / ``downstream``, so it is tested
here against stub channels with hand-picked counts — uniform load must
read as perfectly balanced (imbalance 0) and a hotspot as skewed —
independent of any simulation.  The probe's hook-driven mode
(``attach``/``detach`` over the network's ``cycle_end`` site) and its JSON
export round out the CLI wiring.
"""

import pytest

from repro import Design, Network, NetworkConfig
from repro.analysis.probes import TimeSeriesProbe, channel_utilization
from repro.traffic.synthetic import uniform_random_traffic


class StubChannel:
    def __init__(self, upstream, downstream, traversals):
        self.upstream = upstream
        self.downstream = downstream
        self.flit_traversals = traversals


class StubNetwork:
    def __init__(self, counts):
        self.channels = [
            StubChannel(i, i + 1, count) for i, count in enumerate(counts)
        ]


class TestChannelUtilizationUnit:
    def test_uniform_spread_has_zero_imbalance(self):
        util = channel_utilization(StubNetwork([40, 40, 40, 40]))
        assert util.total_traversals == 160
        assert util.mean_per_channel == 40.0
        assert util.max_per_channel == util.min_per_channel == 40
        assert util.imbalance == 0.0

    def test_hotspot_spread_is_flagged_as_imbalanced(self):
        uniform = channel_utilization(StubNetwork([40, 40, 40, 40]))
        hotspot = channel_utilization(StubNetwork([130, 10, 10, 10]))
        assert hotspot.total_traversals == uniform.total_traversals
        assert hotspot.imbalance > 1.0 > uniform.imbalance
        assert hotspot.max_per_channel == 130
        assert hotspot.min_per_channel == 10

    def test_imbalance_is_coefficient_of_variation(self):
        util = channel_utilization(StubNetwork([10, 30]))
        # mean 20, stddev 10 -> CV 0.5.
        assert util.imbalance == pytest.approx(0.5)

    def test_per_channel_keys_use_endpoint_ids(self):
        util = channel_utilization(StubNetwork([7, 9]))
        assert util.per_channel == {"0->1": 7, "1->2": 9}

    def test_no_channels_raises(self):
        with pytest.raises(ValueError):
            channel_utilization(StubNetwork([]))

    def test_all_idle_has_zero_imbalance(self):
        util = channel_utilization(StubNetwork([0, 0, 0]))
        assert util.total_traversals == 0
        assert util.imbalance == 0.0


class TestProbeHookMode:
    def test_attach_samples_via_post_step_hook(self):
        net = Network(NetworkConfig(), Design.AFC, seed=0)
        probe = TimeSeriesProbe(net, every=50)
        probe.add("throughput", lambda n: n.stats.throughput)
        source = uniform_random_traffic(
            net, 0.2, seed=1, source_queue_limit=100
        )
        with probe:
            assert net.subscribed == ("cycle_end",)
            source.run(300)
        assert not net.subscribed
        assert len(probe) >= 6
        assert len(probe.series["throughput"]) == len(probe.cycles)

    def test_second_hook_coexists(self):
        net = Network(NetworkConfig(), Design.AFC, seed=0)
        seen = []
        net.subscribe("cycle_end", seen.append)
        probe = TimeSeriesProbe(net, every=50)
        probe.add("throughput", lambda n: n.stats.throughput)
        with probe:
            net.run(100)
        assert seen == list(range(100))
        assert len(probe) == 2
        assert net.subscribers("cycle_end") == (seen.append,)

    def test_to_dict_is_json_ready(self):
        net = Network(NetworkConfig(), Design.AFC, seed=0)
        probe = TimeSeriesProbe(net, every=100)
        probe.add_builtin_afc_metrics()
        with probe:
            net.run(250)
        payload = probe.to_dict()
        assert payload["every"] == 100
        assert payload["cycles"] == probe.cycles
        assert set(payload["series"]) == {
            "backpressured_fraction",
            "mean_ewma",
        }
        for series in payload["series"].values():
            assert len(series) == len(payload["cycles"])


class TestProbeJsonlStreaming:
    """Satellite: the probe's streamed JSONL output flushes complete
    lines per sample, so an interrupted run never leaves torn records."""

    def test_jsonl_rows_match_in_memory_series(self, tmp_path):
        from repro.analysis.probes import load_probe_jsonl

        path = tmp_path / "probe.jsonl"
        net = Network(NetworkConfig(), Design.AFC, seed=0)
        probe = TimeSeriesProbe(net, every=50, jsonl_path=str(path))
        probe.add("throughput", lambda n: n.stats.throughput)
        with probe:
            net.run(300)
        loaded = load_probe_jsonl(path)
        assert loaded["cycles"] == probe.cycles
        assert loaded["series"]["throughput"] == probe.series["throughput"]

    def test_every_line_is_complete_mid_run(self, tmp_path):
        """Read the file while the probe still holds it open: every
        line already written must parse — flush-per-sample means a
        reader (or a crash) never observes a partial record."""
        import json

        path = tmp_path / "probe.jsonl"
        net = Network(NetworkConfig(), Design.AFC, seed=0)
        probe = TimeSeriesProbe(net, every=50, jsonl_path=str(path))
        probe.add("throughput", lambda n: n.stats.throughput)
        probe.attach()
        try:
            net.run(200)  # mid-run: file open, no close yet
            lines = path.read_text().splitlines()
            assert lines, "samples must stream before detach"
            for line in lines:
                json.loads(line)  # each line parses on its own
        finally:
            probe.detach()
        assert probe._jsonl_file is None  # detach closed the stream

    def test_torn_tail_is_dropped_by_the_loader(self, tmp_path):
        from repro.analysis.probes import load_probe_jsonl

        path = tmp_path / "probe.jsonl"
        path.write_text(
            '{"cycle":50,"values":{"throughput":0.1}}\n'
            '{"cycle":100,"values":{"throughput":0.2}}\n'
            '{"cycle":150,"values":{"thro'  # the torn tail of a kill
        )
        loaded = load_probe_jsonl(path)
        assert loaded["cycles"] == [50, 100]
        assert loaded["series"]["throughput"] == [0.1, 0.2]
