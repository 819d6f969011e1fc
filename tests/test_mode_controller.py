"""Unit tests for the AFC mode controller (EWMA + FSM)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ContentionThresholds, Mode, ModeController
from repro.network.stats import RouterModeStats


def controller(high=2.0, low=1.0, link_latency=2, **kwargs):
    return ModeController(
        thresholds=ContentionThresholds(high=high, low=low),
        link_latency=link_latency,
        **kwargs,
    )


class TestEwma:
    def test_initially_zero(self):
        assert controller().ewma == 0.0

    def test_single_update_formula(self):
        c = controller(ewma_alpha=0.99)
        c.record_load(4)
        # window average is 4 (one sample), m = 0.99*0 + 0.01*4
        assert c.ewma == pytest.approx(0.04)

    def test_window_averaging(self):
        c = controller(ewma_alpha=0.5, load_window=4)
        for load in (0, 0, 4, 4):
            c.record_load(load)
        # last update: window = [0,0,4,4] -> avg 2
        # m3 = 0.5*m2 + 0.5*2 where m2 = 0.5*m1 + 0.5*(4/3), ...
        m = 0.0
        window = []
        for load in (0, 0, 4, 4):
            window.append(load)
            window = window[-4:]
            m = 0.5 * m + 0.5 * (sum(window) / len(window))
        assert c.ewma == pytest.approx(m)

    def test_window_is_bounded(self):
        c = controller(ewma_alpha=0.01, load_window=4)
        for _ in range(100):
            c.record_load(8)
        # converges to the sustained load
        assert c.ewma == pytest.approx(8.0, rel=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(loads=st.lists(st.integers(0, 10), min_size=1, max_size=200))
    def test_ewma_bounded_by_load_range(self, loads):
        c = controller(ewma_alpha=0.9)
        for load in loads:
            c.record_load(load)
        assert 0.0 <= c.ewma <= max(loads)

    def test_smoothing_suppresses_single_burst(self):
        """Section III-B: EWMA avoids mode switches on transient bursts."""
        c = controller(high=2.0, low=1.0, ewma_alpha=0.99)
        for _ in range(50):
            c.record_load(1)
        c.record_load(100)  # one-cycle burst
        assert not c.wants_forward()


class TestTransitions:
    def test_initial_mode(self):
        assert controller().mode is Mode.BACKPRESSURELESS
        c = controller(initial_mode=Mode.BACKPRESSURED)
        assert c.mode is Mode.BACKPRESSURED

    def test_cannot_start_in_transition(self):
        with pytest.raises(ValueError):
            controller(initial_mode=Mode.TRANSITION)

    def test_forward_switch_window(self):
        c = controller(link_latency=2)
        assert c.transition_window == 5  # 2L + 1
        c.begin_forward(cycle=100)
        assert c.mode is Mode.TRANSITION
        c.maybe_complete_forward(104)
        assert c.mode is Mode.TRANSITION
        c.maybe_complete_forward(105)
        assert c.mode is Mode.BACKPRESSURED

    def test_forward_requires_backpressureless(self):
        c = controller()
        c.begin_forward(cycle=0)
        with pytest.raises(RuntimeError):
            c.begin_forward(cycle=1)

    def test_reverse_is_immediate(self):
        c = controller(initial_mode=Mode.BACKPRESSURED)
        c.begin_reverse()
        assert c.mode is Mode.BACKPRESSURELESS

    def test_reverse_requires_backpressured(self):
        c = controller()
        with pytest.raises(RuntimeError):
            c.begin_reverse()

    def test_deflecting_property(self):
        assert Mode.BACKPRESSURELESS.deflecting
        assert Mode.TRANSITION.deflecting
        assert not Mode.BACKPRESSURED.deflecting


class TestPolicy:
    def test_wants_forward_above_high(self):
        c = controller(high=2.0, low=1.0, ewma_alpha=0.01)
        for _ in range(100):
            c.record_load(3)
        assert c.wants_forward()

    def test_hysteresis_band_holds_mode(self):
        """Between low and high, the current mode is kept (Section III-C)."""
        c = controller(high=2.0, low=1.0, ewma_alpha=0.01)
        for _ in range(100):
            c.record_load(2)  # converges to ~1.5: inside the band
        c.record_load(1)
        assert not c.wants_forward()
        c.mode = Mode.BACKPRESSURED
        assert not c.wants_reverse(buffers_empty=True)

    def test_reverse_needs_empty_buffers(self):
        c = controller(high=2.0, low=1.0, initial_mode=Mode.BACKPRESSURED)
        assert c.ewma < 1.0
        assert not c.wants_reverse(buffers_empty=False)
        assert c.wants_reverse(buffers_empty=True)

    def test_non_adaptive_never_wants_switches(self):
        c = controller(adaptive=False, initial_mode=Mode.BACKPRESSURED)
        assert not c.wants_reverse(buffers_empty=True)
        c2 = controller(adaptive=False)
        for _ in range(100):
            c2.record_load(50)
        assert not c2.wants_forward()


class TestResidency:
    def test_charge_covers_the_cycles_since_the_last_charge(self):
        c = controller()
        entry = RouterModeStats()
        c.charge_residency(entry, through=0)
        c.begin_forward(cycle=1)
        c.charge_residency(entry, through=1)
        c.maybe_complete_forward(1 + c.transition_window)
        c.charge_residency(entry, through=2)
        assert entry.backpressureless_cycles == 1
        assert entry.transition_cycles == 1
        assert entry.backpressured_cycles == 1


class TestBatchedDecay:
    """``idle_catch_up`` replays idle cycles in a batch; the replay must
    be bit-identical to the eager per-cycle updates it stands for."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        ewma=st.one_of(
            st.floats(0.0, 1e3),
            st.floats(0.0, 2.2250738585072014e-308),  # subnormals
        ),
        alpha=st.floats(0.0, 1.0, exclude_max=True),
        k=st.integers(0, 5000),
    )
    def test_product_form_is_the_eager_loop(self, ewma, alpha, k):
        import math
        from itertools import repeat

        eager = ewma
        for _ in range(k):
            eager = alpha * eager + (1.0 - alpha) * 0.0
        batched = math.prod(repeat(alpha, k), start=ewma)
        assert batched.hex() == eager.hex()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        window=st.integers(1, 6),
        alpha=st.floats(0.0, 1.0, exclude_max=True),
        history=st.lists(st.integers(0, 12), max_size=20),
        k=st.integers(0, 60),
    )
    def test_catch_up_matches_eager_idle_cycles(
        self, window, alpha, history, k
    ):
        """From any ring state — partly filled, any wrap position,
        non-zero samples still draining — ``idle_catch_up(k)`` leaves
        the EWMA, the ring and the running load as ``k`` eager
        ``record_load(0)`` calls do."""
        eager = controller(load_window=window, ewma_alpha=alpha)
        batched = controller(load_window=window, ewma_alpha=alpha)
        for load in history:
            eager.record_load(load)
            batched.record_load(load)
        for _ in range(k):
            eager.record_load(0)
        batched.idle_catch_up(k)
        assert batched.ewma.hex() == eager.ewma.hex()
        assert batched._ring == eager._ring
        assert batched._pos == eager._pos
        assert batched._fill == eager._fill
        assert batched._load == eager._load == sum(eager._ring)
        assert batched.window == eager.window

    def test_record_load_keeps_the_last_samples_oldest_first(self):
        c = controller(load_window=3)
        for load in (1, 2, 3, 4, 5):
            c.record_load(load)
        assert c.window == [3, 4, 5]
        assert c._load == 12
