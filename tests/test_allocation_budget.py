"""Allocation-regression guard for the per-cycle hot path.

The saturation fast path (docs/PERFORMANCE.md) eliminated the per-cycle
temporary lists and dicts of the channel drain, switch allocation and
routing paths.  This test pins that property with ``tracemalloc``: a
saturated 8×8 mesh is warmed into steady state, then traced for a
window of cycles, asserting

* **retained growth per cycle** stays under a recorded budget — live
  simulation state (in-flight flits, reassembly buffers, the latency
  log) legitimately grows, but a regression that *caches* per-cycle
  temporaries (or leaks them) blows well past it; and
* the **transient high-water mark** above the final retained size stays
  under a budget — re-introducing freed-every-cycle churn (e.g. a list
  allocated per channel per cycle) raises the traced peak far above the
  steadily-growing retained line.

Budgets are generous multiples of the measured values (see the table in
docs/PERFORMANCE.md) so the test only fires on order-of-magnitude
regressions, not allocator noise.
"""

import gc
import tracemalloc

import pytest

from repro.analysis.sanitizer import Sanitizer
from repro.faults import FaultInjector, FaultSchedule
from repro.network.config import Design, NetworkConfig
from repro.obs.hub import Observability, ObservabilityOptions
from repro.simulation import SITES, Network
from repro.traffic.synthetic import uniform_random_traffic

WARMUP_CYCLES = 300
MEASURE_CYCLES = 80
RATE = 0.6
#: Measured steady-state retained growth is ~5–8 KiB/cycle (live flits,
#: reassembly state, latency log); budget leaves ~4x headroom.
RETAINED_BUDGET_PER_CYCLE = 32 * 1024
#: Measured transient high-water above the final retained size is under
#: ~8 KiB for the whole window; one cycle of reintroduced channel-drain
#: churn alone (a few hundred channels × a list each) would exceed this.
TRANSIENT_BUDGET = 128 * 1024


def _trace_steady_state(
    design: Design,
    with_injector: bool = False,
    with_detached_sanitizer: bool = False,
    with_detached_observability: bool = False,
    with_every_site_unsubscribed: bool = False,
    engine: str = "active",
):
    net = Network(
        NetworkConfig(width=8, height=8), design, seed=1, engine=engine
    )
    if with_injector:
        FaultInjector(net, FaultSchedule.empty())
    if with_detached_sanitizer:
        # Attach-then-detach must leave the zero-overhead fast path:
        # no subscriber left, nothing retained per cycle.
        Sanitizer(net).attach().detach()
        assert not net.subscribed
    if with_detached_observability:
        # Same contract for the observability hub: after detach no
        # subscriber is left and no wrapper shadows a method.
        observer = Observability(
            net,
            ObservabilityOptions(trace=True, metrics=True, profile=True),
        )
        observer.attach()
        observer.detach()
        assert not net.subscribed
        assert "step" not in vars(net)
    if with_every_site_unsubscribed:
        # Two subscribers at every site, removed again: every fanned-out
        # slot must be back to ``None``, not an empty tuple.
        first, second = (lambda *args: True), (lambda *args: True)
        for site in SITES:
            net.subscribe(site, first)
            net.subscribe(site, second)
        assert net.subscribed == tuple(SITES)
        for site in SITES:
            net.unsubscribe(site, first)
            net.unsubscribe(site, second)
        assert not net.subscribed
        assert net._cycle_start is None and net._cycle_end is None
        for ni in net.interfaces:
            assert ni.on_offer is ni.guard is ni.on_complete is ni.obs is None
        assert all(r.obs is None for r in net.routers)
    source = uniform_random_traffic(
        net, RATE, seed=7, source_queue_limit=32
    )
    source.run(WARMUP_CYCLES)
    if engine == "vector":
        # Guard against silently measuring the scalar fallback.
        assert net.engine == "vector", net.vector_fallback_reason
    gc.collect()
    tracemalloc.start(1)
    try:
        gc.collect()
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        source.run(MEASURE_CYCLES)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained_per_cycle = (current - base) / MEASURE_CYCLES
    transient = peak - current
    return retained_per_cycle, transient


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_steady_state_allocations_within_budget(design):
    retained_per_cycle, transient = _trace_steady_state(design)
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}: retained {retained_per_cycle:.0f} B/cycle "
        f"exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget — "
        "per-cycle state is being cached or leaked"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}: transient high-water {transient:.0f} B above "
        f"final retained exceeds the {TRANSIENT_BUDGET} B budget — "
        "per-cycle temporary churn has returned to the hot path"
    )


def test_vector_engine_steady_state_within_same_budget():
    """The vectorized batch step fits the *same* budgets as the scalar
    engines.  Its numpy pass temporaries (masks, gathers, the per-cycle
    candidate matrices) are freed within the cycle, so they show up only
    in the transient high-water mark — measured ~40 KiB for the whole
    window, well inside the shared budget — while retained growth stays
    the same live-flit/latency-log line the scalar engines have."""
    retained_per_cycle, transient = _trace_steady_state(
        Design.BACKPRESSURELESS, engine="vector"
    )
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"vector: retained {retained_per_cycle:.0f} B/cycle exceeds the "
        f"{RETAINED_BUDGET_PER_CYCLE} B/cycle budget — a numpy buffer is "
        "being reallocated (and cached) per cycle instead of reused"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"vector: transient high-water {transient:.0f} B exceeds the "
        f"{TRANSIENT_BUDGET} B budget — the batch passes are allocating "
        "far more per-cycle scratch than the recorded steady state"
    )


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_disabled_faults_hot_path_within_same_budget(design):
    """An installed-but-idle fault injector (empty schedule, protection
    enabled) must fit the *same* budgets as the bare network: its hooks
    are a ledger insert/pop per packet and constant-work per-cycle
    checks, never per-cycle allocations."""
    retained_per_cycle, transient = _trace_steady_state(
        design, with_injector=True
    )
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}+injector: retained {retained_per_cycle:.0f} "
        f"B/cycle exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget "
        "— the disabled-faults path is allocating per cycle"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}+injector: transient high-water {transient:.0f} B "
        f"exceeds the {TRANSIENT_BUDGET} B budget — the disabled-faults "
        "path has added per-cycle churn"
    )


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.AFC],
    ids=lambda d: d.value,
)
def test_detached_sanitizer_hot_path_within_same_budget(design):
    """A sanitizer that was attached and detached again must leave the
    per-cycle path exactly as it found it: ``cycle_start`` has no
    subscriber, so the engine's ``is not None`` guard is the only trace
    and the run fits the *same* allocation budgets as a bare network."""
    retained_per_cycle, transient = _trace_steady_state(
        design, with_detached_sanitizer=True
    )
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}+sanitizer-off: retained {retained_per_cycle:.0f} "
        f"B/cycle exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget "
        "— the sanitizer-off path is allocating per cycle"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}+sanitizer-off: transient high-water "
        f"{transient:.0f} B exceeds the {TRANSIENT_BUDGET} B budget — "
        "the sanitizer-off path has added per-cycle churn"
    )


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.BACKPRESSURELESS, Design.AFC],
    ids=lambda d: d.value,
)
def test_subscribed_then_unsubscribed_steps_within_same_budget(design):
    """A network that had subscribers at every event site and lost them
    all again steps within the *same* budgets as one never touched:
    ``unsubscribe`` restores ``None`` in every slot, so no site is left
    iterating an empty tuple or holding a stale subscriber."""
    retained_per_cycle, transient = _trace_steady_state(
        design, with_every_site_unsubscribed=True
    )
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}+unsubscribed: retained {retained_per_cycle:.0f} "
        f"B/cycle exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}+unsubscribed: transient high-water "
        f"{transient:.0f} B exceeds the {TRANSIENT_BUDGET} B budget"
    )


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.AFC],
    ids=lambda d: d.value,
)
def test_detached_observability_hot_path_within_same_budget(design):
    """Observability attached and detached again (trace + metrics +
    profiler) must leave the per-cycle path exactly as it found it: no
    subscriber left, wrapped stage methods restored to the
    class originals, and the run fitting the *same* allocation budgets
    as a never-observed network."""
    retained_per_cycle, transient = _trace_steady_state(
        design, with_detached_observability=True
    )
    assert retained_per_cycle < RETAINED_BUDGET_PER_CYCLE, (
        f"{design.value}+obs-off: retained {retained_per_cycle:.0f} "
        f"B/cycle exceeds the {RETAINED_BUDGET_PER_CYCLE} B/cycle budget "
        "— the observability-off path is allocating per cycle"
    )
    assert transient < TRANSIENT_BUDGET, (
        f"{design.value}+obs-off: transient high-water {transient:.0f} B "
        f"exceeds the {TRANSIENT_BUDGET} B budget — the observability-off "
        "path has added per-cycle churn"
    )


@pytest.mark.parametrize(
    "design",
    [Design.BACKPRESSURED, Design.AFC_ALWAYS_BACKPRESSURED],
    ids=lambda d: d.value,
)
def test_low_load_steady_state_builds_no_credit_message(design, monkeypatch):
    """Credits are interned (``repro.network.link.credit_message``):
    once the handful of distinct messages exists, a cycle returns
    credits without constructing a single ``CreditMessage`` — at rate
    0.05, where a credit used to be built for every flit hop."""
    from repro.network import link

    built = []
    real_init = link.CreditMessage.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(link.CreditMessage, "__init__", counting_init)
    net = Network(NetworkConfig(width=8, height=8), design, seed=1)
    source = uniform_random_traffic(net, 0.05, seed=7)
    source.run(WARMUP_CYCLES)
    credit_pj = net.energy.totals.credit
    built.clear()
    source.run(MEASURE_CYCLES)
    assert net.energy.totals.credit > credit_pj  # credits did flow
    assert built == []
