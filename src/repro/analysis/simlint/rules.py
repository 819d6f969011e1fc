"""Rule registry and configuration for the ``simlint`` static pass.

Every rule has a stable kebab-case id (used in reports, in
``# simlint: disable=<id>`` / ``# simlint: disable-file=<id>``
suppressions, and as the SARIF ``ruleId``) and a *scope* that limits
where it applies:

* ``all`` — every linted file.  Determinism hazards are never
  acceptable in simulation code, wherever they live.
* ``network`` — router/network/core modules and ``simulation.py``
  only (matched by path, see :attr:`LintConfig.network_path_markers`).
  Iteration-order hazards only corrupt results where per-cycle
  iteration order feeds the simulation, so harness/analysis code is
  exempt.
* ``service`` — the asyncio experiment service
  (:attr:`LintConfig.service_path_markers`): async/fork-safety rules
  for code that runs coroutines in the server process and forks seed
  workers.
* ``engine`` — the vectorized batch engine
  (:attr:`LintConfig.engine_path_markers`): numpy hot-path hygiene
  and dtype bit-identity rules.
* ``hotpath`` — classes registered in the hot-path allowlist
  (:attr:`LintConfig.hot_path_classes`) or marked in source with a
  ``# simlint: hot-path`` comment on their ``class`` line.

The rule table in docs/ANALYSIS.md is *generated* from this registry
(``python scripts/gen_rule_table.py``) and CI checks it is in sync,
so :attr:`Rule.rationale` is the single source of truth for what each
rule catches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple

#: Scope names understood by the engine.
SCOPE_ALL = "all"
SCOPE_NETWORK = "network"
SCOPE_SERVICE = "service"
SCOPE_ENGINE = "engine"
SCOPE_HOTPATH = "hotpath"


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule."""

    id: str
    scope: str
    summary: str
    #: Long-form "what it catches" text; rendered into the
    #: docs/ANALYSIS.md rule table by scripts/gen_rule_table.py and
    #: into the SARIF ``fullDescription``.
    rationale: str = ""


#: The rule registry, in reporting order.
RULES: Tuple[Rule, ...] = (
    Rule(
        "unseeded-random",
        SCOPE_ALL,
        "random.Random() constructed without an explicit seed",
        "`random.Random()` constructed without a seed. Every RNG stream "
        "must derive from the run configuration (`seed=...`), or reruns "
        "are not reproducible.",
    ),
    Rule(
        "module-random",
        SCOPE_ALL,
        "module-level random.* used (shared global RNG stream)",
        "`random.choice(...)`, `from random import shuffle`, … — the "
        "module-level functions share one global stream, so any "
        "import-order or call-order change silently reseeds every "
        "consumer.",
    ),
    Rule(
        "numpy-random",
        SCOPE_ALL,
        "numpy.random used (global or platform-dependent RNG state)",
        "`np.random.*` or `import numpy.random` — global RNG state "
        "again, plus platform-dependent generators.",
    ),
    Rule(
        "numpy-unseeded-generator",
        SCOPE_ALL,
        "np.random generator constructed without an explicit seed",
        "`np.random.default_rng()` / `np.random.Generator(...)` "
        "constructed without arguments — OS-entropy seeding is "
        "nondeterministic across runs. A *seeded* `default_rng(seed)` "
        "is the numpy idiom the rule steers toward and is exempt from "
        "`numpy-random`.",
    ),
    Rule(
        "wallclock",
        SCOPE_ALL,
        "time/datetime/os.urandom used in simulation code",
        "`import time` / `import datetime` / `os.urandom` — wall-clock "
        "and entropy inputs have no place in simulation code; cycle "
        "counts are the only clock.",
    ),
    Rule(
        "set-iteration",
        SCOPE_NETWORK,
        "iteration over a set (hash order) in router/network code",
        "`for x in some_set` (or a comprehension over one) in "
        "router/network/core modules — hash order varies between "
        "processes, so per-cycle iteration order would feed "
        "nondeterminism straight into arbitration.",
    ),
    Rule(
        "dict-mutation",
        SCOPE_NETWORK,
        "container mutated while being iterated",
        "deleting/`pop`/`update`-ing a container inside a loop "
        "iterating it — a `RuntimeError` at best, order-dependent "
        "behaviour at worst.",
    ),
    Rule(
        "float-equality",
        SCOPE_ALL,
        "float compared with == / != (threshold/EWMA hazards)",
        "`==` / `!=` where an operand is provably a float (literal, "
        "`: float` annotation, or float-assigned name) — the "
        "EWMA/threshold comparisons in the mode controller must use "
        "orderings with hysteresis, never exact equality.",
    ),
    # -- project pass: RNG taint (dataflow) ----------------------------
    Rule(
        "rng-tainted-iteration",
        SCOPE_NETWORK,
        "iteration over a container keyed/filled by RNG-derived values",
        "dataflow (project pass): a value derived from a "
        "`random.Random` / `default_rng` stream lands in a set or dict "
        "key whose container is then iterated — even a *seeded* stream "
        "makes the iteration order depend on `PYTHONHASHSEED`, which "
        "silently breaks cross-process bit-identity.",
    ),
    Rule(
        "rng-tainted-float-eq",
        SCOPE_ALL,
        "RNG-derived float compared with == / !=",
        "dataflow (project pass): a float drawn from an RNG stream "
        "(`rng.random()`, `rng.uniform(...)`, `gen.normal(...)`, or a "
        "project function summarised as returning one) is compared "
        "with `==` / `!=` — exact equality on sampled floats is a "
        "probability-zero branch that still occasionally fires and "
        "then differs across platforms.",
    ),
    Rule(
        "rng-tainted-hash-key",
        SCOPE_NETWORK,
        "RNG-derived value used as a dict key / set element",
        "dataflow (project pass): an RNG-derived value is inserted "
        "into a hash-keyed container (`s.add(x)`, `d[x] = ...`, set/"
        "dict literals) in network scope — hash-order-dependent "
        "storage of sampled values is the root cause the "
        "`rng-tainted-iteration` sink then observes.",
    ),
    # -- async / fork-safety pass (service) ----------------------------
    Rule(
        "async-blocking-call",
        SCOPE_ALL,
        "blocking call (time.sleep, sync IO, subprocess) in async def",
        "a blocking call — `time.sleep`, `subprocess.*`, `os.system`, "
        "`socket.socket` / `create_connection`, builtin `open` — "
        "directly inside an `async def` body stalls the whole event "
        "loop: heartbeats stop, every in-flight job's supervision "
        "freezes. Wrap it in `asyncio.to_thread(...)` or use the "
        "async equivalent.",
    ),
    Rule(
        "unawaited-coroutine",
        SCOPE_ALL,
        "coroutine called but never awaited / scheduled",
        "a call to a known `async def` (project symbol table: local, "
        "imported, or `self.` method) used as a bare expression "
        "statement — the coroutine object is created and dropped, the "
        "body never runs, and Python only warns at GC time. `await` "
        "it, or schedule it with `asyncio.create_task(...)`.",
    ),
    Rule(
        "fork-unsafe-module-state",
        SCOPE_SERVICE,
        "event loop / lock created at import time (pre-fork)",
        "an `asyncio` primitive, `threading` lock, or event loop "
        "(`asyncio.get_event_loop()` / `new_event_loop()`) created at "
        "module level — it is created once pre-fork and inherited by "
        "every forked seed worker, where a held lock deadlocks and a "
        "loop is unusable. Create these per-process, after the fork.",
    ),
    Rule(
        "mutable-module-state",
        SCOPE_SERVICE,
        "mutable module-level container mutated by service code",
        "a module-level `dict` / `list` / `set` that service functions "
        "mutate — each forked worker silently gets its own diverging "
        "copy-on-write copy, so state 'shared' this way is a "
        "consistency bug by construction. Hang state off the service "
        "object or pass it explicitly.",
    ),
    # -- numpy hot-path pass (engine) ----------------------------------
    Rule(
        "numpy-object-dtype",
        SCOPE_ENGINE,
        "object-dtype numpy array in the vector engine",
        "`dtype=object` (or `astype(object)`) in `engine/` — an "
        "object-dtype array is a pointer table: every op falls back "
        "to per-element Python dispatch, defeating the entire point "
        "of the SoA engine and reintroducing per-object allocation "
        "on the cycle path.",
    ),
    Rule(
        "numpy-python-loop",
        SCOPE_ENGINE,
        "Python-level for loop over a numpy array in a hot-path class",
        "a Python `for` over a numpy array inside a registered "
        "hot-path class — per-element interpreter iteration on the "
        "whole-mesh passes is exactly the scalar cost the vector "
        "engine exists to avoid; restructure as a whole-array "
        "operation or mask.",
    ),
    Rule(
        "numpy-append-loop",
        SCOPE_ENGINE,
        "np.append/concatenate inside a loop (quadratic reallocation)",
        "`np.append` / `np.concatenate` / `np.hstack` / `np.vstack` "
        "inside a `for`/`while` body — each call reallocates and "
        "copies the whole array, turning a linear pass quadratic. "
        "Preallocate the slab and fill by slice.",
    ),
    Rule(
        "numpy-dtype-mixing",
        SCOPE_ENGINE,
        "float32/float64 mixing on an accumulate path",
        "arithmetic mixing a known-`float32` and a known-`float64` "
        "array, or `np.add.accumulate` / `np.cumsum` over a "
        "`float32` array — the energy-replay contract is a *float64* "
        "left fold matching the scalar engine add-for-add, so "
        "implicit upcasts or reduced-precision accumulation are "
        "direct bit-identity hazards.",
    ),
    # -- hot-path hygiene ----------------------------------------------
    Rule(
        "missing-slots",
        SCOPE_HOTPATH,
        "registered hot-path class does not define __slots__",
        "a registered hot-path class without `__slots__` (or "
        "`@dataclass(slots=True)`) — per-instance dicts on the cycle "
        "path cost memory and lookup time (see docs/PERFORMANCE.md).",
    ),
    Rule(
        "attr-outside-init",
        SCOPE_ALL,
        "attribute created outside __init__ on a slotted class",
        "`self.x = ...` outside `__init__`/`__post_init__` on a "
        "slotted class where `x` is neither a slot nor initialised — "
        "either a typo or a latent `AttributeError`.",
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}

ALL_RULE_IDS: FrozenSet[str] = frozenset(RULES_BY_ID)


#: Classes on the per-cycle hot path that must be ``__slots__`` classes
#: (or ``@dataclass(slots=True)``).  Keyed by a posix path *suffix* of
#: the defining module; additions to the hot path belong here (or mark
#: the class in source with ``# simlint: hot-path``).
DEFAULT_HOT_PATH_CLASSES: Mapping[str, FrozenSet[str]] = {
    "network/flit.py": frozenset({"Flit", "Packet"}),
    "network/link.py": frozenset(
        {"DelayLine", "Channel", "CreditMessage", "ModeNotification"}
    ),
    "network/interface.py": frozenset({"NetworkInterface"}),
    "network/reassembly.py": frozenset(
        {"_PendingPacket", "ReassemblyBuffer"}
    ),
    "core/lazy_vc.py": frozenset(
        {"BufferBank", "LazyInputPort", "NeighborCreditState"}
    ),
    "core/mode_controller.py": frozenset({"ModeController"}),
    "routers/backpressured.py": frozenset(
        {
            "VirtualChannelBuffer",
            "_DownstreamVC",
            "_OutputPortState",
            "_InputPort",
        }
    ),
    "faults/injector.py": frozenset({"ChannelFault"}),
    # The vectorized batch engine: structure-of-arrays classes whose
    # attributes are numpy buffers.  __slots__ still applies (array
    # *rebinding* outside __init__ is the hazard the rules catch; the
    # hot loop mutates array contents in place, which the rules allow).
    "engine/mt.py": frozenset({"BatchedMT19937"}),
    "engine/vector.py": frozenset({"VectorEngine"}),
}


#: Path fragments that put a file in the ``network`` scope.
DEFAULT_NETWORK_PATH_MARKERS: Tuple[str, ...] = (
    "/network/",
    "/routers/",
    "/core/",
    "simulation.py",
)

#: Path fragments that put a file in the ``service`` scope.  The
#: telemetry/dashboard modules live under ``obs/`` but carry the
#: service's thread/fork/asyncio structure (the worker→service metrics
#: relay), so the async/fork-safety passes cover them too.
DEFAULT_SERVICE_PATH_MARKERS: Tuple[str, ...] = (
    "/service/",
    "/obs/telemetry",
    "/obs/dashboard",
)

#: Path fragments that put a file in the ``engine`` scope.
DEFAULT_ENGINE_PATH_MARKERS: Tuple[str, ...] = ("/engine/",)


@dataclass(frozen=True)
class LintConfig:
    """Tunable lint policy (scopes, allowlists, rule selection)."""

    #: Rules to run (defaults to every registered rule).
    enabled_rules: FrozenSet[str] = ALL_RULE_IDS
    #: Posix-path fragments selecting the ``network`` scope.
    network_path_markers: Tuple[str, ...] = DEFAULT_NETWORK_PATH_MARKERS
    #: Posix-path fragments selecting the ``service`` scope.
    service_path_markers: Tuple[str, ...] = DEFAULT_SERVICE_PATH_MARKERS
    #: Posix-path fragments selecting the ``engine`` scope.
    engine_path_markers: Tuple[str, ...] = DEFAULT_ENGINE_PATH_MARKERS
    #: Hot-path class allowlist: posix path suffix -> class names.
    hot_path_classes: Mapping[str, FrozenSet[str]] = field(
        default_factory=lambda: dict(DEFAULT_HOT_PATH_CLASSES)
    )

    def _scope_markers(self, scope: str) -> Tuple[str, ...]:
        if scope == SCOPE_NETWORK:
            return self.network_path_markers
        if scope == SCOPE_SERVICE:
            return self.service_path_markers
        if scope == SCOPE_ENGINE:
            return self.engine_path_markers
        return ()

    def rule_applies(self, rule_id: str, posix_path: str) -> bool:
        """True when ``rule_id`` is enabled and in scope for the file."""
        if rule_id not in self.enabled_rules:
            return False
        rule = RULES_BY_ID[rule_id]
        if rule.scope in (SCOPE_NETWORK, SCOPE_SERVICE, SCOPE_ENGINE):
            return any(
                marker in posix_path
                for marker in self._scope_markers(rule.scope)
            )
        return True

    def registered_hot_path(self, posix_path: str) -> FrozenSet[str]:
        """Class names the allowlist registers for ``posix_path``."""
        for suffix, names in self.hot_path_classes.items():
            if posix_path.endswith(suffix):
                return names
        return frozenset()


DEFAULT_CONFIG = LintConfig()
