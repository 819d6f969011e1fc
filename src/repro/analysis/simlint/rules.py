"""Rule registry and scope policy for the ``simlint`` static pass.

Every rule has a stable kebab-case id (used in reports, in
``# simlint: disable=<id>`` / ``# simlint: disable-file=<id>``
suppressions, and as the SARIF ``ruleId``) and a *scope* that limits
where it applies:

* ``all`` — every linted file.  Determinism hazards are never
  acceptable in simulation code, wherever they live.
* ``network`` — router/network/core modules and ``simulation.py``
  only (matched by path, see :data:`SCOPE_PATH_MARKERS`).
  Iteration-order hazards only corrupt results where per-cycle
  iteration order feeds the simulation, so harness/analysis code is
  exempt.
* ``engine`` — the vectorized batch engine (same table): numpy
  hot-path hygiene and dtype bit-identity rules.
* ``hotpath`` — classes registered in the hot-path allowlist
  (:data:`HOT_PATH_CLASSES`) or marked in source with a
  ``# simlint: hot-path`` comment on their ``class`` line.

The rule table in docs/ANALYSIS.md is *generated* from this registry
(``python scripts/gen_rule_table.py``) and CI checks it is in sync,
so :attr:`Rule.rationale` is the single source of truth for what each
rule catches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

#: Scope names understood by the engine.
SCOPE_ALL = "all"
SCOPE_NETWORK = "network"
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
HOT_PATH_CLASSES: Mapping[str, FrozenSet[str]] = {
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


#: Path fragments that put a file in each path-matched scope; rules of
#: any other scope apply to every file.
SCOPE_PATH_MARKERS: Mapping[str, Tuple[str, ...]] = {
    SCOPE_NETWORK: ("/network/", "/routers/", "/core/", "simulation.py"),
    SCOPE_ENGINE: ("/engine/",),
}


def rule_applies(rule_id: str, posix_path: str) -> bool:
    """True when ``rule_id`` is in scope for the file."""
    markers = SCOPE_PATH_MARKERS.get(RULES_BY_ID[rule_id].scope)
    if markers is None:
        return True
    return any(marker in posix_path for marker in markers)


def registered_hot_path(posix_path: str) -> FrozenSet[str]:
    """Class names the allowlist registers for ``posix_path``."""
    for suffix, names in HOT_PATH_CLASSES.items():
        if posix_path.endswith(suffix):
            return names
    return frozenset()
