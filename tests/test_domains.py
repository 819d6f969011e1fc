"""Every numeric config field declares its legal domain in its field
metadata, construction enforces exactly that domain, and every CLI flag
typed from a domain rejects the same values as a usage error.

The table of classes below is the set the declarative layer covers
(``repro.domain``); a number field added without a domain, or a flag
typed apart from the field it fills, fails here.
"""

import dataclasses
import math
import typing

import pytest

from repro.cli import build_parser, main
from repro.domain import KEY, Each, Integer, OneOf, Only, Real, domain_of
from repro.energy.model import EnergyParameters
from repro.faults.protection import ProtectionConfig
from repro.faults.schedule import FaultEvent, FaultKind, FaultSpec
from repro.harness.experiment import (
    JOBS,
    KINDS,
    MEASURE,
    SEEDS,
    WARMUP,
)
from repro.network.config import (
    ContentionThresholds,
    MachineConfig,
    NetworkConfig,
)
from repro.network.topology import Mesh
from repro.service.jobs import JobSpec
from repro.traffic.patterns import HotspotSpec
from repro.traffic.synthetic import PacketMix
from repro.traffic.workloads import APACHE

#: One legal instance of every covered class.
LEGAL = [
    Mesh(3, 3),
    NetworkConfig(),
    ContentionThresholds(high=2.0, low=1.0),
    MachineConfig(),
    EnergyParameters(),
    FaultSpec(),
    FaultEvent(0, FaultKind.LINK_FLAP, 0, 1, duration=5),
    ProtectionConfig(),
    PacketMix(),
    APACHE,
    JobSpec(),
    HotspotSpec(),
]

NUMBER_TYPES = {int, float, typing.Optional[int], typing.Optional[float]}


def _domains():
    for instance in LEGAL:
        cls = type(instance)
        for f in dataclasses.fields(cls):
            if KEY in f.metadata:
                yield pytest.param(
                    instance,
                    f.name,
                    f.metadata[KEY],
                    id=f"{cls.__name__}.{f.name}",
                )


def outside(domain) -> list:
    """Values just outside ``domain``."""
    if isinstance(domain, Only):
        return [domain.value - 1, domain.value + 1, domain.value + 0.5, True]
    if isinstance(domain, Integer):
        least = 0 if domain.least is None else domain.least
        below = [] if domain.least is None else [domain.least - 1]
        return below + [least + 0.5, float(least), True, str(least)]
    if isinstance(domain, Real):
        values = [math.nan, math.inf, -math.inf, True, "0.5"]
        if math.isfinite(domain.low):
            values.append(domain.low if domain.open_low else domain.low - 0.5)
        if math.isfinite(domain.high):
            values.append(domain.high if domain.open_high else domain.high + 0.5)
        return values
    if isinstance(domain, OneOf):
        return ["no-such-option", None]
    if isinstance(domain, Each):
        return [(bad,) * 3 for bad in outside(domain.entry)] + [5]
    raise AssertionError(f"no outside values for {domain!r}")


@pytest.mark.parametrize("instance", LEGAL, ids=lambda i: type(i).__name__)
def test_every_number_field_declares_its_domain(instance):
    cls = type(instance)
    hints = typing.get_type_hints(cls)
    bare = [
        f.name
        for f in dataclasses.fields(cls)
        if hints[f.name] in NUMBER_TYPES and KEY not in f.metadata
    ]
    assert not bare, f"{cls.__name__} fields without a domain: {bare}"


def _consuming(instance, name):
    """``instance``, with a kind that reads ``name`` when its domain
    applies only under such a kind."""
    if isinstance(instance, JobSpec) and name in ("rate", "workload"):
        kind = next(k for k, entry in KINDS.items() if name in entry.params)
        return dataclasses.replace(instance, kind=kind)
    return instance


@pytest.mark.parametrize("instance, name, domain", list(_domains()))
def test_values_outside_the_domain_are_rejected_naming_the_field(
    instance, name, domain
):
    base = _consuming(instance, name)
    for bad in outside(domain):
        with pytest.raises(ValueError, match=name) as err:
            dataclasses.replace(base, **{name: bad})
        named = bad[0] if isinstance(domain, Each) and bad != 5 else bad
        assert repr(named) in str(err.value)


@pytest.mark.parametrize("instance, name, domain", list(_domains()))
def test_the_default_is_inside_the_domain(instance, name, domain):
    value = getattr(instance, name)
    assert domain.check(name, value) == value


def _spec_typed_flags():
    """``(command, flag, domain)`` of every flag typed from a domain."""
    (commands,) = build_parser()._subparsers._group_actions
    for command, sub in commands.choices.items():
        for action in sub._actions:
            domain = getattr(action.type, "domain", None)
            if domain is not None:
                yield command, action.option_strings[0], domain


SPEC_FLAGS = list(_spec_typed_flags())


@pytest.mark.parametrize(
    "command, flag, domain",
    SPEC_FLAGS,
    ids=[f"{command} {flag}" for command, flag, _ in SPEC_FLAGS],
)
def test_flags_typed_from_a_domain_reject_its_outside_as_usage_errors(
    command, flag, domain, capsys
):
    # A string stands for a wrongly typed value in Python; on the
    # command line every value is a string, so those are left out.
    for bad in outside(domain):
        if isinstance(bad, str):
            continue
        assert main([command, flag, str(bad)]) == 2, (flag, bad)
        assert f"argument {flag}:" in capsys.readouterr().err


#: Flags that fill a field, and the field: wherever the flag appears it
#: must be typed from the field's own domain object.
FIELD_FLAGS = {
    "--width": (NetworkConfig, "width"),
    "--height": (NetworkConfig, "height"),
    "--warmup": (JobSpec, "warmup_cycles"),
    "--measure": (JobSpec, "measure_cycles"),
    "--seeds": (JobSpec, "seeds"),
    "--rate": (JobSpec, "rate"),
    "--rates": (JobSpec, "rate"),
    "--flap-rate": (FaultSpec, "link_flap_rate"),
    "--flap-duration": (FaultSpec, "flap_duration"),
    "--bit-error-rate": (FaultSpec, "bit_error_rate"),
    "--credit-loss-rate": (FaultSpec, "credit_loss_rate"),
    "--credit-loss-burst": (FaultSpec, "credit_loss_burst"),
    "--link-kills": (FaultSpec, "link_kills"),
    "--router-kills": (FaultSpec, "router_kills"),
    "--max-retries": (ProtectionConfig, "max_retries"),
    "--ack-timeout": (ProtectionConfig, "ack_timeout"),
}


def test_field_flags_are_typed_from_the_field_domain():
    seen = set()
    for command, flag, domain in SPEC_FLAGS:
        if flag in FIELD_FLAGS:
            assert domain is domain_of(*FIELD_FLAGS[flag]), (command, flag)
            seen.add(flag)
    assert seen == set(FIELD_FLAGS)


def test_runner_counts_share_the_job_spec_domains():
    assert domain_of(JobSpec, "seeds") is SEEDS
    assert domain_of(JobSpec, "warmup_cycles") is WARMUP
    assert domain_of(JobSpec, "measure_cycles") is MEASURE
    typed = {(command, flag): domain for command, flag, domain in SPEC_FLAGS}
    assert typed["run", "--jobs"] is JOBS
