"""Scenario configuration: the value types of a scenario, the checks they
run when built, and what a scenario's entries mean.

`ScenarioConfig.from_mapping` checks the shape of a parsed scenario file,
a `ScenarioConfig` checks every key by its row of `_KEYS` and that a
`compensated` source has a coupler, and each `ChannelSpec` parses its
parameters by `_CHANNEL_PARAMS`; so a faulty scenario is rejected when it
is built. A config gives its source and target states, a spec its optics
channel. `ScenarioModel` holds a resolved model, `ScenarioReport` a
finished run and `EfficiencyBudget` the result of the `budget` command,
which `efficiency_budget` computes. `_strict_loader` is the YAML dialect
of scenario files: libyaml's loader where PyYAML has it, with repeated
keys rejected. `_number` and `_integer` are the package's one rule for a
real-number and for an integer argument, in every module's entry checks.

Importing this module loads neither numpy nor PyYAML: `qstate` and
`optics` load when a state or channel is first built, PyYAML when the
first scenario file is parsed.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from biphoton import bell, optics, tomo
    from biphoton.qstate import DensityMatrix, PureState

#: Largest accepted mean_pairs; numpy's Poisson sampler refuses means above
#: about 9.2e18.
MAX_MEAN_PAIRS = 1e18

#: Largest accepted bootstrap_replicas, a few minutes of fitting. The
#: replicas' 16 counts each are all drawn before the first fit, so a far
#: larger count could exhaust memory before any fit runs.
MAX_BOOTSTRAP_REPLICAS = 100_000

#: The loader scenario files are parsed with; None picks libyaml's loader
#: where PyYAML was built with it: the same safe constructor and resolver as
#: yaml.SafeLoader, several times faster. Unlike the pure-Python scanner,
#: libyaml also accepts tabs as separators ("seed:\t7").
_YAML_LOADER = None

#: Identifier of the default and only 16-setting tomography plan.
PLAN_HVDR16 = "hvdr16"


def _number(value, what: str, test=None, phrase: str = "a number") -> float:
    """`value` as a float if it is a real number (not a bool, a string, NaN
    or an integer beyond float range) that passes `test`; else a one-line
    ValueError "`what` must be `phrase`, got `value`" or its own message."""
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:
        raise ValueError(f"{what} lies beyond float range") from None
    if number != number or test is not None and not test(number):
        raise ValueError(f"{what} must be {phrase}, got {value!r}")
    return number


def _integer(value, what: str, test=None, phrase: str = "an integer") -> int:
    """`value` as an int if it is a Python or numpy integer (not a bool) that
    passes `test`; else a one-line ValueError as `_number` raises."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        number = int(value)
        if test is None or test(number):
            return number
    raise ValueError(f"{what} must be {phrase}, got {value!r}")


#: (range test, error phrase) pairs that several checks share.
_NATURAL = (lambda v: v >= 0, "a non-negative integer")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_EFFICIENCY = (lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_FINITE = (math.isfinite, "a finite number")
_FINITE_POSITIVE = (lambda v: 0.0 < v < math.inf, "a finite positive number")
_ARM = (lambda v: v in (1, 2), "1 or 2")


#: Each channel kind's parameters and their defaults, None where required.
#: A coupler's eta_v may be given instead as ratio = eta_h / eta_v > 0, and
#: its efficiencies lie in [0, 1]; all are finite. Every arm is 1 or 2.
_CHANNEL_PARAMS = {
    "coupler": {"eta_h": None, "eta_v": None},
    "polarizer": {"angle": None},
    "waveplate": {"retardance": None, "angle": 0.0},
    "identity": {},
}


@dataclass(frozen=True)
class ChannelSpec:
    """One channel-chain entry: kind, parameters and the arm it acts on,
    checked by `_CHANNEL_PARAMS` when built. `params` keeps the parse, which
    parses to itself: finite floats, defaults filled in, ratio as eta_v."""

    kind: str
    params: dict = field(default_factory=dict)
    arm: int = 1

    def __post_init__(self):
        kind = self.kind
        if not isinstance(kind, str) or kind not in _CHANNEL_PARAMS:
            raise ValueError(f"unknown channel kind {kind!r}")
        object.__setattr__(self, "arm", _integer(self.arm, f"{kind} arm", *_ARM))
        given = dict(self.params)
        params = {}
        rule = _UNIT if kind == "coupler" else _FINITE
        for key, default in _CHANNEL_PARAMS[kind].items():
            if kind == "coupler" and key == "eta_v" and "ratio" in given:
                ratio = _number(given.pop("ratio"), "coupler ratio", *_FINITE_POSITIVE)
                value = params["eta_h"] / ratio
            elif key in given:
                value = given.pop(key)
            elif default is None:
                raise ValueError(f"{kind} needs {'ratio or eta_v' if key == 'eta_v' else key}")
            else:
                value = default
            params[key] = _number(value, f"{kind} {key}", *rule)
        if given:
            raise ValueError(f"unexpected {kind} parameters: {sorted(given, key=str)}")
        object.__setattr__(self, "params", params)

    def channel(self) -> optics.KrausChannel:
        """The optics channel this entry describes, acting on its arm."""
        from biphoton import optics
        if self.kind == "coupler":
            return optics.anisotropic_coupler(**self.params, arm=self.arm)
        if self.kind == "polarizer":
            return optics.polarizer(**self.params, arm=self.arm)
        if self.kind == "waveplate":
            return optics.KrausChannel.from_jones(optics.waveplate(**self.params), self.arm)
        return optics.KrausChannel.identity(self.arm)


def _state_test(key: str, *names):
    """The range test of a state key: one of `names`, or a spec that
    `_pure_state` builds (it raises naming `key` otherwise)."""
    return lambda spec: spec in names or _pure_state(spec, key) is not None


_STATE = "a state name or a schmidt_theta mapping"

#: Every scenario key but channel_chain: (accepted types, range test or None,
#: the phrase its error gives, whether a scenario file must give it). A float
#: key takes a real number by `_number`, an int key an integer by `_integer`,
#: kept as a Python int; None lets a key stay unset. A range test returns
#: False or raises its own ValueError.
_KEYS = {
    "name": ((str,), None, "a string", True),
    "source": ((str, dict), _state_test("source", "compensated"), _STATE, True),
    "fidelity_target": ((str, dict), _state_test("fidelity_target"), _STATE, False),
    "outputs": ((str, os.PathLike), lambda v: v != "", "a directory path", False),
    "seed": ((int,), *_NATURAL, True),
    "bootstrap_replicas": ((int,), lambda v: v == 0 or 2 <= v <= MAX_BOOTSTRAP_REPLICAS,
                           f"0 or an integer from 2 to {MAX_BOOTSTRAP_REPLICAS}", False),
    "mean_pairs": ((float,), lambda v: 0 < v <= MAX_MEAN_PAIRS,
                   f"a number in (0, {MAX_MEAN_PAIRS:g}]", False),
    "noise_p": ((float, type(None)), *_UNIT, False),
    "noise_fit_concurrence": ((float, type(None)), *_UNIT, False),
    # An infinite extinction ratio is a polarizer that leaks nothing.
    "singles_extinction": ((float, type(None)), lambda v: v > 1, "a number above 1", False),
    "tomography_plan": ((str,), lambda v: v == PLAN_HVDR16, repr(PLAN_HVDR16), False),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; building it checks every key by its row of `_KEYS`."""

    name: str
    source: str | dict
    channel_chain: tuple = ()
    noise_p: float | None = None
    noise_fit_concurrence: float | None = None
    fidelity_target: str | dict = "phi+"
    singles_extinction: float | None = None
    tomography_plan: str = PLAN_HVDR16
    mean_pairs: float = 10_000
    seed: int = 0
    outputs: str = "out"
    bootstrap_replicas: int = 200

    def __post_init__(self):
        for key, (types, test, phrase, _) in _KEYS.items():
            value = getattr(self, key)
            if value is None and type(None) in types:
                continue
            if float in types:
                _number(value, key, test, phrase)
            elif int in types:
                object.__setattr__(self, key, _integer(value, key, test, phrase))
            elif not isinstance(value, types) or test is not None and not test(value):
                raise ValueError(f"{key} must be {phrase}, got {value!r}")
        if self.noise_p is not None and self.noise_fit_concurrence is not None:
            raise ValueError("give noise_p or noise_fit_concurrence, not both")
        chain = self.channel_chain
        if not isinstance(chain, tuple) or not all(isinstance(s, ChannelSpec) for s in chain):
            raise ValueError(f"channel_chain must be a tuple of ChannelSpec, got {chain!r}")
        if self.source == "compensated" and all(s.kind != "coupler" for s in self.channel_chain):
            raise ValueError("'compensated' source needs a coupler in the chain")

    @classmethod
    def from_mapping(cls, raw, path) -> ScenarioConfig:
        """The config of a parsed scenario file; its shape errors name `path`."""
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: scenario file must hold a mapping")
        for key, (*_, required) in _KEYS.items():
            if required and key not in raw:
                raise ValueError(f"{path}: scenario must specify a {key}")
        entries = raw.get("channel_chain")
        if not isinstance(entries, (list, type(None))):
            raise ValueError(f"{path}: channel_chain must be a list of channels, "
                             f"got {entries!r}")
        chain = []
        for i, entry in enumerate(entries or []):
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ValueError(f"{path}: channel_chain entry {i} must be a mapping with a kind")
            params = {k: v for k, v in entry.items() if k not in ("kind", "arm")}
            chain.append(ChannelSpec(entry["kind"], params, entry.get("arm", 1)))
        unknown = set(raw) - {*_KEYS, "channel_chain"}
        if unknown:
            raise ValueError(f"{path}: unknown scenario keys {sorted(unknown, key=str)}")
        return cls(**{**raw, "channel_chain": tuple(chain)})

    @property
    def coupler_etas(self) -> tuple[float, float]:
        """(eta_h, eta_v) of the first coupler in the chain; (1, 1) without one."""
        for spec in self.channel_chain:
            if spec.kind == "coupler":
                return spec.params["eta_h"], spec.params["eta_v"]
        return 1.0, 1.0

    def source_state(self) -> PureState:
        """The source state; `compensated` is the one the coupler maps onto phi+."""
        if self.source == "compensated":
            from biphoton import optics
            return optics.compensated_source(*self.coupler_etas)
        return _pure_state(self.source, "source")

    def target_state(self) -> PureState:
        """The pure state the fidelity metric is reported against."""
        return _pure_state(self.fidelity_target, "fidelity_target")


@dataclass(frozen=True)
class EfficiencyBudget:
    """Product of per-stage efficiencies, with an optional solved unknown.

    When a quoted value for the unknown stage is supplied, the report keeps
    the recomputed and quoted numbers side by side instead of reconciling
    them.
    """

    stages: tuple
    total: float
    solved_unknown: float | None = None
    quoted_unknown: float | None = None

    @property
    def quoted_gap(self) -> float | None:
        if self.solved_unknown is None or self.quoted_unknown is None:
            return None
        return self.solved_unknown - self.quoted_unknown

    def to_json_dict(self) -> dict:
        payload = {
            "stages": [{"name": name, "efficiency": eff} for name, eff in self.stages],
            "total": self.total,
        }
        if self.solved_unknown is not None:
            payload["solved_unknown"] = {"recomputed": self.solved_unknown}
            if self.quoted_unknown is not None:
                payload["solved_unknown"]["quoted"] = self.quoted_unknown
                payload["solved_unknown"]["recomputed_minus_quoted"] = self.quoted_gap
        return payload


def efficiency_budget(stages, solve_total: float | None = None,
                      quoted_unknown: float | None = None) -> EfficiencyBudget:
    """Multiply stage efficiencies; optionally solve for one missing stage.

    `stages` holds (name, efficiency) pairs or bare efficiencies, each a
    number (not a bool or a string, by `_number`) in (0, 1]. With
    `solve_total`, the unknown stage is target / product and is reported
    next to `quoted_unknown` when one is given. Both lie in (0, 1], as must
    the solved stage, and `quoted_unknown` needs `solve_total`.
    """
    for flag, value in (("--solve-total", solve_total), ("--quoted-unknown", quoted_unknown)):
        if value is not None:
            _number(value, flag, *_EFFICIENCY)
    if quoted_unknown is not None and solve_total is None:
        raise ValueError("--quoted-unknown needs --solve-total")
    named = []
    for i, entry in enumerate(stages):
        if isinstance(entry, (tuple, list)):
            name, eff = entry
        else:
            name, eff = f"stage{i + 1}", entry
        named.append((str(name), _number(eff, "stage efficiency", *_EFFICIENCY)))
    if not named:
        raise ValueError("budget needs at least one stage")
    total = math.prod(eff for _, eff in named)
    solved = None if solve_total is None else float(solve_total) / total
    if solved is not None and solved > 1.0:
        raise ValueError(f"--solve-total {float(solve_total)!r} over the stage product "
                         f"{total!r} puts the unknown stage at {solved!r} > 1")
    return EfficiencyBudget(tuple(named), total, solved, quoted_unknown)


def _pure_state(spec, key: str) -> PureState:
    """The Bell state named by `spec`, or the Schmidt state of a
    {schmidt_theta: angle} mapping; `key` names the config entry, and
    every error names it."""
    from biphoton import qstate
    build = _bell_state
    if isinstance(spec, dict):
        if list(spec) != ["schmidt_theta"]:
            raise ValueError(f"{key} mapping must hold schmidt_theta alone, "
                             f"got keys {sorted(spec, key=str)}")
        key = f"{key} schmidt_theta"
        build, spec = qstate.schmidt_pure, spec["schmidt_theta"]
    try:
        return build(spec)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


@functools.lru_cache(maxsize=64)
def _bell_state(label: str) -> PureState:
    """`qstate.bell_state(label)`, built once: a PureState is read-only, so a
    config's check and its model share one."""
    from biphoton import qstate
    return qstate.bell_state(label)


@dataclass(frozen=True)
class ScenarioModel:
    """Resolved physical model of a scenario before any sampling."""

    state: DensityMatrix
    success_probability: float
    noise_p: float
    effective_pairs: float
    eta_h: float
    eta_v: float
    target: PureState
    singles_leak: float | None = None  # None: the singles probe is pure H


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    model: ScenarioModel
    tomography: tomo.TomographyResult
    chsh: bell.ChshResult
    chsh_model: bell.ChshResult
    fringes: dict
    artifacts: tuple


@functools.cache
def _strict_loader(base):
    """The loader `base` (None: see `_YAML_LOADER`), rejecting a mapping
    that gives one key twice where PyYAML alone keeps the last value."""
    import yaml
    if base is None:
        base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            keys = []
            for key_node, _ in node.value:
                if key_node.tag != "tag:yaml.org,2002:merge":
                    key = self.construct_object(key_node, deep=deep)
                    if key in keys:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"repeated key {key!r}", key_node.start_mark)
                    keys.append(key)
            return super().construct_mapping(node, deep)
    return Loader
