"""Deterministic tick-based simulation of a file-sharing access protocol.

Per scheduled request the requester resolves trust in the provider:
its own direct-trust table first, then recommendation chains over the
network's direct tables, and failing both the ignorance value 0.  The
resolved degree is classified and access is granted only when the
level meets the service's requirement.  A granted access samples the
provider's true SLA profile with the run's seeded generator, scores it
and records the interaction.  Recommended degrees go to recommended lists.

Every run is a pure function of its config: same seed, same trace.
"""
from __future__ import annotations

import csv
import inspect
import io
import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

from ._input import MISSING, NUMBER, load_object, place, read
from .calculus import (
    DecayParams,
    Grade,
    InteractionRecord,
    ReputationFactor,
    SL_METRIC_FIELDS,
    SlaMetrics,
    TrustLevel,
    _MAX_TIME,
    _require_unit,
    classify_level,
    satisfaction_level,
    validate_bonus_map,
    DEFAULT_GRADE_BONUS,
    DEFAULT_SL_WEIGHTS,
)
from .graph import (
    DEFAULT_MAX_CHAIN_LEN,
    PATH_DIRECT,
    PATH_IGNORANCE,
    PATH_RECOMMENDED,
    EdgeStats,
    TrustGraph,
    _check_max_len,
    resolve,
)
from .tables import EntityStore, RecommendedEntry, _check_history_cap

__all__ = [
    "ConfigError",
    "SlaProfile",
    "EntitySpec",
    "ServiceSpec",
    "Request",
    "RandomSchedule",
    "ScenarioConfig",
    "TraceRecord",
    "SimulationResult",
    "TRACE_HEADER",
    "PATH_DIRECT",
    "PATH_RECOMMENDED",
    "PATH_IGNORANCE",
    "gate_access",
    "sample_sla",
    "run",
]

DECISION_GRANTED = "granted"
DECISION_DENIED = "denied"

TRACE_HEADER = "tick,requester,provider,service,path,td,level,decision,score"

DEFAULT_SLA_CONCENTRATION = 25.0


class ConfigError(ValueError):
    """A scenario config failed to parse or validate."""


@dataclass(frozen=True)
class SlaProfile(SlaMetrics):
    """True per-metric quality of a provider: an `SlaMetrics` plus the
    `concentration` of its samples.

    Samples are beta-distributed around each quality; `concentration`
    steers how tight the draws are (higher = less noise).  Qualities of
    exactly 0 or 1 are point masses.
    """

    concentration: float = DEFAULT_SLA_CONCENTRATION

    def __post_init__(self) -> None:
        super().__post_init__()
        c = self.concentration
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"concentration must be positive, got {c!r}")
        for q in self.as_tuple():  # `sample_sla` draws beta(q * c, (1 - q) * c)
            if 0.0 < q < 1.0 and not (q * c > 0.0 and (1.0 - q) * c > 0.0):
                raise ValueError(f"concentration {c!r} is too small for quality {q!r}")

    @classmethod
    def uniform(cls, quality: float, concentration: float = DEFAULT_SLA_CONCENTRATION) -> "SlaProfile":
        return cls(quality, quality, quality, quality, quality, concentration)


class EntitySpec(NamedTuple):
    id: str
    grade: Grade
    profile: SlaProfile


class ServiceSpec(NamedTuple):
    id: str
    required_level: TrustLevel
    providers: Optional[tuple[str, ...]] = None  # None: every other entity provides it


class Request(NamedTuple):
    tick: int
    requester: str
    service: str
    provider: Optional[str] = None  # None: pick the best-ranked candidate


class RandomSchedule(NamedTuple):
    """Arrival model: a fixed number of uniformly drawn requests per tick.

    `provider_choice` picks how the provider is chosen: "ranked" runs
    the usual best-candidate selection, "random" draws one uniformly so
    fuzz runs exercise every resolution path.
    """

    ticks: int
    requests_per_tick: int = 1
    provider_choice: str = "ranked"


@dataclass
class ScenarioConfig:
    seed: int
    entities: list[EntitySpec]
    services: list[ServiceSpec]
    schedule: Optional[list[Request]] = None
    random_schedule: Optional[RandomSchedule] = None
    decay: DecayParams = field(default_factory=DecayParams)
    grade_bonus: dict[Grade, float] = field(default_factory=lambda: dict(DEFAULT_GRADE_BONUS))
    sl_weights: tuple[float, ...] = DEFAULT_SL_WEIGHTS
    max_chain_length: int = DEFAULT_MAX_CHAIN_LEN
    positive_threshold: float = 0.5
    history_cap: Optional[int] = None
    graph_snapshots: bool = False

    def entity_ids(self) -> list[str]:
        return [entity.id for entity in self.entities]

    def service_ids(self) -> list[str]:
        return [service.id for service in self.services]

    def _pool(self, service: ServiceSpec) -> list[str]:
        """Every entity that offers `service`: its providers, or all."""
        return service.providers if service.providers is not None else self.entity_ids()

    def candidates(self, requester: str, service: ServiceSpec) -> list[str]:
        return sorted(p for p in self._pool(service) if p != requester)

    def validate(self) -> None:
        # every field's type and own check, each id's before a set hashes it
        _test(_CONFIG.parts(self), _CONFIG.tests)
        self._check_links()

    def _check_links(self) -> None:
        """The checks that span fields, on a config whose fields hold."""
        ids, service_ids = self.entity_ids(), self.service_ids()
        if len(ids) != len(set(ids)):
            raise ConfigError("entity ids must be unique")
        if len(ids) < 2:
            raise ConfigError("a scenario needs at least two entities")
        if len(service_ids) != len(set(service_ids)):
            raise ConfigError("service ids must be unique")
        if not service_ids:
            raise ConfigError("a scenario needs at least one service")
        known = set(ids)
        # The providers of each service.  A requester has a candidate unless
        # it is the only provider, so each schedule check is a set lookup.
        offered = {service.id: set(self._pool(service)) for service in self.services}
        for service in self.services:
            if service.providers is not None:
                unknown = set(service.providers) - known
                if unknown:
                    raise ConfigError(
                        f"service {service.id!r} lists unknown providers: {sorted(unknown)}"
                    )
                if not service.providers:
                    raise ConfigError(f"service {service.id!r} has an empty provider list")
                if len(set(service.providers)) < len(service.providers):
                    repeated = {p for p in service.providers if service.providers.count(p) > 1}
                    raise ConfigError(
                        f"service {service.id!r} lists providers more than once: {sorted(repeated)}"
                    )
        if (self.schedule is None) == (self.random_schedule is None):
            raise ConfigError("exactly one of schedule / random_schedule is required")
        if self.schedule is not None:
            for req in self.schedule:
                if req.requester not in known:
                    raise ConfigError(f"unknown requester {req.requester!r} in schedule")
                if req.service not in offered:
                    raise ConfigError(f"unknown service {req.service!r} in schedule")
                if req.provider == req.requester:
                    raise ConfigError(
                        f"request at tick {req.tick} targets its own requester {req.requester!r}"
                    )
                if req.provider is not None and req.provider not in offered[req.service]:
                    raise ConfigError(
                        f"provider {req.provider!r} does not offer service {req.service!r}"
                    )
                if req.provider is None and offered[req.service] <= {req.requester}:
                    raise ConfigError(
                        f"no candidate provider for requester {req.requester!r} "
                        f"on service {req.service!r}"
                    )
        else:
            for entity in ids:
                for service in self.services:
                    if offered[service.id] <= {entity}:
                        raise ConfigError(
                            f"no candidate provider for requester {entity!r} "
                            f"on service {service.id!r}; random schedules need full coverage"
                        )

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        try:
            config = _CONFIG.fields(data, "config")
        except ConfigError:
            raise
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"config failed validation: {exc}") from exc
        config._check_links()
        return config

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(load_object(text, ConfigError, "config"))

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# ---------------------------------------------------------------------------
# The config's fields, in one table: `from_dict` reads JSON through it
# and `validate` walks it.  Each default is the record type's own: a
# JSON key absent or null is left to it.

_ABSENT = object()


class _Type:
    """A field's kind: a `python` value, called `name` in errors.  JSON
    gives it as a `json` value (by default `python`), which `load(value,
    at)` makes the field's value if given."""

    tests = None  # a record's or a sequence's: its parts' entries for `_test`
    shown = repr  # how an error shows a value of another type

    def __init__(self, python, name: str, json=None, load: Optional[Callable] = None):
        self.python, self.name, self.json, self.load = python, name, json or python, load


def _test(values, tests) -> None:
    """Test each value by its entry `(kind, check, label, optional)`: its
    type (a bool only where a bool is asked for), its parts, then its
    `check`.  None passes where the field is optional."""
    for value, (kind, check, label, optional) in zip(values, tests):
        if not isinstance(value, kind.python) or value.__class__ is bool is not kind.python:
            if value is None and optional:
                continue
            raise ConfigError(f"{label} must be {kind.name}, got {kind.shown(value)}")
        if kind.tests is not None:
            _test(kind.parts(value), kind.tests)
        if check is not None:
            check(value)


class _Seq(_Type):
    """A `python` sequence of `item`s, each called `label` in errors (a
    dict's items are its values); JSON gives a list unless told."""

    def __init__(self, item: _Type, name: str, label: str, python=list, json=list, load=None):
        super().__init__(python, name, json, load or self.items)
        self.item, self.parts = item, dict.values if python is dict else iter
        self.tests = repeat((item, None, label, False))

    def shown(self, value) -> str:
        return type(value).__name__

    def items(self, values: list, at) -> list:
        json, load = self.item.json, self.item.load
        return self.python([
            read(values, i, json, at, ConfigError) if load is None
            else load(read(values, i, json, at, ConfigError), (at, i))
            for i in range(len(values))
        ])


def _Field(name: str, kind: _Type, check: Optional[Callable] = None, key: Optional[str] = ""):
    """A field of a record, or else a keyword of its table's `build` alone;
    `key` is its JSON key ("": its name; None: it has none)."""
    return name, kind, check, key


class _Table(_Type):
    """A record's fields: `fields` builds one from a JSON object by
    `build`, the record type unless given, and runs each field's check
    on the value it reads.  A field its record gives no default is
    required; one whose default is None may be None.  Errors call a
    field by the record's `label` and its name, an id by the label."""

    def __init__(self, record, name: str, label: str, fields: list, build=None):
        super().__init__(record, name, dict, self.fields)
        params = inspect.signature(record).parameters
        self.build, self.keys, self.reads, self.tests, names = build or record, set(), [], [], []
        for name, kind, check, key in fields:
            default = params[name].default if name in params else None
            if key is not None:
                self.keys.add(key or name)
                absent = MISSING if default is inspect.Parameter.empty else _ABSENT
                self.reads.append((name, key or name, kind.json, kind.load, absent, check))
            if name in params:
                names.append(name)
                field_label = label if name == "id" else f"{label} {name}".lstrip()
                self.tests.append((kind, check, field_label, default is None))
        self.parts = attrgetter(*names)

    def fields(self, raw: dict, at):
        if not raw.keys() <= self.keys:
            key = next(key for key in raw if key not in self.keys)
            # quoted, as a key may hold any character
            raise ConfigError(f"{place((at, key))!r} is not a known key")
        values = {}
        for name, key, json, load, absent, check in self.reads:
            value = read(raw, key, json, at, ConfigError, absent)
            if value is not _ABSENT:
                if load is not None:
                    value = load(value, (at, key))
                if check is not None:
                    check(value)
                values[name] = value
        return self.build(**values)


def _must(holds: Callable, message: str) -> Callable:
    """A check that raises `message`, given the value, unless it `holds`."""
    def check(value) -> None:
        if not holds(value):
            raise ConfigError(message.format(value))
    return check


def _worded(check: Callable, prefix: str = "") -> Callable:
    """`check`, whose ValueError is raised as a ConfigError after `prefix`."""
    def checked(value) -> None:
        try:
            check(value)
        except (OverflowError, ValueError) as exc:
            raise ConfigError(prefix + str(exc)) from exc
    return checked


def _entity(id: str, grade: str, sla=1.0, **concentration) -> EntitySpec:
    """An entity as JSON gives it: `sla` is one quality or the keywords of
    a profile, whose concentration is `sla_concentration` unless given."""
    try:
        grade = Grade(grade)
    except ValueError:
        raise ConfigError(
            f"entity {id!r} has unknown grade {grade!r}; expected High/Medium/Low"
        ) from None
    if isinstance(sla, dict):
        return EntitySpec(id, grade, SlaProfile(**{**concentration, **sla}))
    return EntitySpec(id, grade, SlaProfile.uniform(sla, **concentration))


INT, STR, NUM = _Type(int, "an integer"), _Type(str, "a string"), _Type(NUMBER, "a number")
FLOAT = _Type(NUMBER, "a number", load=lambda value, at: float(value))
_RATE = _must(lambda n: n >= 1, "random_schedule needs ticks >= 1 and requests_per_tick >= 1")
_METRICS = [_Field(name, FLOAT) for name in SL_METRIC_FIELDS]
_SLA = _Table(SlaProfile, "", "", [*_METRICS, _Field("concentration", FLOAT)], dict)
_WEIGHT_MAP = _Table(SlaMetrics, "", "", _METRICS, lambda **weights: tuple(weights.values()))
_WEIGHTS = _Seq(FLOAT, "a tuple of number", "a weight", tuple, (list, dict), lambda raw, at: (
    _WEIGHT_MAP.fields(raw, at) if isinstance(raw, dict) else _WEIGHTS.items(raw, at)
))
_CONFIG = _Table(ScenarioConfig, "a ScenarioConfig", "", [
    _Field("seed", INT, _must(lambda n: n >= 0, "seed must be a non-negative integer, got {!r}")),
    _Field("entities", _Seq(_Table(EntitySpec, "an EntitySpec", "entity", [
        _Field("id", STR),
        _Field("grade", _Type(Grade, "a Grade", str)),
        _Field("profile", _Type(SlaProfile, "an SlaProfile"), key=None),
        _Field("sla", _Type(NUMBER + (dict,), "", load=lambda value, at: (
            _SLA.fields(value, at) if isinstance(value, dict) else float(value)
        ))),
        _Field("concentration", FLOAT, key="sla_concentration"),
    ], _entity), "a list of EntitySpec", "an entity")),
    _Field("services", _Seq(_Table(ServiceSpec, "a ServiceSpec", "service", [
        _Field("id", STR),
        _Field("required_level", _Type(TrustLevel, "a TrustLevel", str, (
            lambda value, at: TrustLevel.from_roman(value)
        ))),
        _Field("providers", _Seq(STR, "a tuple of string", "provider", tuple)),
    ]), "a list of ServiceSpec", "a service")),
    _Field("schedule", _Seq(_Table(Request, "a Request", "", [
        _Field("tick", INT, _must(
            lambda tick: 0 <= tick <= _MAX_TIME,
            "request tick must be a non-negative integer a float can hold, got {!r}",
        )),
        *(_Field(name, STR) for name in ("requester", "service", "provider")),
    ]), "a list of Request", "a schedule entry")),
    _Field("random_schedule", _Table(RandomSchedule, "a RandomSchedule", "random_schedule", [
        *(_Field(name, INT, _RATE) for name in ("ticks", "requests_per_tick")),
        _Field("provider_choice", STR, _must(
            ("ranked", "random").__contains__,
            "provider_choice must be 'ranked' or 'random', got {!r}",
        )),
    ])),
    _Field("decay", _Table(DecayParams, "a DecayParams", "decay", [
        _Field("k", INT), _Field("tau", NUM),
    ])),
    _Field("grade_bonus", _Seq(NUM, "a dict of number", "a grade bonus", dict, dict, (
        lambda raw, at: {Grade(g): float(read(raw, g, NUMBER, at, ConfigError)) for g in raw}
    )), _worded(validate_bonus_map, "bad rf_bonus: "), "rf_bonus"),
    _Field("sl_weights", _WEIGHTS, _worded(
        lambda weights: satisfaction_level(SlaMetrics(1, 1, 1, 1, 1), weights), "bad sl_weights: "
    )),
    _Field("max_chain_length", INT, _worded(_check_max_len, "bad max_chain_length: ")),
    _Field("positive_threshold", NUM, _worded(lambda v: _require_unit(v, "positive_threshold"))),
    # worded as the tables' own check words a bad cap
    _Field("history_cap", _Type(int, "an integer >= 1"), _worded(_check_history_cap)),
    _Field("graph_snapshots", _Type(bool, "a boolean")),
])


class TraceRecord(NamedTuple):
    """One protocol round: resolution, gating decision, and outcome."""

    tick: int
    requester: str
    provider: str
    service: str
    path: str
    td: float
    level: TrustLevel
    decision: str
    score: Optional[float]

    @property
    def granted(self) -> bool:
        return self.decision == DECISION_GRANTED

    def csv_row(self) -> list[str]:
        return [
            str(self.tick),
            self.requester,
            self.provider,
            self.service,
            self.path,
            f"{self.td:.4f}",
            self.level.roman,
            self.decision,
            "" if self.score is None else f"{self.score:.4f}",
        ]


@dataclass
class SimulationResult:
    config: ScenarioConfig
    trace: list[TraceRecord]
    stores: dict[str, EntityStore]
    graph_snapshots: dict[tuple[int, int], TrustGraph] = field(default_factory=dict)

    def trace_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(TRACE_HEADER.split(","))
        for record in self.trace:
            writer.writerow(record.csv_row())
        return buffer.getvalue()


def gate_access(td: float, required: TrustLevel) -> bool:
    """Grant iff the degree's level meets the service's required level."""
    return classify_level(td) >= required


def sample_sla(profile: SlaProfile, rng: random.Random) -> SlaMetrics:
    """Draw one SLA observation around the profile's true qualities."""
    values = []
    for quality in profile.as_tuple():
        if quality <= 0.0:
            values.append(0.0)
        elif quality >= 1.0:
            values.append(1.0)
        else:
            alpha = quality * profile.concentration
            beta = (1.0 - quality) * profile.concentration
            values.append(min(1.0, max(0.0, rng.betavariate(alpha, beta))))
    return SlaMetrics(*values)


class _LiveGraph:
    """The trust graph induced by every entity's direct table at `t_now`,
    read from the stores one value at a time as a request asks for it.
    Edge weights are the tables' own maps, which change only with the
    histories; direct trust depends on `t_now`, and the view is its only
    memo, so each value is computed at most once.  A run builds one view
    per request; it is valid until the stores next change."""

    def __init__(self, stores, rf_by_entity, decay: DecayParams, t_now: float):
        self.stores, self._rf, self._decay, self._t_now = stores, rf_by_entity, decay, t_now
        self._direct: dict[tuple[str, str, str], Optional[float]] = {}

    def direct(self, src: str, dst: str, service: str) -> Optional[float]:
        key = (src, dst, service)
        if key not in self._direct:
            self._direct[key] = self.stores[src].direct.lookup_direct(
                dst, service, self._t_now, self._decay, self._rf[dst]
            )
        return self._direct[key]

    def out_edges(self, src: str, service: str) -> dict[str, float]:
        return self.stores[src].direct.weights(service)


def snapshot_graph(view: _LiveGraph) -> TrustGraph:
    """Materialize a request's view of the trust graph, every edge of
    every service, for `--snapshots`.  Each edge takes its evidence and
    weight from the table, which checked them when they were recorded."""
    graph = TrustGraph()
    for owner in view.stores:
        graph.add_node(owner)
    for owner, store in view.stores.items():
        table = store.direct
        for trustee, service in table.keys():
            entry, weight = table.entry(trustee, service), table.weights(service)[trustee]
            dt = view.direct(owner, trustee, service)
            graph._put(owner, trustee, service, EdgeStats._recorded(*entry.evidence(), dt, weight))
    return graph


def _expand_schedule(
    config: ScenarioConfig, rng: random.Random, candidates: dict[tuple[str, str], list[str]]
) -> list[Request]:
    if config.schedule is not None:
        return sorted(config.schedule, key=lambda r: r.tick)
    requests = []
    entity_ids = sorted(config.entity_ids())
    service_ids = sorted(config.service_ids())
    randomize_provider = config.random_schedule.provider_choice == "random"
    for tick in range(config.random_schedule.ticks):
        for _ in range(config.random_schedule.requests_per_tick):
            requester = rng.choice(entity_ids)
            service = rng.choice(service_ids)
            provider = rng.choice(candidates[requester, service]) if randomize_provider else None
            requests.append(Request(tick, requester, service, provider))
    return requests


class _Simulator:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self.stores = {
            entity.id: EntityStore.new(entity.id, config.history_cap)
            for entity in config.entities
        }
        self.profiles = {entity.id: entity.profile for entity in config.entities}
        self.rf = {
            entity.id: ReputationFactor(entity.grade, config.grade_bonus[entity.grade])
            for entity in config.entities
        }
        self.services = {service.id: service for service in config.services}
        # (requester, service id) -> its sorted candidates, built once per run
        self.candidates = {
            (entity.id, service.id): config.candidates(entity.id, service)
            for service in config.services
            for entity in config.entities
        }
        self._seed_recommended_lists()

    def _seed_recommended_lists(self) -> None:
        # Bootstrap: every entity learns its candidates for each service, unrated.
        # The stores share one unrated entry per (service, peer); the service's
        # pool less the owner is the owner's candidate list.
        for service in self.config.services:
            unrated = {p: RecommendedEntry(p, None, 0.0) for p in self.config._pool(service)}
            for owner, store in self.stores.items():
                entries = unrated.copy()
                entries.pop(owner, None)
                if entries:
                    store.recommended._seed(service.id, entries)

    def select_provider(self, view: _LiveGraph, requester: str, service: ServiceSpec) -> str:
        """Rank the candidates by the requester's direct trust, else 0, ties
        by id.  A recommended degree would never decide: only a level-I
        service gets edges to chain over, and its request is always
        granted, which gives the same key direct trust at once."""

        def estimate(candidate: str) -> float:
            return view.direct(requester, candidate, service.id) or 0.0

        return min(self.candidates[requester, service.id], key=lambda c: (-estimate(c), c))

    def run(
        self, on_snapshot: Optional[Callable[[tuple[int, int], TrustGraph], None]] = None
    ) -> SimulationResult:
        result = SimulationResult(self.config, [], self.stores)
        if on_snapshot is None:
            on_snapshot = result.graph_snapshots.__setitem__
        requests = _expand_schedule(self.config, self.rng, self.candidates)
        index_in_tick = 0
        last_tick: Optional[int] = None
        for request in requests:
            if request.tick != last_tick:
                index_in_tick = 0
                last_tick = request.tick
            else:
                index_in_tick += 1
            service = self.services[request.service]
            view = _LiveGraph(self.stores, self.rf, self.config.decay, request.tick)
            provider = request.provider or self.select_provider(view, request.requester, service)
            if self.config.graph_snapshots:
                on_snapshot((request.tick, index_in_tick), snapshot_graph(view))
            path, td = resolve(
                view, request.requester, provider, request.service, self.config.max_chain_length
            )
            store = self.stores[request.requester]
            if path == PATH_RECOMMENDED:
                # the list records the last recommended degree for each
                # peer; the store snapshots write it, no decision reads it
                store.recommended.update(request.service, provider, td, request.tick)
            level = classify_level(td)
            granted = gate_access(td, service.required_level)
            score = None
            if granted:
                sla = sample_sla(self.profiles[provider], self.rng)
                score = satisfaction_level(sla, self.config.sl_weights)
                record = InteractionRecord(
                    time=request.tick,
                    score=score,
                    positive=score >= self.config.positive_threshold,
                )
                store.direct.record_interaction(provider, request.service, record)
            result.trace.append(
                TraceRecord(
                    tick=request.tick,
                    requester=request.requester,
                    provider=provider,
                    service=request.service,
                    path=path,
                    td=td,
                    level=level,
                    decision=DECISION_GRANTED if granted else DECISION_DENIED,
                    score=score,
                )
            )
        return result


def run(
    config: ScenarioConfig,
    on_snapshot: Optional[Callable[[tuple[int, int], TrustGraph], None]] = None,
) -> SimulationResult:
    """Execute a scenario; deterministic for a given config.

    With `config.graph_snapshots`, each request's graph snapshot is
    handed to `on_snapshot(key, graph)` as soon as it is built, keyed
    by (tick, index within the tick); by default it is collected in
    `result.graph_snapshots`.  A sink that keeps nothing keeps the run
    to one graph at a time.
    """
    config.validate()
    return _Simulator(config).run(on_snapshot)
