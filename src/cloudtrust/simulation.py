"""Deterministic tick-based simulation of a file-sharing access protocol.

Per scheduled request the requester resolves trust in the provider:
its own direct-trust table first, then recommendation chains over the
network's direct tables, and failing both the ignorance value 0.  The
resolved degree is classified and access is granted only when the
level meets the service's requirement.  A granted access samples the
provider's true SLA profile with the run's seeded generator, scores it,
records the interaction, and refreshes the recommended list.

Every run is a pure function of its config: same seed, same trace.
"""
from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from ._input import NUMBER, load_object, read, read_items
from .calculus import (
    DecayParams,
    Grade,
    InteractionRecord,
    ReputationFactor,
    SL_METRIC_FIELDS,
    SlaMetrics,
    TrustLevel,
    _MAX_TIME,
    _require_id,
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
DEFAULT_POSITIVE_THRESHOLD = 0.5


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
    positive_threshold: float = DEFAULT_POSITIVE_THRESHOLD
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
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        ids = self.entity_ids()
        if len(ids) != len(set(ids)):
            raise ConfigError("entity ids must be unique")
        if len(ids) < 2:
            raise ConfigError("a scenario needs at least two entities")
        service_ids = self.service_ids()
        if len(service_ids) != len(set(service_ids)):
            raise ConfigError("service ids must be unique")
        if not service_ids:
            raise ConfigError("a scenario needs at least one service")
        known = set(ids)
        # The providers of each service.  A requester has a candidate unless
        # it is the only provider, so each schedule check is a set lookup.
        offered = {service.id: set(self._pool(service)) for service in self.services}
        for service in self.services:
            _require_id(service.id, "service", ConfigError)  # a run seeds the lists unchecked
            if service.providers is not None:
                for provider in service.providers:
                    _require_id(provider, "provider", ConfigError)
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
                tick = req.tick
                if isinstance(tick, bool) or not isinstance(tick, int) or not 0 <= tick <= _MAX_TIME:
                    raise ConfigError(
                        f"request tick must be a non-negative integer a float can hold, got {tick!r}"
                    )
                if req.requester not in known:
                    raise ConfigError(f"unknown requester {req.requester!r} in schedule")
                if req.service not in offered:
                    raise ConfigError(f"unknown service {req.service!r} in schedule")
                if req.provider is not None:
                    if req.provider == req.requester:
                        raise ConfigError(
                            f"request at tick {req.tick} targets its own requester {req.requester!r}"
                        )
                    if req.provider not in offered[req.service]:
                        raise ConfigError(
                            f"provider {req.provider!r} does not offer service {req.service!r}"
                        )
                elif offered[req.service] <= {req.requester}:
                    raise ConfigError(
                        f"no candidate provider for requester {req.requester!r} "
                        f"on service {req.service!r}"
                    )
        else:
            rs = self.random_schedule
            _require_int(rs.ticks, "random_schedule ticks")
            _require_int(rs.requests_per_tick, "random_schedule requests_per_tick")
            if rs.ticks < 1 or rs.requests_per_tick < 1:
                raise ConfigError("random_schedule needs ticks >= 1 and requests_per_tick >= 1")
            if rs.provider_choice not in ("ranked", "random"):
                raise ConfigError(
                    f"provider_choice must be 'ranked' or 'random', got {rs.provider_choice!r}"
                )
            for entity in ids:
                for service in self.services:
                    if offered[service.id] <= {entity}:
                        raise ConfigError(
                            f"no candidate provider for requester {entity!r} "
                            f"on service {service.id!r}; random schedules need full coverage"
                        )
        try:
            validate_bonus_map(self.grade_bonus)
        except ValueError as exc:
            raise ConfigError(f"bad rf_bonus: {exc}") from exc
        _require_int(self.max_chain_length, "max_chain_length")
        try:
            _check_max_len(self.max_chain_length)
        except ValueError as exc:
            raise ConfigError(f"bad max_chain_length: {exc}") from exc
        try:
            _require_unit(self.positive_threshold, "positive_threshold")
            _check_history_cap(self.history_cap)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            satisfaction_level(SlaMetrics(1, 1, 1, 1, 1), self.sl_weights)
        except ValueError as exc:
            raise ConfigError(f"bad sl_weights: {exc}") from exc

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        try:
            entities = read_items(data, "entities", dict, "config", ConfigError)
            services = read_items(data, "services", dict, "config", ConfigError)
            schedule = None
            if "schedule" in data:
                requests = read_items(data, "schedule", dict, "config", ConfigError)
                schedule = [_parse_request(raw, at) for at, raw in requests]
            random_schedule = None
            if "random_schedule" in data:
                raw = read(data, "random_schedule", dict, "config", ConfigError)
                at = ("config", "random_schedule")
                random_schedule = RandomSchedule(
                    ticks=read(raw, "ticks", int, at, ConfigError, 0),
                    requests_per_tick=read(raw, "requests_per_tick", int, at, ConfigError, 1),
                    provider_choice=read(raw, "provider_choice", str, at, ConfigError, "ranked"),
                )
            raw = read(data, "decay", dict, "config", ConfigError, {})
            at = ("config", "decay")
            decay = DecayParams(
                k=read(raw, "k", int, at, ConfigError, 1),
                tau=read(raw, "tau", NUMBER, at, ConfigError, 1.0),
            )
            grade_bonus = dict(DEFAULT_GRADE_BONUS)
            raw = read(data, "rf_bonus", dict, "config", ConfigError, None)
            if raw is not None:
                at = ("config", "rf_bonus")
                grade_bonus = {Grade(g): float(read(raw, g, NUMBER, at, ConfigError)) for g in raw}
            raw = read(data, "sl_weights", (list, dict), "config", ConfigError, DEFAULT_SL_WEIGHTS)
            if isinstance(raw, dict):
                at = ("config", "sl_weights")
                raw = [read(raw, name, NUMBER, at, ConfigError) for name in SL_METRIC_FIELDS]
            elif isinstance(raw, list):
                raw = [w for _, w in read_items(data, "sl_weights", NUMBER, "config", ConfigError)]
            weights = tuple(float(w) for w in raw)
            config = cls(
                seed=read(data, "seed", int, "config", ConfigError),
                entities=[_parse_entity(raw, at) for at, raw in entities],
                services=[_parse_service(raw, at) for at, raw in services],
                schedule=schedule,
                random_schedule=random_schedule,
                decay=decay,
                grade_bonus=grade_bonus,
                sl_weights=weights,
                max_chain_length=read(
                    data, "max_chain_length", int, "config", ConfigError, DEFAULT_MAX_CHAIN_LEN
                ),
                positive_threshold=read(
                    data, "positive_threshold", NUMBER, "config", ConfigError,
                    DEFAULT_POSITIVE_THRESHOLD,
                ),
                history_cap=read(data, "history_cap", int, "config", ConfigError, None),
                graph_snapshots=read(data, "graph_snapshots", bool, "config", ConfigError, False),
            )
        except ConfigError:
            raise
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"config failed validation: {exc}") from exc
        config.validate()
        return config

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(load_object(text, ConfigError, "config"))

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def _require_int(value: int, name: str) -> None:
    # a config built in Python has skipped `from_dict`'s JSON types
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _parse_entity(raw: dict, at) -> EntitySpec:
    entity_id = read(raw, "id", str, at, ConfigError)
    grade = read(raw, "grade", str, at, ConfigError)
    try:
        grade = Grade(grade)
    except ValueError:
        raise ConfigError(
            f"entity {entity_id!r} has unknown grade {grade!r}; expected High/Medium/Low"
        ) from None
    concentration = float(
        read(raw, "sla_concentration", NUMBER, at, ConfigError, DEFAULT_SLA_CONCENTRATION)
    )
    sla = read(raw, "sla", (int, float, dict), at, ConfigError, 1.0)
    if isinstance(sla, dict):
        at = (at, "sla")
        profile = SlaProfile(
            **{name: float(read(sla, name, NUMBER, at, ConfigError)) for name in SL_METRIC_FIELDS},
            concentration=float(read(sla, "concentration", NUMBER, at, ConfigError, concentration)),
        )
    else:
        profile = SlaProfile.uniform(float(sla), concentration)
    return EntitySpec(id=entity_id, grade=grade, profile=profile)


def _parse_service(raw: dict, at) -> ServiceSpec:
    providers = read(raw, "providers", list, at, ConfigError, None)
    if providers is not None:
        providers = tuple(p for _, p in read_items(raw, "providers", str, at, ConfigError))
    return ServiceSpec(
        id=read(raw, "id", str, at, ConfigError),
        required_level=TrustLevel.from_roman(read(raw, "required_level", str, at, ConfigError)),
        providers=providers,
    )


def _parse_request(raw: dict, at) -> Request:
    return Request(
        tick=read(raw, "tick", int, at, ConfigError),
        requester=read(raw, "requester", str, at, ConfigError),
        service=read(raw, "service", str, at, ConfigError),
        provider=read(raw, "provider", str, at, ConfigError, None),
    )


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

    def weight(self, src: str, dst: str, service: str) -> Optional[float]:
        return self.stores[src].direct.weights(service).get(dst)

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
        """Pick the candidate the requester trusts most, using its own
        tables only; ties fall back to lexicographic id order."""
        recommended = self.stores[requester].recommended

        def estimate(candidate: str) -> float:
            # the ladder's order, inline: a `_ladder` closure per candidate slows a ranked run ~10%
            td = view.direct(requester, candidate, service.id)
            if td is not None:
                return td
            entry = recommended.lookup(service.id, candidate)
            if entry is not None and entry.td is not None:
                return entry.td
            return 0.0

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
                # cached in the recommended list but recomputed on every
                # miss, so stale values are never served
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
