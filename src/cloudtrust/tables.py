"""Per-entity trust state.

Each entity keeps two tables: a direct-trust table holding its own
interaction histories, and a recommended-list table registering which
peers are known for each service together with the last recommendation
value computed for them.  A run seeds the lists through `_seed` with
unrated entries that all stores share, one per (service, peer), and with
their record texts, each rendered once per run.  Both tables serialize
into one JSON snapshot per entity.  `lookup_direct` runs the decay over
a history's cached `HistoryColumns` on every call.  The chain search
reads `weights(service)`, the table's own `{trustee: edge weight}` map,
which recomputes only that service's keys recorded since it was last
read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Optional

from ._input import NUMBER, array, load_object, place, read, read_items
from .calculus import (
    DecayParams,
    HistoryColumns,
    InteractionRecord,
    ReputationFactor,
    _decayed_trust,
    _require_id,
    _require_time,
    _require_unit,
    edge_weight,
)

__all__ = [
    "TableError",
    "SnapshotError",
    "DirectEntry",
    "DirectTrustTable",
    "RecommendedEntry",
    "RecommendedListTable",
    "EntityStore",
]


class TableError(ValueError):
    """Misuse of a trust table: a non-string id, a self-entry or a clock
    going backwards."""


class SnapshotError(ValueError):
    """A snapshot document could not be parsed or failed validation."""


@dataclass
class DirectEntry:
    """Interaction history for one (trustee, service) key.

    The history changes only through `DirectTrustTable.record_interaction`,
    which clears the cached evidence, `HistoryColumns` and rendered
    snapshot edge and marks the key's edge weight stale; each is derived
    again from the whole history on its next read.
    """

    history: list[InteractionRecord] = field(default_factory=list)
    _evidence: Optional[tuple[int, int, float]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _columns: Optional[HistoryColumns] = field(
        default=None, init=False, repr=False, compare=False
    )
    _edge_fields: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def evidence(self) -> tuple[int, int, float]:
        """(n_positive, n_total, mean_score) of the history."""
        if self._evidence is None:
            n = len(self.history)
            n_positive = sum(1 for record in self.history if record.positive)
            mean_score = math.fsum(record.score for record in self.history) / n
            self._evidence = (n_positive, n, mean_score)
        return self._evidence

    @property
    def columns(self) -> HistoryColumns:
        """What direct trust reads of the history."""
        if self._columns is None:
            self._columns = HistoryColumns.of(self.history)
        return self._columns

    @property
    def last_time(self) -> float:
        return self.history[-1].time

    @property
    def n_total(self) -> int:
        return len(self.history)

    @property
    def n_positive(self) -> int:
        return self.evidence()[0]

    @property
    def mean_score(self) -> float:
        return self.evidence()[2]


def _check_history_cap(cap: Optional[int]) -> None:
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 1):
        raise ValueError(f"history_cap must be an integer >= 1, got {cap!r}")


class DirectTrustTable:
    """Interaction histories one entity keeps about its trustees,
    keyed by (trustee, service)."""

    def __init__(self, owner: str, history_cap: Optional[int] = None):
        _check_history_cap(history_cap)
        self.owner = _require_id(owner, "owner", TableError)
        self.history_cap = history_cap
        self._entries: dict[tuple[str, str], DirectEntry] = {}
        # per service: `weights(service)`, and the trustees recorded since its last read
        self._weights: dict[str, dict[str, float]] = {}
        self._stale: dict[str, set[str]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectTrustTable):
            return NotImplemented
        return self.owner == other.owner and {
            key: entry.history for key, entry in self._entries.items()
        } == {key: entry.history for key, entry in other._entries.items()}

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._entries)

    def entry(self, trustee: str, service: str) -> Optional[DirectEntry]:
        return self._entries.get((trustee, service))

    def weights(self, service: str) -> dict[str, float]:
        """`{trustee: edge_weight(*evidence)}` of the service's entries, oldest
        first.  This is the table's own map: callers must not mutate it."""
        stale = self._stale.get(service)
        if stale:
            weights = self._weights[service]
            for trustee in stale:
                weights[trustee] = edge_weight(*self._entries[(trustee, service)].evidence())
            stale.clear()
        return self._weights.get(service, {})

    def record_interaction(self, trustee: str, service: str, record: InteractionRecord) -> None:
        """Append one interaction; rejects self-trust and out-of-order times."""
        if trustee == self.owner:
            raise TableError(
                f"{self.owner!r} cannot record an interaction with itself; self-trust is implicit"
            )
        entry = self._entries.get((trustee, service))
        if entry is None:
            # the ids of a key already held were checked when it was added
            _require_id(trustee, "trustee", TableError)
            _require_id(service, "service", TableError)
            entry = DirectEntry()
            self._entries[(trustee, service)] = entry
            # keeps the first-record order; the value is stale until the next read
            self._weights.setdefault(service, {})[trustee] = 0.0
        elif record.time < entry.last_time:
            raise TableError(
                f"interaction at t={record.time!r} predates last recorded "
                f"t={entry.last_time!r} for ({trustee!r}, {service!r})"
            )
        entry.history.append(record)
        if self.history_cap is not None and len(entry.history) > self.history_cap:
            del entry.history[: len(entry.history) - self.history_cap]
        entry._evidence = entry._columns = entry._edge_fields = None
        self._stale.setdefault(service, set()).add(trustee)

    def lookup_direct(
        self,
        trustee: str,
        service: str,
        t_now: float,
        params: DecayParams,
        rf: Optional[ReputationFactor] = None,
    ) -> Optional[float]:
        """Direct trust over the stored history at `t_now`, or None when
        there is no history for the key."""
        entry = self._entries.get((trustee, service))
        return None if entry is None else _decayed_trust(entry.columns, t_now, params, rf)


class RecommendedEntry(NamedTuple):
    """One peer registered for a service, with the last recommendation
    value computed for it (None until one exists)."""

    peer: str
    td: Optional[float]
    updated_at: float


class RecommendedListTable:
    """Per-service registry of peers known to offer or rate a service.
    An entry is immutable and `update` replaces it, so lists may share one."""

    def __init__(self, owner: str):
        self.owner = _require_id(owner, "owner", TableError)
        self._entries: dict[str, dict[str, RecommendedEntry]] = {}
        self._unrated: dict[str, tuple[dict[str, RecommendedEntry], dict[str, str]]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecommendedListTable):
            return NotImplemented
        return self.owner == other.owner and self._entries == other._entries

    def update(self, service: str, peer: str, td: Optional[float], t_now: float) -> None:
        """Upsert the entry for (service, peer); rejects self-entries."""
        _require_id(service, "service", TableError)
        _require_id(peer, "peer", TableError)
        if peer == self.owner:
            raise TableError(f"{self.owner!r} cannot appear in its own recommended list")
        if td is not None:
            _require_unit(td, "recommended trust")
        _require_time(t_now, "recommended updated_at")
        self._entries.setdefault(service, {})[peer] = RecommendedEntry(peer, td, t_now)

    def _seed(self, service: str, unrated: dict[str, RecommendedEntry], texts: dict) -> None:
        """The service's list for a run's seeding from a checked config: the run's
        `unrated` entries less the owner.  Lists share them and `texts`, their
        record texts, each rendered by the first store that writes it."""
        entries = unrated.copy()
        entries.pop(self.owner, None)
        if entries:
            self._entries[service] = entries
            self._unrated[service] = unrated, texts

    def entries(self) -> Iterator[tuple[str, RecommendedEntry]]:
        for service in sorted(self._entries):
            for peer in sorted(self._entries[service]):
                yield service, self._entries[service][peer]

    def _records(self) -> list[str]:
        """Each entry's record text, in `entries` order.  Only the run's shared
        unrated entry itself takes its shared text: an equal one may render
        otherwise (`0` for `0.0`)."""
        records = []
        for service in sorted(self._entries):
            entries = self._entries[service]
            unrated, texts = self._unrated.get(service) or ({}, {})
            for peer in sorted(entries):
                entry = entries[peer]
                if entry is unrated.get(peer):
                    text = texts.get(peer)
                    if text is None:
                        text = texts[peer] = _recommended_record(service, entry)
                else:
                    text = _recommended_record(service, entry)
                records.append(text)
        return records


# The records of a snapshot document, laid out as `json.dumps(..., indent=2)` does.
_DIRECT = """    {
      "trustee": %s,
      "service": %s,
      "history": %s
    }"""
_RECORD = """        {
          "t": %r,
          "score": %r,
          "positive": %s
        }"""
_RECOMMENDED = """    {
      "service": %s,
      "peer": %s,
      "td": %s,
      "updated_at": %r
    }"""


def _recommended_record(service: str, entry: RecommendedEntry) -> str:
    quote, td = encode_basestring_ascii, "null" if entry.td is None else repr(entry.td)
    return _RECOMMENDED % (quote(service), quote(entry.peer), td, entry.updated_at)


@dataclass
class EntityStore:
    """Both tables one entity maintains, snapshotted as a single unit."""

    owner: str
    direct: DirectTrustTable
    recommended: RecommendedListTable

    @classmethod
    def new(cls, owner: str, history_cap: Optional[int] = None) -> "EntityStore":
        return cls(owner, DirectTrustTable(owner, history_cap), RecommendedListTable(owner))

    def to_json(self) -> str:
        """Serialize to the snapshot document (sorted, diff-friendly)."""
        quote = encode_basestring_ascii
        direct = []
        for trustee, service in self.direct.keys():
            history = [
                _RECORD % (r.time, r.score, "true" if r.positive else "false")
                for r in self.direct.entry(trustee, service).history
            ]
            direct.append(
                _DIRECT % (quote(trustee), quote(service), array(history, "      "))
            )
        return '{\n  "owner": %s,\n  "direct": %s,\n  "recommended": %s\n}\n' % (
            quote(self.owner), array(direct, "  "), array(self.recommended._records(), "  ")
        )

    @classmethod
    def from_json(cls, text: str) -> "EntityStore":
        """Restore a store from a snapshot document.

        Histories are replayed through `record_interaction`, so the
        monotone-clock and no-self-trust invariants are re-checked.
        """
        document = load_object(text, SnapshotError, "snapshot")
        try:
            store = cls.new(read(document, "owner", str, "snapshot", SnapshotError))
            for at, item in read_items(document, "direct", dict, "snapshot", SnapshotError):
                trustee = read(item, "trustee", str, at, SnapshotError)
                service = read(item, "service", str, at, SnapshotError)
                for rec, raw in read_items(item, "history", dict, at, SnapshotError):
                    record = InteractionRecord(
                        time=read(raw, "t", NUMBER, rec, SnapshotError),
                        score=read(raw, "score", NUMBER, rec, SnapshotError),
                        positive=read(raw, "positive", bool, rec, SnapshotError),
                    )
                    store.direct.record_interaction(trustee, service, record)
                if not item["history"]:
                    raise SnapshotError(f"{place((at, 'history'))} must not be empty")
            for at, item in read_items(document, "recommended", dict, "snapshot", SnapshotError):
                store.recommended.update(
                    read(item, "service", str, at, SnapshotError),
                    read(item, "peer", str, at, SnapshotError),
                    read(item, "td", NUMBER, at, SnapshotError, None),
                    read(item, "updated_at", NUMBER, at, SnapshotError),
                )
        except SnapshotError:
            raise
        except (OverflowError, ValueError) as exc:
            raise SnapshotError(f"snapshot failed validation: {exc}") from exc
        return store
