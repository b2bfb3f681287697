"""Per-entity trust state.

Each entity keeps two tables: a direct-trust table holding its own
interaction histories, and a recommended-list table registering which
peers are known for each service together with the last recommendation
value computed for them.  Both tables serialize into one JSON snapshot
per entity.  `lookup_direct` recomputes direct trust on every call; a
run memoises it per request in its view of the stores.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional

from ._input import NUMBER, array, load_object, place, read, read_items
from .calculus import (
    DecayParams,
    InteractionRecord,
    ReputationFactor,
    _require_stored_unit,
    _require_time,
    direct_trust,
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
    """Misuse of a trust table: self-entries or a clock going backwards."""


class SnapshotError(ValueError):
    """A snapshot document could not be parsed or failed validation."""


@dataclass
class DirectEntry:
    """Interaction history for one (trustee, service) key.

    The history changes only through `DirectTrustTable.record_interaction`,
    which clears the cached evidence; it is derived again from the whole
    history on the next read.
    """

    history: list[InteractionRecord] = field(default_factory=list)
    _evidence: Optional[tuple[int, int, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def evidence(self) -> tuple[int, int, float]:
        """(n_positive, n_total, mean_score) of the history."""
        if self._evidence is None:
            n = len(self.history)
            n_positive = sum(1 for record in self.history if record.positive)
            mean_score = math.fsum(record.score for record in self.history) / n
            self._evidence = (n_positive, n, mean_score)
        return self._evidence

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


class DirectTrustTable:
    """Interaction histories one entity keeps about its trustees,
    keyed by (trustee, service)."""

    def __init__(self, owner: str, history_cap: Optional[int] = None):
        if history_cap is not None and history_cap < 1:
            raise ValueError(f"history_cap must be >= 1, got {history_cap!r}")
        self.owner = owner
        self.history_cap = history_cap
        self._entries: dict[tuple[str, str], DirectEntry] = {}
        self._trustees: dict[str, list[str]] = {}

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

    def trustees(self, service: str) -> list[str]:
        """The trustees holding an entry for the service, oldest first."""
        return self._trustees.get(service, [])

    def record_interaction(self, trustee: str, service: str, record: InteractionRecord) -> None:
        """Append one interaction; rejects self-trust and out-of-order times."""
        if trustee == self.owner:
            raise TableError(
                f"{self.owner!r} cannot record an interaction with itself; self-trust is implicit"
            )
        entry = self._entries.get((trustee, service))
        if entry is None:
            entry = DirectEntry()
            self._entries[(trustee, service)] = entry
            self._trustees.setdefault(service, []).append(trustee)
        elif record.time < entry.last_time:
            raise TableError(
                f"interaction at t={record.time!r} predates last recorded "
                f"t={entry.last_time!r} for ({trustee!r}, {service!r})"
            )
        entry.history.append(record)
        if self.history_cap is not None and len(entry.history) > self.history_cap:
            del entry.history[: len(entry.history) - self.history_cap]
        entry._evidence = None

    def lookup_direct(
        self,
        trustee: str,
        service: str,
        t_now: float,
        params: DecayParams,
        rf: Optional[ReputationFactor] = None,
    ) -> Optional[float]:
        """Direct trust recomputed over the stored history at `t_now`,
        or None when there is no history for the key."""
        entry = self._entries.get((trustee, service))
        return None if entry is None else direct_trust(entry.history, t_now, params, rf)


@dataclass
class RecommendedEntry:
    """One peer registered for a service, with the last recommendation
    value computed for it (None until one exists)."""

    peer: str
    td: Optional[float]
    updated_at: float


class RecommendedListTable:
    """Per-service registry of peers known to offer or rate a service."""

    def __init__(self, owner: str):
        self.owner = owner
        self._entries: dict[str, dict[str, RecommendedEntry]] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecommendedListTable):
            return NotImplemented
        return self.owner == other.owner and self._entries == other._entries

    def lookup(self, service: str, peer: str) -> Optional[RecommendedEntry]:
        return self._entries.get(service, {}).get(peer)

    def update(self, service: str, peer: str, td: Optional[float], t_now: float) -> None:
        """Upsert the entry for (service, peer); rejects self-entries."""
        if peer == self.owner:
            raise TableError(f"{self.owner!r} cannot appear in its own recommended list")
        if td is not None:
            _require_stored_unit(td, "recommended trust")
        _require_time(t_now, "recommended updated_at")
        self._entries.setdefault(service, {})[peer] = RecommendedEntry(peer, td, t_now)

    def register(self, service: str, peer: str, t_now: float = 0.0) -> None:
        """Add a peer for a service if absent, leaving any existing entry
        (and its cached value) untouched."""
        if peer == self.owner:
            raise TableError(f"{self.owner!r} cannot appear in its own recommended list")
        _require_time(t_now, "recommended updated_at")
        bucket = self._entries.setdefault(service, {})
        if peer not in bucket:
            bucket[peer] = RecommendedEntry(peer, None, t_now)

    def entries(self) -> Iterator[tuple[str, RecommendedEntry]]:
        for service in sorted(self._entries):
            for peer in sorted(self._entries[service]):
                yield service, self._entries[service][peer]


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
        recommended = [
            _RECOMMENDED % (
                quote(service), quote(entry.peer),
                "null" if entry.td is None else repr(entry.td), entry.updated_at,
            )
            for service, entry in self.recommended.entries()
        ]
        return '{\n  "owner": %s,\n  "direct": %s,\n  "recommended": %s\n}\n' % (
            quote(self.owner), array(direct, "  "), array(recommended, "  ")
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
