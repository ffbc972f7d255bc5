"""The relational aggregate directory (§3, §4.2, §5.3).

The paper excludes joins from GRIP itself — "a join operation can be
supported when needed via an optimized discovery service" — and notes
that "directories that maintain relational representations of associated
resources and that support SQL or some other relational query language
can of course be constructed in this framework."  This module is that
construction:

* a small in-memory relational engine (:class:`Table`, selection,
  projection, equi-joins, ordering) — "one can of course use any
  appropriate database technology to maintain the necessary indices";
* :class:`RelationalDirectory`, a :class:`~repro.giis.indexes.PullIndex`
  that follows each registration with a GRIP pull and reads the pulled
  entries as per-objectclass tables;
* the paper's canonical join — "find me an idle computer that is
  connected to an idle network" (§5.3) — as a worked query.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ldap.attributes import numeric_value
from ..ldap.entry import Entry
from .indexes import PullIndex

__all__ = ["Row", "Table", "RelationalDirectory"]

Row = Dict[str, str]


class Table:
    """An in-memory relation: named columns over string-valued rows.

    Values are strings (LDAP attribute values); predicates can use
    :func:`~repro.ldap.attributes.numeric_value` via the ``num`` helper
    column accessor for numeric comparison.
    """

    def __init__(self, name: str, rows: Optional[Iterable[Row]] = None):
        self.name = name
        self.rows: List[Row] = [dict(r) for r in (rows or [])]

    # -- algebra -----------------------------------------------------------

    def select(self, predicate: Callable[[Row], bool]) -> "Table":
        return Table(self.name, [r for r in self.rows if predicate(r)])

    def where(self, **equals: str) -> "Table":
        def pred(row: Row) -> bool:
            return all(row.get(k) == v for k, v in equals.items())

        return self.select(pred)

    def where_num(self, column: str, op: str, bound: float) -> "Table":
        """Numeric selection: op in < <= > >= == !=."""
        ops: Dict[str, Callable[[float, float], bool]] = {
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
            "==": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
        }
        try:
            cmp = ops[op]
        except KeyError:
            raise ValueError(f"unknown operator {op!r}") from None

        def pred(row: Row) -> bool:
            value = numeric_value(row.get(column, ""))
            return value is not None and cmp(value, bound)

        return self.select(pred)

    def project(self, columns: Sequence[str]) -> "Table":
        cols = list(columns)
        return Table(
            self.name, [{c: r.get(c, "") for c in cols} for r in self.rows]
        )

    def join(
        self,
        other: "Table",
        on: Sequence[Tuple[str, str]],
        prefix: bool = True,
    ) -> "Table":
        """Equi-join: hash join on the given (left_col, right_col) pairs.

        Columns of the right relation are prefixed ``<name>.`` when
        *prefix* is set, avoiding collisions.
        """
        if not on:
            raise ValueError("join requires at least one column pair")
        right_index: Dict[Tuple[str, ...], List[Row]] = {}
        for row in other.rows:
            key = tuple(row.get(rc, "") for _, rc in on)
            right_index.setdefault(key, []).append(row)
        out: List[Row] = []
        for left_row in self.rows:
            key = tuple(left_row.get(lc, "") for lc, _ in on)
            for right_row in right_index.get(key, ()):
                merged = dict(left_row)
                for col, value in right_row.items():
                    merged[f"{other.name}.{col}" if prefix else col] = value
                out.append(merged)
        return Table(f"{self.name}*{other.name}", out)

    def order_by(self, column: str, numeric: bool = True, reverse: bool = False) -> "Table":
        def key(row: Row):
            raw = row.get(column, "")
            if numeric:
                value = numeric_value(raw)
                return (value is None, value if value is not None else 0.0, raw)
            return (False, 0.0, raw)

        return Table(self.name, sorted(self.rows, key=key, reverse=reverse))

    def distinct(self) -> "Table":
        seen = set()
        out = []
        for row in self.rows:
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                out.append(row)
        return Table(self.name, out)

    def distinct_by(self, column: str) -> "Table":
        """Keep the first row per value of *column* (e.g. dedupe by dn
        when the same entity is reachable through multiple providers)."""
        seen = set()
        out = []
        for row in self.rows:
            key = row.get(column, "")
            if key not in seen:
                seen.add(key)
                out.append(row)
        return Table(self.name, out)

    def column(self, name: str) -> List[str]:
        return [r.get(name, "") for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class RelationalDirectory(PullIndex):
    """A specialized GIIS index holding relational views of VO resources.

    Entries pulled from providers are shredded into one table per
    objectclass; every row carries ``dn`` and ``provider`` columns so
    clients "can always refresh interesting information by directly
    consulting the authoritative source" (§3).
    """

    def derive(self, pulled: Mapping[str, Tuple[Entry, ...]]) -> Dict[str, Table]:
        tables: Dict[str, Table] = {}
        for url, entries in pulled.items():
            for entry in entries:
                row: Row = {"dn": str(entry.dn), "provider": url}
                for attr, values in entry.items():
                    row[attr.lower()] = values[0]
                for oc in entry.object_classes:
                    table = tables.setdefault(oc.lower(), Table(oc.lower()))
                    table.rows.append(dict(row))
        return tables

    def refresh_all(self) -> None:
        """Re-pull every active provider now."""
        assert self.giis is not None
        for registration in self.giis.registry.active():
            self.pull(registration)

    # -- query API -----------------------------------------------------------------

    def table(self, objectclass: str) -> Table:
        return self.view().get(objectclass.lower(), Table(objectclass.lower()))

    def tables(self) -> List[str]:
        return sorted(self.view())

    def row_count(self) -> int:
        return sum(len(t) for t in self.view().values())

    # -- the paper's worked join (§5.3) ------------------------------------------------

    def idle_computers_on_idle_networks(
        self,
        max_load: float = 1.0,
        min_bandwidth: float = 50.0,
        host_column: str = "hn",
    ) -> Table:
        """'Find me an idle computer that is connected to an idle network.'

        Joins computers (with their load averages) against network links
        whose source is the computer, selecting on both conditions —
        exactly the query §4.2 says plain GRIP cannot express.
        """
        # The same entity can be reachable through several providers
        # (e.g. directly and via its center directory); dedupe by dn so
        # the join does not multiply copies.
        computers = self.table("computer").distinct_by("dn")
        loads = self.table("loadaverage").distinct_by("dn")
        links = self.table("networklink").distinct_by("dn")
        # loadaverage rows live under their host: join on provider +
        # host-prefix of the dn.
        loads_with_host = Table(
            "load",
            [
                {**row, host_column: _host_of(row.get("dn", ""))}
                for row in loads.rows
            ],
        )
        idle = computers.join(loads_with_host, on=[(host_column, host_column)])
        idle = idle.where_num("load.load5", "<=", max_load)
        connected = idle.join(links, on=[(host_column, "src")])
        connected = connected.where_num("networklink.bandwidth", ">=", min_bandwidth)
        return connected


def _host_of(dn_text: str) -> str:
    """Extract the hn=... component of a DN string."""
    for piece in dn_text.split(","):
        piece = piece.strip()
        if piece.lower().startswith("hn="):
            return piece[3:]
    return ""
