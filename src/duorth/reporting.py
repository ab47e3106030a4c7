"""Verification reports: one line per checked identity, tagged and carrying
the verified horizon. Checks raise IdentityViolated at the first failure;
a Report therefore lists what was verified and how far, and every item it
holds, like the report itself, reads "ok": true."""
from __future__ import annotations

__all__ = ["Report"]


class Report:
    """An ordered list of verified identity tags with horizons."""

    def __init__(self, name: str):
        self.name = name
        self.items: list[dict] = []

    def add(self, tag: str, horizon=None, detail: str = ""):
        entry = {"tag": tag, "ok": True}
        if horizon is not None:
            entry["horizon"] = horizon
        if detail:
            entry["detail"] = detail
        self.items.append(entry)

    def merge(self, other: "Report"):
        self.items.extend(other.items)
        return self

    def to_tree(self) -> dict:
        return {"name": self.name, "ok": True, "items": self.items}

    def __repr__(self):
        return f"Report({self.name}: {len(self.items)} items)"
