"""JSON interchange format for finite PMQs and PMRs.

The schema::

    {
      "elements": ["1", "a", "b"],
      "unit": "1",
      "conj": {"a": {"b": "a"}},          # a^b, rows may omit fixed points
      "prod": [["a", "b", "c"], ...],     # defined products only
      "norm": {"a": 1},                   # optional
      "rack": true                        # optional, default false
    }

Missing ``conj`` entries default to the row element itself (so abelian
structures need no table at all); absent ``prod`` triples mean the product
is undefined; ``norm`` is optional.  Labels not declared in ``elements``
are structural errors.
"""

from __future__ import annotations

import json
from typing import Any

from .core import FinitePmq
from .errors import StructureError

__all__ = ["pmq_from_json", "pmq_to_json", "load_pmq", "dump_pmq"]


def _labels_or_raise(values: Any, what: str) -> list[str]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise StructureError(f"{what} must be a list of element labels")
    return values


def _object_or_raise(value: Any, what: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise StructureError(f"{what} must be an object")
    return value


def pmq_from_json(data: dict[str, Any]) -> tuple[FinitePmq, bool]:
    """Build a FinitePmq (plus a rack flag) from parsed JSON; a field of the
    wrong type or shape raises ``StructureError``."""
    _object_or_raise(data, "top-level JSON value")
    try:
        labels = _labels_or_raise(data["elements"], "elements")
        unit_label = data["unit"]
    except KeyError as missing:
        raise StructureError(f"missing field {missing}") from None
    if len(set(labels)) != len(labels):
        raise StructureError("duplicate element labels")
    index = {lbl: i for i, lbl in enumerate(labels)}
    if not isinstance(unit_label, str) or unit_label not in index:
        raise StructureError(f"unit {unit_label!r} not among the elements")
    n = len(labels)

    conj = [[a for _ in range(n)] for a in range(n)]
    for a_lbl, row in _object_or_raise(data.get("conj", {}), "conj").items():
        if a_lbl not in index:
            raise StructureError(f"conjugation row for unknown element {a_lbl!r}")
        for b_lbl, img in _object_or_raise(row, f"conjugation row {a_lbl!r}").items():
            if b_lbl not in index or not isinstance(img, str) or img not in index:
                raise StructureError(f"conjugation entry ({a_lbl!r}, {b_lbl!r}) out of range")
            conj[index[a_lbl]][index[b_lbl]] = index[img]

    triples = data.get("prod", [])
    if not isinstance(triples, list):
        raise StructureError("prod must be a list of triples")
    prod: dict[tuple[int, int], int] = {}
    for triple in triples:
        if len(_labels_or_raise(triple, "each product entry")) != 3:
            raise StructureError(f"product entries must be triples, got {triple!r}")
        a, b, c = triple
        if a not in index or b not in index or c not in index:
            raise StructureError(f"product entry {triple!r} out of range")
        key = (index[a], index[b])
        if key in prod and prod[key] != index[c]:
            raise StructureError(f"conflicting product entries for ({a!r}, {b!r})")
        prod[key] = index[c]
    u = index[unit_label]
    for a in range(n):
        prod.setdefault((u, a), a)
        prod.setdefault((a, u), a)

    norm = None
    if "norm" in data and data["norm"] is not None:
        norm = [0] * n
        raw = _object_or_raise(data["norm"], "norm")
        if set(raw) != set(labels):
            raise StructureError("norm must be given on every element")
        for lbl, v in raw.items():
            # bool is a subclass of int, but true is not a norm
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise StructureError(f"norm of {lbl!r} must be a nonnegative integer")
            norm[index[lbl]] = v

    rack = data.get("rack", False)
    if not isinstance(rack, bool):
        raise StructureError("rack must be true or false")
    return FinitePmq.build(labels, u, conj, prod, norm), rack


def pmq_to_json(q: FinitePmq, *, rack: bool = False) -> dict[str, Any]:
    labels = q.labels
    conj = {
        a_lbl: {
            labels[b]: labels[q.conj[a][b]]
            for b in range(len(labels))
            if q.conj[a][b] != a
        }
        for a, a_lbl in enumerate(labels)
    }
    conj = {a: row for a, row in conj.items() if row}
    u = q.unit
    prod = [
        [labels[a], labels[b], labels[c]]
        for (a, b), c in sorted(q.prod.items())
        if a != u and b != u
    ]
    out: dict[str, Any] = {
        "elements": list(labels),
        "unit": labels[q.unit],
        "conj": conj,
        "prod": prod,
    }
    if q.norm is not None:
        out["norm"] = {labels[a]: q.norm[a] for a in range(len(labels))}
    if rack:
        out["rack"] = True
    return out


def load_pmq(path: str) -> tuple[FinitePmq, bool]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StructureError(f"cannot read {path}: {exc}") from None
    return pmq_from_json(data)


def dump_pmq(q: FinitePmq, path: str, *, rack: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump(pmq_to_json(q, rack=rack), fh, indent=2)
        fh.write("\n")
