"""JSON interchange for semigroups, structure inputs, action tables and
spined-product inputs.

All files are plain JSON objects. Multiplication tables are row-major with
table[a][b] = a*b. Map families are encoded sparsely: alpha and beta as
objects keyed "x,y" whose values are objects keyed "f,g" mapping to an
element index; actions as a single object keyed "x,e". An element index is
a JSON integer: true and false are refused, though Python reads them as ints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import FiniteSemigroup, validate_table
from .construct import ActionTable, StructureInput
from .errors import SchemaError, SemigroupError


@dataclass(frozen=True)
class SemigroupFile:
    """A named semigroup plus optional named element subsets."""

    name: str
    semigroup: FiniteSemigroup
    subsets: dict[str, tuple[int, ...]]


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(path, f"cannot read JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(path, "top level must be an object")
    return data


def _semigroup_from_obj(obj, path, where="") -> FiniteSemigroup:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"{where or 'semigroup'} must be an object")
    table = obj.get("table")
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise SchemaError(path, f"{where}table must be a list of rows")
    order = obj.get("order", len(table))
    if type(order) is not int:
        raise SchemaError(path, f"{where}order must be an integer")
    if order != len(table):
        raise SchemaError(path, f"{where}order {order} does not match {len(table)} rows")
    for i, row in enumerate(table):
        if len(row) != order:
            raise SchemaError(path, f"{where}row {i} has {len(row)} entries, expected {order}")
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or len(labels) != order
        or not all(isinstance(s, str) for s in labels)
    ):
        raise SchemaError(path, f"{where}labels must be {order} strings")
    try:
        return validate_table(table, labels=labels)
    except SemigroupError as exc:
        raise SchemaError(path, f"{where}invalid table: {exc}") from None


def parse_semigroup(path) -> SemigroupFile:
    """Read and validate a semigroup file."""
    data = _load_json(path)
    S = _semigroup_from_obj(data, path)
    name = data.get("name", Path(str(path)).stem)
    if not isinstance(name, str):
        raise SchemaError(path, "name must be a string")
    subsets: dict[str, tuple[int, ...]] = {}
    raw_subsets = data.get("subsets", {})
    if not isinstance(raw_subsets, dict):
        raise SchemaError(path, "subsets must be an object")
    for key, members in raw_subsets.items():
        if not isinstance(members, list) or not all(
            type(x) is int and 0 <= x < S.order for x in members
        ):
            raise SchemaError(path, f"subset {key!r} must list element indices")
        subsets[str(key)] = tuple(sorted(set(members)))
    return SemigroupFile(name=name, semigroup=S, subsets=subsets)


def semigroup_to_obj(S: FiniteSemigroup, name: str = "", subsets=None) -> dict:
    obj: dict = {"order": S.order, "table": [list(r) for r in S.table]}
    if name:
        obj["name"] = name
    if S.labels is not None:
        obj["labels"] = list(S.labels)
    if subsets:
        obj["subsets"] = {k: sorted(v) for k, v in subsets.items()}
    return obj


def serialize(S: FiniteSemigroup, path, name: str = "", subsets=None) -> None:
    """Write a semigroup file; parse(serialize(S)) returns an equal semigroup."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(semigroup_to_obj(S, name=name, subsets=subsets), fh, indent=1, sort_keys=True)
        fh.write("\n")


# --- keyed map families ------------------------------------------------------


def _parse_pair_key(key, path) -> tuple[int, int]:
    parts = str(key).split(",")
    if len(parts) != 2:
        raise SchemaError(path, f"key {key!r} must look like 'i,j'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise SchemaError(path, f"key {key!r} must hold two integers") from None


def _parse_family(obj, path, what) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"{what} must be an object")
    fam: dict = {}
    for xy, inner in obj.items():
        if not isinstance(inner, dict):
            raise SchemaError(path, f"{what}[{xy!r}] must be an object")
        entry = {}
        for fg, v in inner.items():
            if not type(v) is int:
                raise SchemaError(path, f"{what}[{xy!r}][{fg!r}] must be an integer")
            entry[_parse_pair_key(fg, path)] = v
        fam[_parse_pair_key(xy, path)] = entry
    return fam


def _family_to_obj(fam) -> dict:
    return {
        f"{x},{y}": {f"{f},{g}": v for (f, g), v in sorted(inner.items())}
        for (x, y), inner in sorted(fam.items())
    }


def _parse_embedding(obj, path, what) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"{what} must be an object")
    out = {}
    for k, v in obj.items():
        try:
            key = int(k)
        except (TypeError, ValueError):
            raise SchemaError(path, f"{what} keys must be integers") from None
        if not type(v) is int:
            raise SchemaError(path, f"{what}[{k!r}] must be an integer")
        out[key] = v
    return out


def parse_structure_input(path) -> StructureInput:
    """Read the general builder's input: s0, the two bands, embeddings, alpha, beta."""
    data = _load_json(path)
    for fieldname in ("s0", "i_band", "lambda_band", "e0_in_i", "e0_in_lambda"):
        if fieldname not in data:
            raise SchemaError(path, f"missing field {fieldname!r}")
    return StructureInput(
        s0=_semigroup_from_obj(data["s0"], path, "s0."),
        i_band=_semigroup_from_obj(data["i_band"], path, "i_band."),
        lambda_band=_semigroup_from_obj(data["lambda_band"], path, "lambda_band."),
        e0_in_i=_parse_embedding(data["e0_in_i"], path, "e0_in_i"),
        e0_in_lambda=_parse_embedding(data["e0_in_lambda"], path, "e0_in_lambda"),
        alpha=_parse_family(data.get("alpha", {}), path, "alpha"),
        beta=_parse_family(data.get("beta", {}), path, "beta"),
    )


def structure_input_to_obj(si: StructureInput) -> dict:
    return {
        "s0": semigroup_to_obj(si.s0),
        "i_band": semigroup_to_obj(si.i_band),
        "lambda_band": semigroup_to_obj(si.lambda_band),
        "e0_in_i": {str(k): v for k, v in sorted(si.e0_in_i.items())},
        "e0_in_lambda": {str(k): v for k, v in sorted(si.e0_in_lambda.items())},
        "alpha": _family_to_obj(si.alpha),
        "beta": _family_to_obj(si.beta),
    }


def serialize_structure_input(si: StructureInput, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(structure_input_to_obj(si), fh, indent=1, sort_keys=True)
        fh.write("\n")


def parse_action_table(path) -> ActionTable:
    """Read the semidirect builder's input: s0, the band, embedding, action."""
    data = _load_json(path)
    for fieldname in ("s0", "i_band", "e0_in_i", "action"):
        if fieldname not in data:
            raise SchemaError(path, f"missing field {fieldname!r}")
    raw = data["action"]
    if not isinstance(raw, dict):
        raise SchemaError(path, "action must be an object")
    act = {}
    for k, v in raw.items():
        if not type(v) is int:
            raise SchemaError(path, f"action[{k!r}] must be an integer")
        act[_parse_pair_key(k, path)] = v
    return ActionTable(
        s0=_semigroup_from_obj(data["s0"], path, "s0."),
        i_band=_semigroup_from_obj(data["i_band"], path, "i_band."),
        e0_in_i=_parse_embedding(data["e0_in_i"], path, "e0_in_i"),
        act=act,
    )


def action_table_to_obj(at: ActionTable) -> dict:
    return {
        "s0": semigroup_to_obj(at.s0),
        "i_band": semigroup_to_obj(at.i_band),
        "e0_in_i": {str(k): v for k, v in sorted(at.e0_in_i.items())},
        "action": {f"{x},{e}": v for (x, e), v in sorted(at.act.items())},
    }


def serialize_action_table(at: ActionTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(action_table_to_obj(at), fh, indent=1, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class SpinedInput:
    """Input for the spined-product builder: two parts, their transversal
    subsets, and an optional identification of the transversal copies."""

    left: FiniteSemigroup
    left_transversal: tuple[int, ...]
    right: FiniteSemigroup
    right_transversal: tuple[int, ...]
    identify: dict | None


def parse_spined_input(path) -> SpinedInput:
    data = _load_json(path)
    for fieldname in ("left", "left_transversal", "right", "right_transversal"):
        if fieldname not in data:
            raise SchemaError(path, f"missing field {fieldname!r}")
    left = _semigroup_from_obj(data["left"], path, "left.")
    right = _semigroup_from_obj(data["right"], path, "right.")
    for fieldname, S in (("left_transversal", left), ("right_transversal", right)):
        members = data[fieldname]
        if not isinstance(members, list) or not all(
            type(x) is int and 0 <= x < S.order for x in members
        ):
            raise SchemaError(path, f"{fieldname} must list element indices")
    identify = None
    if data.get("identify") is not None:
        identify = _parse_embedding(data["identify"], path, "identify")
    return SpinedInput(
        left=left,
        left_transversal=tuple(sorted(set(data["left_transversal"]))),
        right=right,
        right_transversal=tuple(sorted(set(data["right_transversal"]))),
        identify=identify,
    )
