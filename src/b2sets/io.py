"""Canonical JSON serialization for set families and element lists.

The JSON form is the interchange contract: values carry both the sparse
base-5 text and the exact decimal string, labels are written in full,
and the writer is byte-stable (sorted keys, fixed indentation, trailing
newline).

A family file is a recipe. Loading rebuilds the family from its kind and
its k and n (n_max for meyer), capped at the number of elements the file
lists, requires the file to equal the rebuild's JSON form, and returns
the rebuild: the stored payload is compared, never used. Any edit raises
ParameterError, which the CLI reports as a configuration error (exit code
2); a rebuild that fails its own invariant check raises
InternalVerificationFailure (exit code 5).
"""

from __future__ import annotations

import json
import math
import reprlib
from pathlib import Path

from .construct import (
    BoxElement,
    LabeledElement,
    MeyerElement,
    SetFamily,
    build_family,
)
from .digitnum import DigitVector
from .errors import EmptyConstruction, ParameterError, ResourceCap

FAMILY_SCHEMA = "b2sets.setfamily/1"
ELEMENTS_SCHEMA = "b2sets.elements/1"
REPORT_SCHEMA = "b2sets.report/1"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _value_dict(value: DigitVector) -> dict:
    return {"sparse": value.to_sparse(), "decimal": str(value.to_integer())}


def _element_dict(elem) -> dict:
    if isinstance(elem, LabeledElement):
        return {
            "coords": list(elem.point.coords),
            "preimage": list(elem.point.preimage),
            "j": elem.vector_index,
            **_value_dict(elem.value),
        }
    if isinstance(elem, MeyerElement):
        return {"hi": elem.hi, "lo": elem.lo, **_value_dict(elem.value)}
    if isinstance(elem, BoxElement):
        return {
            "indices": list(elem.indices),
            "signs": list(elem.signs),
            **_value_dict(elem.value),
        }
    raise ParameterError(f"cannot serialize element {elem!r}")


def family_to_dict(family: SetFamily) -> dict:
    out = {
        "schema": FAMILY_SCHEMA,
        "kind": family.kind,
        "ambient": family.ambient,
        "params": dict(family.params),
        "warnings": list(family.warnings),
        "code": family.code.to_dict() if family.code else None,
        "matrix": family.matrix.to_dict() if family.matrix else None,
    }
    if family.kind == "product":
        left, right = family.factors
        left_index = {e: i for i, e in enumerate(left.union_elements())}
        right_index = {e: i for i, e in enumerate(right.union_elements())}
        out["factors"] = {
            "left": family_to_dict(left),
            "right": family_to_dict(right),
        }
        out["parts"] = [
            {
                "name": part.name,
                "pairs": [
                    [left_index[e.left], right_index[e.right]]
                    for e in part.elements
                ],
            }
            for part in family.parts
        ]
    else:
        out["parts"] = [
            {
                "name": part.name,
                "elements": [_element_dict(e) for e in part.elements],
            }
            for part in family.parts
        ]
    return out


def _first_difference(want, got, path: str) -> str:
    """The path of the first place where ``got`` departs from ``want``."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(want.keys() | got.keys(), key=str):
            if key not in want or key not in got:
                return f"{path}.{key}"
            if want[key] != got[key]:
                return _first_difference(want[key], got[key], f"{path}.{key}")
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            if w != g:
                return _first_difference(w, g, f"{path}[{i}]")
    return path


def family_from_dict(data: dict) -> SetFamily:
    """Rebuild the family that ``data`` records and return the rebuild.

    Raises ParameterError unless ``data`` is exactly the rebuild's
    ``family_to_dict`` form. The rebuild may hold no more elements than
    the file lists, so an inflated recipe stops early.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != FAMILY_SCHEMA:
        raise ParameterError(f"not a set family file: schema {schema!r}")
    kind = data.get("kind")
    params = data.get("params")
    if not isinstance(params, dict):
        raise ParameterError("family file has no params object")
    recipe = {}
    for name in ("n_max",) if kind == "meyer" else ("k", "n"):
        value = params.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError(f"params.{name} must be an integer, not {value!r}")
        recipe[name] = value
    listed = "pairs" if kind == "product" else "elements"
    try:
        recorded = sum(len(part[listed]) for part in data.get("parts"))
    except (TypeError, KeyError):
        raise ParameterError(f"family file parts do not list their {listed}") from None
    try:
        family = build_family(kind, element_cap=recorded, **recipe)
    except EmptyConstruction as exc:
        raise ParameterError(f"family file records an empty recipe: {exc}") from None
    except ResourceCap as exc:
        raise ParameterError(
            f"family file lists {recorded} elements, fewer than its recipe builds: {exc}"
        ) from None
    rebuilt = family_to_dict(family)
    if rebuilt != data:
        where = _first_difference(rebuilt, data, "file")
        raise ParameterError(f"family file differs from its rebuild at {where}")
    return family


def save_family(family: SetFamily, path) -> None:
    Path(path).write_text(canonical_json(family_to_dict(family)))


def read_json(path):
    """The parsed contents of a JSON file. A path that cannot be read (a
    missing file, a directory, no permission), text that is not UTF-8,
    malformed JSON, arrays or objects nested too deeply to parse, and an
    integer longer than the interpreter's int-string limit (4,300 digits
    by default) are configuration errors."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParameterError(f"{path}: {exc}") from None


def load_family(path) -> SetFamily:
    return family_from_dict(read_json(path))


def load_elements(path):
    return elements_from_dict(read_json(path))


def elements_from_dict(data: dict):
    """A raw element list: either a set family file (its union) or an
    elements file {"schema": ..., "elements": [...]}. Entries may be
    decimal strings, sparse base-5 strings, integers, or pairs of these.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema == FAMILY_SCHEMA:
        return family_from_dict(data).union_values()
    if schema != ELEMENTS_SCHEMA:
        raise ParameterError(f"unrecognized schema {schema!r}")
    if not isinstance(data.get("elements"), list):
        raise ParameterError("elements file has no elements list")
    return [parse_element(e) for e in data["elements"]]


def parse_element(entry):
    """An element as an int, or a pair of ints from a list of two scalars.
    Text that is neither decimal nor sparse balanced base-5, and a pair
    whose coordinate is a list, are a ParameterError."""
    if isinstance(entry, bool):
        raise ParameterError(f"cannot parse element {entry!r}")
    if isinstance(entry, int):
        return entry
    if isinstance(entry, str):
        try:
            value = DigitVector.parse(entry)
        except ValueError as exc:
            raise ParameterError(f"element {entry[:40]!r}: {exc}") from None
        # a sparse power 5^e is built only if it has fewer decimal digits
        # than int() converts by default (4,300), the bound decimal text has
        if "^" in entry and value.digits:
            top = value.digits[-1][0]
            if top * math.log10(5) >= 4300:
                raise ParameterError(f"element {entry[:40]!r}: 5^{top} has too many digits")
        return value.to_integer()
    if isinstance(entry, list) and len(entry) == 2 and not any(isinstance(c, list) for c in entry):
        return tuple(parse_element(c) for c in entry)
    raise ParameterError(f"cannot parse element {reprlib.repr(entry)}")


def save_elements(elements, path) -> None:
    def encode(x):
        if isinstance(x, DigitVector):
            return x.to_sparse()
        if isinstance(x, int):
            return str(x)
        if isinstance(x, tuple):
            return [encode(c) for c in x]
        raise ParameterError(f"cannot serialize element {x!r}")

    payload = {
        "schema": ELEMENTS_SCHEMA,
        "elements": [encode(x) for x in elements],
    }
    Path(path).write_text(canonical_json(payload))
