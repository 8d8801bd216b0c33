"""Structure files: canonical JSON documents for the four structure
kinds (semigroupoid, poset, action, triple) plus load/save helpers.

Serialization is canonical: sorted keys, entities listed in index order,
references by unique name.  parse(serialize(x)) == x on validated
structures.
"""
from __future__ import annotations

import json
from itertools import chain
from typing import Any

from .actions import PartialActionData, make_action
from .core import FiniteSemigroupoid, arrows_by_end, validate_semigroupoid
from .errors import ParseError, ValidationError
from .inverse import InverseSemigroupoid, promote_to_inverse
from .posets import FinitePoset, validate_poset
from .ptheorem import McAlisterTriple, validate_mcalister_triple

FORMAT_VERSION = 1


def _require(doc: Any, key: str, kind: type = object):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing field {key!r}")
    if not isinstance(doc[key], kind):
        raise ParseError(f"field {key!r} is not a {kind.__name__}")
    return doc[key]


def _flag(doc: dict, key: str) -> bool:
    """An optional boolean field; absent reads as False."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise ParseError(f"field {key!r} is not a boolean")
    return value


def _check_header(doc: Any, kind: str) -> None:
    """A document, nested ones included, that names a version names the
    integer FORMAT_VERSION (``true`` is not an integer here), and one
    that names a kind names ``kind``, the one its place calls for."""
    if not isinstance(doc, dict):
        return
    if "version" in doc:
        version = doc["version"]
        if type(version) is not int or version != FORMAT_VERSION:
            raise ParseError(f"unsupported version {version!r}")
    if doc.get("kind", kind) != kind:
        raise ParseError(
            f"document of kind {doc['kind']!r} where {kind!r} is expected"
        )


def _known(name: Any, index: dict[str, int]) -> bool:
    return isinstance(name, str) and name in index


def _known_pair(pair: Any, index: dict[str, int]) -> bool:
    """Whether pair is a list of two names in index."""
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and all(_known(x, index) for x in pair)
    )


# Each reader of an array below checks the whole array at once first
# (the set of its entries' types, of their lengths, and its names as a
# subset of the index), and runs its per-entry scan only when that check
# fails, so that the first bad entry names the error.  The whole-array
# checks accept only exact list, int and str instances; the scan also
# takes instances of their subclasses.

def _all_known(names: list, index: dict[str, int]) -> bool:
    """Whether every item of names is a string in index."""
    return set(map(type, names)) <= {str} and index.keys() >= set(names)


def _index_pairs(pairs: list, index: dict[str, int]) -> list[tuple[int, int]] | None:
    """The index pairs of a list of two-name lists of names in index;
    None when pairs has another shape."""
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        return None
    names = list(chain.from_iterable(pairs))
    if not _all_known(names, index):
        return None
    ids = list(map(index.__getitem__, names))
    return list(zip(ids[::2], ids[1::2]))


def _triples(mul: list) -> list[list[int]]:
    """The product triples of a ``mul`` array: its parsed ``[s, t, r]``
    lists themselves, once checked, with no copy."""
    if (
        set(map(type, mul)) <= {list}
        and set(map(len, mul)) <= {3}
        and set(map(type, chain.from_iterable(mul))) <= {int}
    ):
        return mul
    for t in mul:
        if not (
            isinstance(t, list)
            and len(t) == 3
            and all(isinstance(a, int) and not isinstance(a, bool) for a in t)
        ):
            raise ParseError(f"bad product triple {t!r}")
    return mul


def _order_pairs(pairs: list, index: dict[str, int]) -> list[tuple[int, int]]:
    """The index pairs of an order's ``[lower, upper]`` name pairs."""
    ids = _index_pairs(pairs, index)
    if ids is not None:
        return ids
    ids = []
    for pair in pairs:
        if not _known_pair(pair, index):
            raise ParseError(f"bad order pair {pair!r}")
        ids.append((index[pair[0]], index[pair[1]]))
    return ids


def _domain(pts: Any, index: dict[str, int], name: str) -> frozenset[int]:
    """The points of the domain of arrow name."""
    if not (
        (type(pts) is list and _all_known(pts, index))
        or (isinstance(pts, list) and all(_known(p, index) for p in pts))
    ):
        raise ParseError(f"bad domain {pts!r} of arrow {name!r}")
    return frozenset(map(index.__getitem__, pts))


def _point_map(pairs: Any, index: dict[str, int], name: str) -> dict[int, int]:
    """The map of arrow name from its ``[point, image]`` pairs."""
    if not isinstance(pairs, list):
        raise ParseError(f"map of {name!r} is not a list")
    ids = _index_pairs(pairs, index)
    if ids is not None:
        m = dict(ids)
        if len(m) == len(ids):
            return m
    m = {}
    for pair in pairs:
        if not _known_pair(pair, index):
            raise ParseError(f"bad map pair {pair!r}")
        if index[pair[0]] in m:
            raise ParseError(f"point {pair[0]!r} mapped twice by {name!r}")
        m[index[pair[0]]] = index[pair[1]]
    return m


def _unique_names(names, what: str) -> dict[str, int]:
    index = {}
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise ParseError(f"{what} name {name!r} is not a string")
        if name in index:
            raise ParseError(f"duplicate {what} name {name!r}")
        index[name] = i
    return index


# ------------------------------------------------------------ semigroupoid

def semigroupoid_to_doc(sg: FiniteSemigroupoid) -> dict:
    into = arrows_by_end(sg.cod, sg.n_objects)
    return {
        "kind": "semigroupoid",
        "version": FORMAT_VERSION,
        "objects": list(sg.object_names),
        "arrows": [
            {
                "name": sg.arrow_names[s],
                "dom": sg.object_names[sg.dom[s]],
                "cod": sg.object_names[sg.cod[s]],
            }
            for s in sg.arrows()
        ],
        # one (s, t, s*t) entry per composable pair in row-major order,
        # built as lists (_triples reads list rows only) straight from the
        # stored rows
        "mul": [
            [s, t, r] for s, row in enumerate(sg.rows) for t, r in zip(into[sg.dom[s]], row)
        ],
    }


def semigroupoid_from_doc(doc: dict) -> FiniteSemigroupoid:
    _check_header(doc, "semigroupoid")
    objects = _require(doc, "objects", list)
    arrows = _require(doc, "arrows", list)
    mul = _require(doc, "mul", list)
    obj_index = _unique_names(objects, "object")
    names = []
    dom = []
    cod = []
    for entry in arrows:
        names.append(_require(entry, "name"))
        d = _require(entry, "dom")
        c = _require(entry, "cod")
        if not (_known(d, obj_index) and _known(c, obj_index)):
            raise ParseError(f"unknown object in arrow {entry!r}")
        dom.append(obj_index[d])
        cod.append(obj_index[c])
    _unique_names(names, "arrow")
    return validate_semigroupoid(
        dom,
        cod,
        _triples(mul),
        n_objects=len(objects),
        arrow_names=names,
        object_names=objects,
    )


# ------------------------------------------------------------------- poset

def poset_to_doc(poset: FinitePoset) -> dict:
    return {
        "kind": "poset",
        "version": FORMAT_VERSION,
        "elements": list(poset.names),
        "leq": [
            [poset.names[x], poset.names[y]]
            for x in poset.elements()
            for y in poset.above(x)
        ],
    }


def poset_from_doc(doc: dict) -> FinitePoset:
    _check_header(doc, "poset")
    elements = _require(doc, "elements", list)
    index = _unique_names(elements, "element")
    pairs = _order_pairs(_require(doc, "leq", list), index)
    return validate_poset(
        pairs, len(elements), names=elements, auto_close=_flag(doc, "auto_close")
    )


# ------------------------------------------------------------------ action

def action_maps_doc(a: PartialActionData) -> dict:
    """The ``domains`` and ``maps`` entries of an action's document, by
    arrow and carrier point names."""
    arrow_names, names = a.actor.base.arrow_names, a.carrier_names
    return {
        "domains": {
            arrow_names[s]: sorted(names[x] for x in a.domains[s])
            for s in a.actor.arrows()
        },
        "maps": {
            arrow_names[s]: [[names[x], names[y]] for x, y in a.maps[s].items()]
            for s in a.actor.arrows()
        },
    }


def action_to_doc(a: PartialActionData) -> dict:
    doc = {
        "kind": "action",
        "version": FORMAT_VERSION,
        "actor": semigroupoid_to_doc(a.actor.base),
        "carrier": list(a.carrier_names),
        **action_maps_doc(a),
        "global": a.global_flag,
    }
    if a.order is not None:
        doc["order"] = [
            [a.carrier_names[x], a.carrier_names[y]]
            for x in a.order.elements()
            for y in a.order.above(x)
        ]
    return doc


def action_from_doc(doc: dict) -> PartialActionData:
    _check_header(doc, "action")
    actor = promote_to_inverse(semigroupoid_from_doc(_require(doc, "actor")))
    carrier = _require(doc, "carrier", list)
    carrier_index = _unique_names(carrier, "carrier point")
    arrow_index = _unique_names(actor.base.arrow_names, "arrow")

    raw_domains = _require(doc, "domains", dict)
    raw_maps = _require(doc, "maps", dict)
    domains = [frozenset() for _ in actor.arrows()]
    maps: list[dict[int, int]] = [dict() for _ in actor.arrows()]
    for name, pts in raw_domains.items():
        if name not in arrow_index:
            raise ParseError(f"unknown arrow {name!r} in domains")
        domains[arrow_index[name]] = _domain(pts, carrier_index, name)
    for name, pairs in raw_maps.items():
        if name not in arrow_index:
            raise ParseError(f"unknown arrow {name!r} in maps")
        maps[arrow_index[name]] = _point_map(pairs, carrier_index, name)

    order = None
    if "order" in doc:
        pairs = _order_pairs(_require(doc, "order", list), carrier_index)
        order = validate_poset(pairs, len(carrier), names=carrier)

    # the file lists the domains beside the maps, which alone define them
    try:
        for s in actor.arrows():
            if maps[s].keys() != domains[actor.inv[s]]:
                raise ValidationError(
                    "MalformedAction", (s,), "map keys differ from declared domain"
                )
        return make_action(
            actor,
            carrier,
            maps,
            order=order,
            global_flag=_flag(doc, "global"),
        )
    except ValidationError as exc:
        raise ParseError(f"malformed action: {exc}") from exc


# ------------------------------------------------------------------ triple

def triple_to_doc(t: McAlisterTriple) -> dict:
    return {
        "kind": "triple",
        "version": FORMAT_VERSION,
        "groupoid": semigroupoid_to_doc(t.groupoid.base),
        "space": poset_to_doc(t.space),
        "ideal": sorted(t.space.names[x] for x in t.ideal),
        "action": action_to_doc(t.action),
    }


def triple_from_doc(doc: dict) -> McAlisterTriple:
    _check_header(doc, "triple")
    groupoid = promote_to_inverse(semigroupoid_from_doc(_require(doc, "groupoid")))
    space = poset_from_doc(_require(doc, "space"))
    action = action_from_doc(_require(doc, "action"))
    index = {name: i for i, name in enumerate(space.names)}
    ideal = set()
    for name in _require(doc, "ideal", list):
        if not _known(name, index):
            raise ParseError(f"unknown space element {name!r}")
        ideal.add(index[name])
    triple = McAlisterTriple(
        groupoid=groupoid, space=space, ideal=frozenset(ideal), action=action
    )
    return validate_mcalister_triple(triple)


# -------------------------------------------------------------- dispatching

_FROM_DOC = {
    "semigroupoid": semigroupoid_from_doc,
    "poset": poset_from_doc,
    "action": action_from_doc,
    "triple": triple_from_doc,
}


def structure_to_doc(obj) -> dict:
    if isinstance(obj, InverseSemigroupoid):
        return semigroupoid_to_doc(obj.base)
    if isinstance(obj, FiniteSemigroupoid):
        return semigroupoid_to_doc(obj)
    if isinstance(obj, FinitePoset):
        return poset_to_doc(obj)
    if isinstance(obj, PartialActionData):
        return action_to_doc(obj)
    if isinstance(obj, McAlisterTriple):
        return triple_to_doc(obj)
    raise TypeError(f"no document form for {type(obj)!r}")


def parse_document(doc: Any):
    if not isinstance(doc, dict):
        raise ParseError("document is not an object")
    kind = _require(doc, "kind", str)
    if kind not in _FROM_DOC:
        raise ParseError(f"unknown kind {kind!r}")
    return _FROM_DOC[kind](doc)


_escape = json.encoder.encode_basestring_ascii
# the JSON text of one leaf, for the leaf types formatted in bulk
_LEAF_TEXT = {int: int.__repr__, str: _escape}


def _leaf_type(items: list) -> type | None:
    """int when all items are ints, str when all are strings (``bool``
    is neither), None otherwise."""
    kinds = set(map(type, items))
    return kinds.pop() if kinds == {int} or kinds == {str} else None


def _rows_text(rows: list, pad: str) -> str | None:
    """The items of an array of equal-width rows of leaves of one type,
    each row indented below pad, joined through one template; None when
    rows has another shape."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    leaves = list(chain.from_iterable(rows))
    kind = _leaf_type(leaves)
    if kind is None:
        return None
    inner = pad + "  "
    row = "[\n" + inner + (",\n" + inner).join(["%s"] * widths.pop()) + "\n" + pad + "]"
    # "%s" writes an int as int.__repr__ does
    texts = tuple(leaves) if kind is int else tuple(map(_escape, leaves))
    return (",\n" + pad).join([row] * len(rows)) % texts


def _dumps(value: Any, pad: str) -> str:
    """value as ``json.dumps(value, indent=2, sort_keys=True)`` writes it
    at indentation pad."""
    if isinstance(value, dict) and value:
        inner = pad + "  "
        items = [
            # _escape raises TypeError on a key that is not a string
            _escape(key) + ": " + _dumps(item, inner)
            for key, item in sorted(value.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        kind = _leaf_type(value)
        if kind is not None:
            body = (",\n" + inner).join(map(_LEAF_TEXT[kind], value))
        else:
            body = _rows_text(value, inner)
            if body is None:
                body = (",\n" + inner).join([_dumps(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + pad + "]"
    # a scalar or an empty container: its text does not depend on pad
    return json.dumps(value)


def canonical_dumps(doc: dict) -> str:
    """The canonical text of a document with string keys: the text of
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, ASCII escapes
    included, built with one C-level join or template per array of
    leaves or of equal-width rows of leaves."""
    return _dumps(doc, "") + "\n"


def _object_without_repeats(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; a key given twice is a parse error, not
    a silent choice of its last value."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r}")
            seen.add(key)
    return doc


def load_structure(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_object_without_repeats)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    except ValueError as exc:
        # an integer beyond Python's limit on integer string conversion
        raise ParseError(f"number too long in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"JSON nested too deeply in {path}") from exc
    return parse_document(doc)


def save_structure(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(structure_to_doc(obj)))
