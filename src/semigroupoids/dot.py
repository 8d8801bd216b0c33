"""Graphviz DOT export.

Two distinct visual artifacts, never conflated: the arrow graph between
objects, and Hasse diagrams of partial orders.
"""
from __future__ import annotations

from .core import FiniteSemigroupoid
from .inverse import InverseSemigroupoid
from .globalization import GlobalizationResult
from .posets import FinitePoset


def _quote(name: str) -> str:
    """A DOT string literal: backslashes doubled first, then quotes
    escaped, so a name ending in a backslash cannot end the string."""
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def _arrow_graph_lines(sg: FiniteSemigroupoid, indent: str, prefix: str) -> list[str]:
    """Object nodes and labeled arrow edges, object names prefixed."""

    def obj(u: int) -> str:
        return _quote(prefix + sg.object_names[u])

    lines = [f"{indent}{obj(u)} [shape=circle];" for u in range(sg.n_objects)]
    for s in sg.arrows():
        label = _quote(sg.arrow_names[s])
        lines.append(f"{indent}{obj(sg.dom[s])} -> {obj(sg.cod[s])} [label={label}];")
    return lines


def _hasse_lines(poset: FinitePoset, indent: str, highlight: set[int]) -> list[str]:
    """Bottom-to-top layout, element boxes (highlighted ones filled) and
    covering edges."""
    lines = [f"{indent}rankdir=BT;"]
    for x in poset.elements():
        style = ' style=filled fillcolor="lightblue"' if x in highlight else ""
        lines.append(f"{indent}{_quote(poset.names[x])} [shape=box{style}];")
    for x, y in poset.hasse_edges():
        lines.append(f"{indent}{_quote(poset.names[x])} -> {_quote(poset.names[y])};")
    return lines


def semigroupoid_to_dot(sg: FiniteSemigroupoid) -> str:
    lines = ["digraph semigroupoid {", *_arrow_graph_lines(sg, "  ", ""), "}"]
    return "\n".join(lines) + "\n"


def poset_to_dot(poset: FinitePoset, highlight: set[int] | None = None) -> str:
    """Hasse diagram, lower elements below (edges point upward)."""
    lines = ["digraph hasse {", *_hasse_lines(poset, "  ", highlight or set()), "}"]
    return "\n".join(lines) + "\n"


def inverse_semigroupoid_to_dot(inv_sg: InverseSemigroupoid) -> str:
    """Arrow graph and the Hasse diagram of the natural order, side by
    side as two clusters."""
    lines = [
        "digraph inverse_semigroupoid {",
        "  subgraph cluster_arrows {",
        '    label="arrows";',
        *_arrow_graph_lines(inv_sg.base, "    ", "obj:"),
        "  }",
        "  subgraph cluster_order {",
        '    label="natural partial order";',
        *_hasse_lines(inv_sg.order, "    ", set()),
        "  }",
        "}",
    ]
    return "\n".join(lines) + "\n"


def globalization_to_dot(r: GlobalizationResult) -> str:
    """The order on the enveloping carrier with the embedded copy of the
    original carrier highlighted."""
    order = r.envelope.order
    if order is None:
        raise ValueError("globalization of an unordered action has no order")
    return poset_to_dot(order, highlight=set(r.embed))
