"""Graphviz export: whole texts of the arrow graph and Hasse diagrams."""

from semigroupoids import corpus, dot


def test_semigroupoid_to_dot_text():
    assert dot.semigroupoid_to_dot(corpus.chain2().base) == (
        "digraph semigroupoid {\n"
        '  "u0" [shape=circle];\n'
        '  "u0" -> "u0" [label="e"];\n'
        '  "u0" -> "u0" [label="f"];\n'
        "}\n"
    )


def test_inverse_semigroupoid_to_dot_text():
    assert dot.inverse_semigroupoid_to_dot(corpus.brandt_b2()) == (
        "digraph inverse_semigroupoid {\n"
        "  subgraph cluster_arrows {\n"
        '    label="arrows";\n'
        '    "obj:u0" [shape=circle];\n'
        '    "obj:u0" -> "obj:u0" [label="0"];\n'
        '    "obj:u0" -> "obj:u0" [label="a"];\n'
        '    "obj:u0" -> "obj:u0" [label="a*"];\n'
        '    "obj:u0" -> "obj:u0" [label="aa*"];\n'
        '    "obj:u0" -> "obj:u0" [label="a*a"];\n'
        "  }\n"
        "  subgraph cluster_order {\n"
        '    label="natural partial order";\n'
        "    rankdir=BT;\n"
        '    "0" [shape=box];\n'
        '    "a" [shape=box];\n'
        '    "a*" [shape=box];\n'
        '    "aa*" [shape=box];\n'
        '    "a*a" [shape=box];\n'
        '    "0" -> "a";\n'
        '    "0" -> "a*";\n'
        '    "0" -> "aa*";\n'
        '    "0" -> "a*a";\n'
        "  }\n"
        "}\n"
    )


def test_poset_to_dot_text_with_highlight():
    order = corpus.vee_semilattice().order
    assert dot.poset_to_dot(order, highlight={0, 2}) == (
        "digraph hasse {\n"
        "  rankdir=BT;\n"
        '  "a" [shape=box style=filled fillcolor="lightblue"];\n'
        '  "b" [shape=box];\n'
        '  "0" [shape=box style=filled fillcolor="lightblue"];\n'
        '  "0" -> "a";\n'
        '  "0" -> "b";\n'
        "}\n"
    )
