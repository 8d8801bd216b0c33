"""Reference computations that the benchmark checks the library against.

Every oracle here starts from a raw multiplication table (``dom``,
``cod`` and ``mul`` with ``-1`` on non-composable pairs) or from raw
action data, and calls nothing in ``semigroupoids``. A fast wrong answer
from the code under test therefore shows up as a failed item instead of
being compared with itself. Oracles run outside the timed section.
"""
from __future__ import annotations


class OracleError(Exception):
    """The input breaks an assumption the oracle relies on."""


class Table:
    """An inverse semigroupoid given by its raw table, with idempotents,
    inverses and the natural order worked out from their definitions."""

    def __init__(self, dom, cod, mul):
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self.mul = mul
        n = self.n = len(self.dom)
        self.idempotents = tuple(
            s for s in range(n) if self.dom[s] == self.cod[s] and mul[s][s] == s
        )
        self.is_idempotent = [False] * n
        for e in self.idempotents:
            self.is_idempotent[e] = True
        inv = []
        for s in range(n):
            found = [
                t
                for t in range(n)
                if self.dom[t] == self.cod[s]
                and self.cod[t] == self.dom[s]
                and mul[mul[s][t]][s] == s
                and mul[mul[t][s]][t] == t
            ]
            if len(found) != 1:
                raise OracleError(f"arrow {s} has {len(found)} pseudoinverses")
            inv.append(found[0])
        self.inv = tuple(inv)

    @classmethod
    def of(cls, sg) -> "Table":
        """From any object with ``dom``, ``cod`` and ``mul`` fields."""
        return cls(sg.dom, sg.cod, sg.mul)

    @classmethod
    def from_doc(cls, doc: dict) -> "Table":
        """From a semigroupoid structure document."""
        objects = {name: i for i, name in enumerate(doc["objects"])}
        arrows = doc["arrows"]
        n = len(arrows)
        mul = [[-1] * n for _ in range(n)]
        for s, t, r in doc["mul"]:
            mul[s][t] = r
        return cls(
            [objects[a["dom"]] for a in arrows],
            [objects[a["cod"]] for a in arrows],
            mul,
        )

    def below(self, s: int, t: int) -> bool:
        """The natural order: s <= t iff s = t (s* s)."""
        if self.dom[s] != self.dom[t] or self.cod[s] != self.cod[t]:
            return False
        return self.mul[t][self.mul[self.inv[s]][s]] == s

    def idempotent_below(self, e: int, s: int) -> bool:
        """For an idempotent e: e <= s iff s e = e."""
        return self.dom[s] == self.cod[e] and self.mul[s][e] == e

    # ------------------------------------------------------------ sigma

    def sigma_reps(self) -> tuple[int, ...]:
        """Sigma by its equation: s ~ t iff s and t are parallel and
        s e = t e for some idempotent e. Each arrow maps to the least
        member of its class."""
        n, mul, dom, cod = self.n, self.mul, self.dom, self.cod
        rep = []
        for s in range(n):
            for t in range(s + 1):
                if dom[s] != dom[t] or cod[s] != cod[t]:
                    continue
                if t == s or any(
                    cod[e] == dom[s] and mul[s][e] == mul[t][e]
                    for e in self.idempotents
                ):
                    rep.append(t)
                    break
        return tuple(rep)

    def sigma_class_count(self) -> int:
        return len(set(self.sigma_reps()))

    # ------------------------------------------------------- E-unitarity

    def e_unitary_witness(self) -> tuple[int, int] | None:
        """The least (e, s) with e idempotent, s not, and e <= s; None
        when the structure is E-unitary."""
        for e in self.idempotents:
            for s in range(self.n):
                if not self.is_idempotent[s] and self.idempotent_below(e, s):
                    return (e, s)
        return None

    def is_e_unitary(self) -> bool:
        return self.e_unitary_witness() is None

    # -------------------------------------------------------- Munn action

    def munn_maps(self) -> tuple[dict[int, int], ...]:
        """The Munn action on the idempotents, in idempotent positions:
        s sends e <= s* s to s e s*."""
        pos = {e: i for i, e in enumerate(self.idempotents)}
        maps = []
        for s in range(self.n):
            top = self.mul[self.inv[s]][s]
            maps.append(
                {
                    pos[e]: pos[self.mul[self.mul[s][e]][self.inv[s]]]
                    for e in self.idempotents
                    if self.idempotent_below(e, top)
                }
            )
        return tuple(maps)

    def idempotent_leq(self, i: int, j: int) -> bool:
        """The order on idempotent positions i, j."""
        return self.idempotent_below(self.idempotents[i], self.idempotents[j])

    def munn_orbit(self, ideal) -> set[int]:
        """Points reached from an ideal of idempotent positions."""
        out = set()
        for m in self.munn_maps():
            out |= {m[x] for x in ideal if x in m}
        return out

    def is_idempotent_ideal(self, ideal) -> bool:
        k = len(self.idempotents)
        return all(
            x in ideal
            for y in ideal
            for x in range(k)
            if self.idempotent_leq(x, y)
        )


# --------------------------------------------------------------- actions


def action_violation(table: Table, domains, maps, leq, is_global: bool) -> str | None:
    """The first broken axiom of an ordered partial action, or None.

    ``domains[s]`` is the range of the map of s and ``maps[s]`` goes from
    ``domains[s*]`` onto it. The axioms checked are the union of both
    routes the library implements, restated from their definitions:
    bijections with inverse maps at s*, identities at idempotents,
    containment of composites, coverage by idempotent domains, domains
    growing along the natural order and inside their range idempotent,
    ideals and order isomorphisms, and exact composites when global.
    """
    n = table.n
    size = len(leq)
    if size == 0:
        return "empty carrier"
    for s in range(n):
        m = maps[s]
        if set(m) != set(domains[table.inv[s]]):
            return f"map {s} has the wrong domain"
        if len(set(m.values())) != len(m) or set(m.values()) != set(domains[s]):
            return f"map {s} is not a bijection onto its range"
        back = maps[table.inv[s]]
        if any(back.get(y) != x for x, y in m.items()):
            return f"map {s} is not inverted by its inverse arrow"
    for e in table.idempotents:
        if any(x != y for x, y in maps[e].items()):
            return f"idempotent {e} moves a point"
    covered = set()
    for e in table.idempotents:
        covered |= set(domains[e])
    if covered != set(range(size)):
        return "idempotent domains do not cover the carrier"
    for s in range(n):
        if not set(domains[s]) <= set(domains[table.mul[s][table.inv[s]]]):
            return f"domain {s} escapes its range idempotent"
        for t in range(n):
            if table.below(s, t) and not set(domains[s]) <= set(domains[t]):
                return f"domain {s} not inside domain {t}"
    for s in range(n):
        for t in range(n):
            if table.dom[s] != table.cod[t]:
                continue
            st = maps[table.mul[s][t]]
            composite = {x: maps[s][y] for x, y in maps[t].items() if y in maps[s]}
            if any(st.get(x) != z for x, z in composite.items()):
                return f"composite of {s} and {t} not contained"
            if is_global and composite != st:
                return f"composite of {s} and {t} not exact"
    for s in range(n):
        dom_s = set(domains[s])
        if any(leq[x][y] and x not in dom_s for y in dom_s for x in range(size)):
            return f"domain {s} is not an order ideal"
        m = maps[s]
        for x in m:
            for y in m:
                if leq[x][y] != leq[m[x]][m[y]]:
                    return f"map {s} is not an order isomorphism"
    return None


def equivariance_violation(table: Table, src_maps, dst_maps, f, src_leq, dst_leq) -> str | None:
    """Whether f carries the source action into the target one: every
    source move x -> y at s has f(x) in the target domain at s and lands
    on f(y), and f preserves the order."""
    for s in range(table.n):
        for x, y in src_maps[s].items():
            if dst_maps[s].get(f[x]) != f[y]:
                return f"f does not commute with arrow {s} at point {x}"
    size = len(src_leq)
    for x in range(size):
        for y in range(size):
            if src_leq[x][y] and not dst_leq[f[x]][f[y]]:
                return f"f does not preserve the order at {x} <= {y}"
    return None
