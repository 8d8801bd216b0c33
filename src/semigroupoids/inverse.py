"""Inverse structure: pseudoinverses, idempotents, the natural partial order.

Pseudoinverses are found by exhaustive search of the one hom-set that
can hold them, and their uniqueness is enforced, not assumed.  The
natural partial order is materialized as a poset on the arrow set; all
four standard characterizations are computed independently and must
coincide.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from typing import Callable, Sequence, TypeVar

from .core import FiniteSemigroupoid, SemigroupoidMorphism, arrows_by_end
from .errors import InternalInconsistencyError, ValidationError, Violation
from .posets import FinitePoset, poset_from_masks


@dataclass(frozen=True)
class InverseSemigroupoid:
    """A semigroupoid in which every arrow has a unique pseudoinverse."""

    base: FiniteSemigroupoid
    inv: tuple[int, ...]
    idempotents: tuple[int, ...]
    order: FinitePoset

    @property
    def n_arrows(self) -> int:
        return self.base.n_arrows

    @property
    def n_objects(self) -> int:
        return self.base.n_objects

    def arrows(self) -> range:
        return range(self.base.n_arrows)

    def composable(self, s: int, t: int) -> bool:
        return self.base.composable(s, t)

    def parallel(self, s: int, t: int) -> bool:
        return self.base.parallel(s, t)

    def leq(self, s: int, t: int) -> bool:
        return self.order.le(s, t)


_S = TypeVar("_S")
_T = TypeVar("_T")
# one slot per memoized function: its last (structure, result) or None
_LATEST_SLOTS: list[list] = []


def latest_structure_memo(build: Callable[[_S], _T]) -> Callable[[_S], _T]:
    """Keep ``build``'s result for the most recent structure object only.

    The argument is any structure object: an inverse semigroupoid, or an
    action (``globalize``).  A call on the object in the slot, by
    identity (``is``), returns the stored result.  Any other object, even
    an equal one, is built afresh and replaces the slot: an independent
    promotion of the same table, or a copy of an action, gets its own
    computation, and no structure outlives the next one's build.  A build
    that raises stores nothing.  Callers share the stored result and must
    not mutate it.
    """
    slot: list = [None]
    _LATEST_SLOTS.append(slot)

    @wraps(build)
    def memoized(obj: _S) -> _T:
        held = slot[0]
        if held is None or held[0] is not obj:
            held = slot[0] = (obj, build(obj))
        return held[1]

    return memoized


def clear_latest_structure_memos() -> None:
    """Empty the slot of every ``latest_structure_memo`` function."""
    for slot in _LATEST_SLOTS:
        slot[0] = None


def _pseudoinverses(sg: FiniteSemigroupoid, s: int, homs: dict) -> list[int]:
    """Every t in the hom-set from cod s to dom s with sts = s and tst = t,
    in increasing order; ``homs`` maps (dom, cod) to its arrows, increasing."""
    rows, slot = sg.rows, sg.slot
    out = []
    for t in homs.get((sg.cod[s], sg.dom[s]), ()):
        st = rows[s][slot[t]]
        ts = rows[t][slot[s]]
        if rows[st][slot[s]] == s and rows[ts][slot[t]] == t:
            out.append(t)
    return out


def _idempotents(sg: FiniteSemigroupoid) -> tuple[int, ...]:
    return tuple(
        e for e, row in enumerate(sg.rows) if sg.dom[e] == sg.cod[e] and row[sg.slot[e]] == e
    )


def _order_matrix(sg: FiniteSemigroupoid, inv: Sequence[int], idems: Sequence[int]):
    """All four characterizations of the natural order; they must agree.
    Returns its row bitmasks: bit t of row s is set iff s <= t.

    The sets {t e} and {f t} over the idempotents e at dom t and f at
    cod t are built once per arrow t, so the two existential votes are
    set lookups.  The votes run only on the candidate pairs (s, t) with
    s in {t e} or {f t}, in row-major order, so the order costs
    O(n |E|) steps.

    That skips no vote that could be true.  A guard first checks, for
    every s, that s*s is one of ``idems`` at dom s and ss* one at cod s.
    Given the guard, take a parallel pair (s, t) outside the candidates.
    Votes 1 and 3 are false by definition.  Vote 2 (s = t (s*s)) would
    put s in {t e} with e = s*s, an idempotent at dom s = dom t; vote 4
    (s = (ss*) t) would put s in {f t} with f = ss* at cod s = cod t.  So
    all four are false there and agree.  Skipped pairs therefore agree,
    and the first disagreeing pair in row-major order is the first
    candidate that disagrees.  Only a wrong ``inv`` or ``idems`` can fail
    the guard; then every parallel pair is voted on, as the definition
    reads, so the first disagreeing pair is found the same way.
    """
    n = sg.n_arrows
    dom, cod, rows, slot = sg.dom, sg.cod, sg.rows, sg.slot
    by_object = {}
    for e in idems:
        by_object.setdefault(dom[e], []).append(e)
    # t e is defined only for the listed e that are loops at dom t
    right = [{rows[t][slot[e]] for e in by_object.get(dom[t], ()) if cod[e] == dom[t]}
             for t in range(n)]
    left = [{rows[f][slot[t]] for f in by_object.get(cod[t], ())} for t in range(n)]
    # s* s and s s*, None where undefined, which makes a vote that needs
    # them false, as the definitions read; the guard is checked alongside
    idem_dom = {e: dom[e] for e in idems}
    lo, hi, guarded = [None] * n, [None] * n, True
    for s, s_star in enumerate(inv):
        if dom[s_star] == cod[s]:
            lo[s] = rows[s_star][slot[s]]
        if dom[s] == cod[s_star]:
            hi[s] = rows[s][slot[s_star]]
        guarded = guarded and idem_dom.get(lo[s]) == dom[s] and idem_dom.get(hi[s]) == cod[s]

    def le_right_idem(s: int, t: int) -> bool:
        # s = t e for some idempotent e at dom(t)
        return s in right[t]

    def le_canonical(s: int, t: int) -> bool:
        # s = t (s* s)
        e = lo[s]
        return e is not None and dom[t] == cod[e] and rows[t][slot[e]] == s

    def le_left_idem(s: int, t: int) -> bool:
        # s = f t for some idempotent f at cod(t)
        return s in left[t]

    def le_left_canonical(s: int, t: int) -> bool:
        # s = (s s*) t
        f = hi[s]
        return f is not None and dom[f] == cod[t] and rows[f][slot[t]] == s

    if guarded:
        columns = [[] for _ in range(n)]
        for t in range(n):
            for s in right[t] | left[t]:
                columns[s].append(t)
    else:
        columns = [range(n)] * n

    up = [0] * n
    for s in range(n):
        for t in columns[s]:
            if not sg.parallel(s, t):
                continue
            votes = (
                le_right_idem(s, t),
                le_canonical(s, t),
                le_left_idem(s, t),
                le_left_canonical(s, t),
            )
            if len(set(votes)) != 1:
                raise InternalInconsistencyError(
                    "OrderCharacterizationMismatch", (s, t), f"votes {votes}"
                )
            if votes[0]:
                up[s] |= 1 << t
    return up


def promote_to_inverse(sg: FiniteSemigroupoid) -> InverseSemigroupoid:
    """Find the pseudoinverse of every arrow; fail on zero or several."""
    homs = {}
    for t in sg.arrows():
        homs.setdefault((sg.dom[t], sg.cod[t]), []).append(t)
    inv = []
    for s in sg.arrows():
        candidates = _pseudoinverses(sg, s, homs)
        if not candidates:
            raise ValidationError("NoInverse", (s,))
        if len(candidates) > 1:
            raise ValidationError("NonUniqueInverse", (s, candidates[0], candidates[1]))
        inv.append(candidates[0])

    idems = _idempotents(sg)
    order = poset_from_masks(_order_matrix(sg, inv, idems), names=sg.arrow_names)
    return InverseSemigroupoid(
        base=sg, inv=tuple(inv), idempotents=idems, order=order
    )


def _order_is_equality(inv_sg: InverseSemigroupoid) -> bool:
    """True iff s <= t exactly when s = t, over the parallel pairs: each
    up-set holds s itself and no other arrow parallel to s."""
    order = inv_sg.order
    for s in inv_sg.arrows():
        if not order.le(s, s):
            return False
        for t in order.above(s):
            if t != s and inv_sg.parallel(s, t):
                return False
    return True


def is_groupoid(inv_sg: InverseSemigroupoid) -> bool:
    """Exactly one idempotent per object; cross-checked against the
    order-coincides-with-equality test."""
    per_object = [0] * inv_sg.n_objects
    for e in inv_sg.idempotents:
        per_object[inv_sg.base.dom[e]] += 1
    by_count = all(k == 1 for k in per_object)

    by_order = _order_is_equality(inv_sg)
    if by_count != by_order:
        raise InternalInconsistencyError("GroupoidTestMismatch", (), f"{by_count} vs {by_order}")
    return by_count


def check_partial_morphism(
    f: Sequence[int], src: InverseSemigroupoid, dst: InverseSemigroupoid
) -> Violation | None:
    """First failure of the partial-morphism conditions, or None.

    Checks that f respects involution, preserves composability with
    f(s) f(t) <= f(st), and preserves the natural order.  For each s the
    composability clause walks only the arrows t with cod t = dom s, and
    the order clause only the up-set of s, both
    in increasing order, so each first failure is the one a row-major
    scan of all pairs finds.
    """
    arrows = src.arrows()
    for s in arrows:
        if dst.inv[f[s]] != f[src.inv[s]]:
            return Violation("InverseNotPreserved", (s,))
    into = arrows_by_end(src.base.cod, src.n_objects)
    for s in arrows:
        for t, st in zip(into[src.base.dom[s]], src.base.rows[s]):
            if not dst.composable(f[s], f[t]):
                return Violation("SubmultiplicativityFailure", (s, t))
            if not dst.leq(dst.base.product(f[s], f[t]), f[st]):
                return Violation("SubmultiplicativityFailure", (s, t))
    for s in arrows:
        for t in src.order.above(s):
            if src.parallel(s, t) and not dst.leq(f[s], f[t]):
                return Violation("OrderNotPreserved", (s, t))
    return None


def is_strong_morphism(phi: SemigroupoidMorphism) -> bool:
    """True iff composability is reflected: (phi s, phi t) composable
    implies (s, t) composable.

    The object map commutes with dom and cod, so phi s and phi t compose
    iff ``object_map[dom s] == object_map[cod t]``.  Hence phi is strong
    iff no object that is a domain shares its image with a different
    object that is a codomain: O(objects^2), not a scan of arrow pairs."""
    omap, cods = phi.object_map, set(phi.source.cod)
    return all(omap[u] != omap[v] for u in set(phi.source.dom) for v in cods if u != v)
