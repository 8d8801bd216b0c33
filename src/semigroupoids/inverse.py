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
    cod t are built once per arrow t as int masks, so the two existential
    votes are bit tests, and their transposes list each row's candidate
    columns.  The votes run only on the candidate pairs (s, t) with s in
    {t e} or {f t}, in row-major order, so the order costs O(n |E|)
    steps.

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
    # the slots of the listed loops at each object, for the t e, and the
    # rows of the listed idempotents out of it, for the f t
    loop_slots = [[] for _ in range(sg.n_objects)]
    rows_out = [[] for _ in range(sg.n_objects)]
    for e in idems:
        d = dom[e]
        rows_out[d].append(rows[e])
        if cod[e] == d:  # t e is defined only for the loops at dom t
            loop_slots[d].append(slot[e])
    # bit s of right[t] is set iff s = t e, of left[t] iff s = f t; the
    # transposes, bit t of right_of[s] and left_of[s], give the candidates
    right, left = [0] * n, [0] * n
    right_of, left_of = [0] * n, [0] * n
    for t in range(n):
        row, bit_t, m = rows[t], 1 << t, 0
        for i in loop_slots[dom[t]]:
            s = row[i]
            m |= 1 << s
            right_of[s] |= bit_t
        right[t] = m
        i, m = slot[t], 0
        for row_f in rows_out[cod[t]]:
            s = row_f[i]
            m |= 1 << s
            left_of[s] |= bit_t
        left[t] = m
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

    if guarded:
        candidates = [r | l for r, l in zip(right_of, left_of)]
    else:  # every t, of which the loop keeps the parallel ones
        candidates = [(1 << n) - 1] * n

    up = [0] * n
    for s, m in enumerate(candidates):
        ds, cs, bit_s = dom[s], cod[s], 1 << s
        # vote 2 reads t e at e = s* s, vote 4 reads f t at f = s s*; for
        # t parallel to s each is defined iff e is a loop at dom s, f one
        # at cod s
        e, f = lo[s], hi[s]
        at_e = slot[e] if e is not None and cod[e] == ds else None
        row_f = rows[f] if f is not None and dom[f] == cs else None
        above = 0
        while m:
            low = m & -m
            m ^= low
            t = low.bit_length() - 1
            if dom[t] != ds or cod[t] != cs:
                continue
            # s = t e for some e; s = t (s* s); s = f t for some f; s = (s s*) t
            v1 = right[t] & bit_s != 0
            v2 = at_e is not None and rows[t][at_e] == s
            v3 = left[t] & bit_s != 0
            v4 = row_f is not None and row_f[slot[t]] == s
            if not v1 == v2 == v3 == v4:
                raise InternalInconsistencyError(
                    "OrderCharacterizationMismatch", (s, t), f"votes {(v1, v2, v3, v4)}"
                )
            if v1:
                above |= low
        up[s] = above
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
