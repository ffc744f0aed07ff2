"""Presented graded categories of natural transformations on subquotient
K-functors over a finite space.

A category is presented by a quiver whose objects are the nonempty connected
locally closed subsets and whose arrows are the indecomposable transformations
(kinds i, r, delta), together with integer path relations.  The generating
arrows are derived from the space (derive_arrows); the relation set is
generated programmatically from six-term-sequence identities (consecutive
composites vanish, boundary naturality, designated-word consistency) and is
therefore flagged as reconstructed for the spaces whose classical relation
lists are not available in full.  Hom groups, composition tables and the
nil/ss ring data are computed by a bounded path-closure with a
rank-stabilization criterion.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import (Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .finspace import (BUILTIN_NAMES, FiniteSpace, builtin_name, builtin_space,
                       label, space_from_ref, space_ref)
from .zexact import (Echelon, IntMatrix, ZExactError, _nonzeros, _Record, _reduce,
                     _SparseMatrix, guard_int, guard_name, smith, solve_columns, sparse_image)


class CategoryError(Exception):
    pass


class NonStabilizedError(CategoryError):
    """Hom ranks did not stabilize at the requested path length."""


class InconsistentRelationError(CategoryError):
    """Relations force torsion between parallel paths."""


# ---------------------------------------------------------------------------
# Words and combos
# ---------------------------------------------------------------------------
# A word is a tuple of arrow names in application order (leftmost first).
# A combo is a formal integer combination of parallel words.

Word = Tuple[str, ...]
Combo = Dict[Word, int]


def combo_add(a: Combo, b: Combo) -> Combo:
    out = dict(a)
    for w, c in b.items():
        n = out.get(w, 0) + c
        if n:
            out[w] = n
        elif w in out:
            del out[w]
    return out


def combo_scale(a: Combo, c: int) -> Combo:
    if c == 0:
        return {}
    return {w: c * x for w, x in a.items()}


def combo_sub(a: Combo, b: Combo) -> Combo:
    return combo_add(a, combo_scale(b, -1))


def combo_compose(first: Combo, then: Combo) -> Combo:
    """The combo 'then ∘ first' (first applied first)."""
    out: Combo = {}
    for w1, c1 in first.items():
        for w2, c2 in then.items():
            w = w1 + w2
            n = out.get(w, 0) + c1 * c2
            if n:
                out[w] = n
            elif w in out:
                del out[w]
    return out


def combo_canonical(a: Combo) -> Tuple:
    items = tuple(sorted(a.items()))
    if not items:
        return items
    lead = items[0][1]
    if lead < 0:
        items = tuple((w, -c) for w, c in items)
    return items


IDENTITY: Combo = {(): 1}


class Arrow(NamedTuple):
    name: str
    src: str
    dst: str
    parity: int
    kind: str  # 'i', 'r' or 'd'


def _arrow_name(kind: str, src: str, dst: str) -> str:
    return f"{kind}:{src}>{dst}"


class CatPresentation:
    """Graded quiver with integer path relations presenting the category."""

    def __init__(self, space: FiniteSpace, arrows: Sequence[Arrow],
                 relations: Sequence[Combo], reconstructed: bool = False):
        self.space = space
        self.objects = [lc.label for lc in space.lc_star()]
        objset = set(self.objects)
        self.arrows: Dict[str, Arrow] = {}
        for a in arrows:
            if a.src not in objset or a.dst not in objset:
                raise CategoryError(f"arrow {a.name} endpoints outside LC(X)*")
            if a.name in self.arrows:
                raise CategoryError(f"duplicate arrow name {a.name}")
            self.arrows[a.name] = a
        self.by_src = defaultdict(list)
        self.by_dst = defaultdict(list)
        for a in self.arrows.values():
            self.by_src[a.src].append(a)
            self.by_dst[a.dst].append(a)
        for lst in self.by_src.values():
            lst.sort(key=lambda a: a.name)
        for lst in self.by_dst.values():
            lst.sort(key=lambda a: a.name)
        self.relations = [dict(r) for r in relations if r]
        self.reconstructed = reconstructed
        for r in self.relations:
            self._check_relation(r)
        # indices of the relations hom_closure need not place, on first read
        self._redundant: Optional[FrozenSet[int]] = None

    def _check_relation(self, r: Combo):
        sig = None
        for w in r:
            s, d, p = self.word_signature(w)
            if sig is None:
                sig = (s, d, p)
            elif sig != (s, d, p):
                raise CategoryError(f"relation words not parallel: {r}")

    def word_signature(self, w: Word, src: Optional[str] = None):
        """(source, target, parity) of a word; identity words need src."""
        if not w:
            if src is None:
                raise CategoryError("identity word needs a source object")
            return src, src, 0
        cur = None
        parity = 0
        for nm in w:
            a = self.arrows[nm]
            if cur is not None and a.src != cur:
                raise CategoryError(f"word not composable: {w}")
            if cur is None:
                first = a.src
            cur = a.dst
            parity ^= a.parity
        return first, cur, parity

    # -- JSON schema ---------------------------------------------------------

    def to_json(self) -> dict:
        """The presentation as JSON; the space as `space_ref` writes it."""
        return {
            "space": space_ref(self.space),
            "objects": list(self.objects),
            "arrows": [{"name": a.name, "src": a.src, "dst": a.dst,
                        "parity": a.parity, "kind": a.kind}
                       for a in sorted(self.arrows.values(), key=lambda a: a.name)],
            "relations": [[{"coeff": c, "path": list(w)} for w, c in sorted(r.items())]
                          for r in self.relations],
            "reconstructed": self.reconstructed,
        }

    @staticmethod
    def from_json(data, space: Optional[FiniteSpace] = None) -> "CatPresentation":
        if isinstance(data, str):
            data = json.loads(data)
        if space is None:
            space = space_from_ref(data["space"])
        arrows = [Arrow(a["name"], a["src"], a["dst"], a["parity"], a["kind"])
                  for a in data["arrows"]]
        rels = [{tuple(t["path"]): t["coeff"] for t in r} for r in data["relations"]]
        return CatPresentation(space, arrows, rels,
                               reconstructed=data.get("reconstructed", False))


# ---------------------------------------------------------------------------
# Designated transformations (inc / res / bnd words)
# ---------------------------------------------------------------------------

class DesignationError(CategoryError):
    pass


class _Cycle(Exception):
    pass


class Designator:
    """Derives canonical words for the inclusion, restriction and boundary
    transformations of every open pair, by structural recursion on the
    space.  Each rewriting step is a K-theory identity (transitivity of
    inclusions/restrictions, naturality of the boundary under morphisms of
    extensions), so any successful derivation is a valid designation;
    alternative derivations are recorded for consistency relations.
    A query whose word is memoised returns it before any route is built or
    any topology test is made.
    """

    def __init__(self, space: FiniteSpace, arrows: Sequence[Arrow]):
        self.X = space
        self.gen = {}
        for a in arrows:
            self.gen[(a.kind, a.src, a.dst)] = a
        self.lcstar = [lc.value for lc in space.lc_star()]
        self.memo: Dict[tuple, Combo] = {}
        self.split: set = set()  # bnd keys whose C ∪ E is disconnected
        self.alternates: Dict[tuple, List[Combo]] = {}
        self.stack: set = set()

    # -- helpers -------------------------------------------------------------

    def _gen_word(self, kind, src, dst) -> Optional[Combo]:
        a = self.gen.get((kind, label(src), label(dst)))
        return {(a.name,): 1} if a else None

    def _run(self, key, routes, record_alternates=False):
        if key in self.stack:
            raise _Cycle(key)
        self.stack.add(key)
        try:
            results = []
            for thunk in routes:
                try:
                    results.append(thunk())
                except _Cycle:
                    continue
            if not results:
                raise DesignationError(f"no derivation for {key}")
            if key not in self.memo:
                self.memo[key] = results[0]
            if record_alternates:
                self.alternates[key] = results
            return self.memo[key]
        finally:
            self.stack.discard(key)

    # -- inclusion words ------------------------------------------------------

    def inc(self, C: FrozenSet[str], Y: FrozenSet[str], alt=False) -> Combo:
        if C == Y:
            return dict(IDENTITY)
        key = ("inc", C, Y)
        if not alt and key in self.memo:
            return self.memo[key]
        if not self.X.is_open_in(C, Y):
            raise DesignationError(f"{label(C)} not open in {label(Y)}")
        routes = []
        for D in self.lcstar:
            a = self.gen.get(("i", label(D), label(Y)))
            if a is not None and C <= D:
                routes.append(lambda D=D, a=a:
                              combo_compose(self.inc(C, D), {(a.name,): 1}))
        for W in self.lcstar:
            a = self.gen.get(("r", label(W), label(Y)))
            if a is not None and C <= W and self.X.is_open_in(C, W):
                routes.append(lambda W=W, a=a:
                              combo_compose(self.inc(C, W), {(a.name,): 1}))
        # general route: through any bigger object in which Y is closed
        for W in self.lcstar:
            if W != Y and Y <= W and self.X.is_closed_in(Y, W) \
                    and self.X.is_open_in(C, W) \
                    and ("r", label(W), label(Y)) not in self.gen:
                routes.append(lambda W=W:
                              combo_compose(self.inc(C, W), self.res(W, Y)))
        return self._run(key, routes, record_alternates=alt)

    # -- restriction words ----------------------------------------------------

    def res(self, Y: FrozenSet[str], E: FrozenSet[str], alt=False) -> Combo:
        if Y == E:
            return dict(IDENTITY)
        key = ("res", Y, E)
        if not alt and key in self.memo:
            return self.memo[key]
        if not self.X.is_closed_in(E, Y):
            raise DesignationError(f"{label(E)} not closed in {label(Y)}")
        routes = []
        for E2 in self.lcstar:
            a = self.gen.get(("r", label(Y), label(E2)))
            if a is not None and E <= E2:
                routes.append(lambda E2=E2, a=a:
                              combo_compose({(a.name,): 1}, self.res(E2, E)))
        for D in self.lcstar:
            a = self.gen.get(("i", label(Y), label(D)))
            if a is not None and self.X.is_closed_in(E, D):
                routes.append(lambda D=D, a=a:
                              combo_compose({(a.name,): 1}, self.res(D, E)))
        for D in self.lcstar:
            if D != Y and Y <= D and self.X.is_open_in(Y, D) \
                    and self.X.is_closed_in(E, D) \
                    and ("i", label(Y), label(D)) not in self.gen:
                routes.append(lambda D=D:
                              combo_compose(self.inc(Y, D), self.res(D, E)))
        return self._run(key, routes, record_alternates=alt)

    # -- boundary words -------------------------------------------------------

    def bnd(self, C: FrozenSet[str], E: FrozenSet[str], alt=False) -> Combo:
        """The six-term boundary word from E to C.  For every pair U open in
        Y with C a component of U and E one of Y∖U it is the boundary of
        C ⊆ C ∪ E when C ∪ E is connected, and zero otherwise: pushing out
        along the projection of A(U) onto A(C) and pulling back along the
        inclusion of A(E) into A(Y∖U) turns (U, Y) into (C, C ∪ E), which
        splits when C ∪ E is not connected.  Only connected keys are
        memoised; the disconnected ones are remembered in `split`."""
        Z = C | E
        key = ("bnd", C, Z)
        if not alt and key in self.memo:
            return self.memo[key]
        if key in self.split:
            return {}
        if not self.X.is_connected(Z):
            self.split.add(key)
            return {}
        routes = []
        g = self._gen_word("d", E, C)
        if g is not None:
            routes.append(lambda: dict(g))
        rel_opens = self.X.relative_opens(Z)
        # shrink the total space to a relatively open piece containing E
        for Zp in (s for s in rel_opens if E <= s and s != Z):
            def red3(Zp=Zp):
                Up = Zp - E
                out: Combo = {}
                for C0 in self.X.components(Up):
                    out = combo_add(out, combo_compose(self.bnd(C0, E),
                                                       self.inc(C0, C)))
                return out
            routes.append(red3)
        # quotient away a relatively open piece of E
        for W in (s for s in rel_opens if s and s <= E):
            def red5(W=W):
                out: Combo = {}
                for E2 in self.X.components(E - W):
                    out = combo_add(out, combo_compose(self.res(E, E2),
                                                       self.bnd(C, E2)))
                return out
            routes.append(red5)
        # enlarge the ideal: realise (C, Z) as the quotient of a bigger pair
        # (C ∪ V, Z ∪ V) by the relatively open piece V
        for Yp in (s for s in self.lcstar if Z < s and self.X.is_closed_in(Z, s)):
            Up = C | (Yp - Z)
            if not self.X.is_open_in(Up, Yp):
                continue

            def red6(Up=Up):
                out: Combo = {}
                for Cp in self.X.components(Up):
                    if C <= Cp:
                        out = combo_add(out, combo_compose(self.bnd(Cp, E),
                                                           self.res(Cp, C)))
                return out
            routes.append(red6)
        # grow the total space: Z relatively open in a bigger object
        for Zp in (s for s in self.lcstar if Z < s and self.X.is_open_in(Z, s)):
            def red4(Zp=Zp):
                Ep = next(c for c in self.X.components(Zp - C) if E <= c)
                return combo_compose(self.inc(E, Ep), self.bnd(C, Ep))
            routes.append(red4)
        return self._run(key, routes, record_alternates=alt)


# ---------------------------------------------------------------------------
# Relation generation
# ---------------------------------------------------------------------------

def generate_relations(space: FiniteSpace, arrows: Sequence[Arrow]):
    """Relation set from six-term and naturality identities.

    Families: (a) res∘inc = 0, (b) bnd∘res = 0, (c) inc∘bnd = 0 blockwise for
    every open pair; (d) consistency of alternative designated words;
    (e) naturality of the boundary under the three elementary morphisms of
    extensions (restrict the total space, quotient the ideal, cut down to a
    closed subspace); (f) the mixed squares res∘inc = inc∘res through any
    ambient object (restricting an inclusion hits the intersection).
    Returns (relations, designator).
    """
    D = Designator(space, arrows)
    X = space
    rels: List[Combo] = []
    seen = set()

    def emit(c: Combo):
        c = {w: x for w, x in c.items() if x}
        if not c:
            return
        key = combo_canonical(c)
        if key not in seen:
            seen.add(key)
            rels.append(dict(key))

    for U, Y, compsC, compsE in X.six_term_pairs():
        incs = {C: D.inc(C, Y) for C in compsC}
        ress = {E: D.res(Y, E) for E in compsE}
        bnds = {(E, C): D.bnd(C, E) for E in compsE for C in compsC}
        for C in compsC:
            for E in compsE:
                emit(combo_compose(incs[C], ress[E]))                     # (a)
        for C in compsC:
            total: Combo = {}
            for E in compsE:
                total = combo_add(total, combo_compose(ress[E], bnds[(E, C)]))
            emit(total)                                                   # (b)
        for E in compsE:
            total = {}
            for C in compsC:
                total = combo_add(total, combo_compose(bnds[(E, C)], incs[C]))
            emit(total)                                                   # (c)

        # (e1) restrict the total space to a relatively open Y'
        for Yp in X.relative_opens(Y):
            if not Yp or Yp == Y:
                continue
            Up = U & Yp
            if Up == Yp:
                continue
            for Ep in X.components(Yp - Up):
                E = next(e for e in compsE if Ep <= e)
                for C in compsC:
                    lhs: Combo = {}
                    for Cp in X.components(Up):
                        if Cp <= C:
                            lhs = combo_add(lhs, combo_compose(
                                D.bnd(Cp, Ep), D.inc(Cp, C)))
                    rhs = combo_compose(D.inc(Ep, E), bnds[(E, C)])
                    emit(combo_sub(lhs, rhs))
        # (e2) quotient the ideal by a relatively open V ⊆ U
        for V in X.relative_opens(Y):
            if not V or not V < U:
                continue
            for C2 in X.components(U - V):
                C = next(c for c in compsC if C2 <= c)
                for E in compsE:
                    lhs = D.bnd(C2, E)
                    rhs = combo_compose(bnds[(E, C)], D.res(C, C2))
                    emit(combo_sub(lhs, rhs))
        # (e3) cut down to a closed subspace Ycl ⊇ U
        for W in X.relative_opens(Y):
            if not W or not W <= (Y - U):
                continue
            Ycl = Y - W
            for C in compsC:
                for E in compsE:
                    rhs: Combo = {}
                    for E2 in X.components(Ycl - U):
                        if E2 <= E:
                            rhs = combo_add(rhs, combo_compose(
                                D.res(E, E2), D.bnd(C, E2)))
                    emit(combo_sub(bnds[(E, C)], rhs))
        # (e4) enlarge the ideal inside the same total space: for open
        # U ⊂ U2 ⊂ Y, inc∘bnd_(U,Y) = bnd_(U2,Y)∘res blockwise
        for U2 in X.relative_opens(Y):
            if not (U < U2) or U2 == Y:
                continue
            for C2 in X.components(U2):
                for E in compsE:
                    lhs: Combo = {}
                    for C in compsC:
                        if C <= C2:
                            lhs = combo_add(lhs, combo_compose(
                                bnds[(E, C)], D.inc(C, C2)))
                    rhs = {}
                    for E2 in X.components(Y - U2):
                        if E2 <= E:
                            rhs = combo_add(rhs, combo_compose(
                                D.res(E, E2), D.bnd(C2, E2)))
                    emit(combo_sub(lhs, rhs))

    # (f) mixed squares: for Y relatively open and T relatively closed in a
    # connected D, restricting the inclusion of a component C of Y to T
    # factors through the pieces of C ∩ T
    for Dtot in (lc.value for lc in X.lc_star()):
        rel_opens = X.relative_opens(Dtot)
        for Yo in rel_opens:
            if not Yo or Yo == Dtot:
                continue
            for W in rel_opens:
                T = Dtot - W
                if not T or T == Dtot:
                    continue
                for C in X.components(Yo):
                    for F in X.components(T):
                        lhs = combo_compose(D.inc(C, Dtot), D.res(Dtot, F))
                        rhs: Combo = {}
                        for G in X.components(C & T):
                            if G <= F:
                                rhs = combo_add(rhs, combo_compose(
                                    D.res(C, G), D.inc(G, F)))
                        emit(combo_sub(lhs, rhs))

    # (d) consistency of alternative derivations of designated words
    for key in sorted(D.memo, key=lambda k: (k[0], label(k[1]), label(k[2]))):
        kind, s1, s2 = key
        try:
            if kind == "inc":
                first = D.inc(s1, s2, alt=True)
            elif kind == "res":
                first = D.res(s1, s2, alt=True)
            else:
                first = D.bnd(s1, s2 - s1, alt=True)
            alts = D.alternates.get(key, [])
        except DesignationError:
            continue
        for other in alts:
            emit(combo_sub(first, other))
    return rels, D


# ---------------------------------------------------------------------------
# Generating arrows
# ---------------------------------------------------------------------------

def derive_arrows(space: FiniteSpace) -> List[Arrow]:
    """The generating arrows of NT*(X), sorted by name.

    The candidates are the transformations of Meyer and Nest between objects
    of LC(X)*: every i: U → Y (U open in Y), r: Y → E (E closed in Y) and,
    of parity 1, δ: E → C (C open in C ∪ E).  Visited widest first (by
    |src ∪ dst|, then by name), a candidate is dropped when a Designator
    built from the remaining ones still derives its designated word."""
    if not space.is_t0():
        raise CategoryError("NT*(X) needs a T0 space")
    objs = [lc.value for lc in space.lc_star()]
    objset = set(objs)
    cands = []
    for s in objs:
        for t in objs:
            if s < t and space.is_open_in(s, t):
                kind = "i"
            elif t < s and space.is_closed_in(t, s):
                kind = "r"
            elif not s & t and s | t in objset and space.is_open_in(t, s | t):
                kind = "d"
            else:
                continue
            cands.append((-len(s | t), _arrow_name(kind, label(s), label(t)), kind, s, t))
    arrows = {nm: Arrow(nm, label(s), label(t), int(kind == "d"), kind)
              for _, nm, kind, s, t in cands}
    for _, nm, kind, s, t in sorted(cands):
        rest = [a for n, a in arrows.items() if n != nm]
        D = Designator(space, rest)
        try:
            if kind == "i":
                D.inc(s, t)
            elif kind == "r":
                D.res(s, t)
            else:
                D.bnd(t, s)
        except DesignationError:
            continue
        del arrows[nm]
    return sorted(arrows.values(), key=lambda a: a.name)


# relation sets are generated; every space but these, whose classical
# relation lists are available in full, is flagged so reports can warn
_CLASSICAL = ("Z1", "Z2", "Z3", "Z4", "pt")

# word bound of hom_closure per builtin; the shipped caches depend on it
DEFAULT_MAX_LEN = {"Z1": 8, "Z2": 9, "Z3": 10, "Z4": 9, "C2": 10, "S": 10, "pt": 2}

_PARITY = "a parity must be 0 or 1, not {!r}"
_SIDE = "side must be 'left' or 'right', not {!r}"


def _presentation(space: FiniteSpace):
    """The presentation of NT*(X) on the derived arrows, with the Designator
    that generated its relations."""
    arrows = derive_arrows(space)
    rels, designator = generate_relations(space, arrows)
    pres = CatPresentation(space, arrows, rels,
                           reconstructed=builtin_name(space) not in _CLASSICAL)
    return pres, designator


def builtin_presentation(space_name: str) -> CatPresentation:
    guard_name(space_name, BUILTIN_NAMES, CategoryError, "no builtin category for space {!r}")
    return _presentation(builtin_space(space_name))[0]


# ---------------------------------------------------------------------------
# Hom table computation
# ---------------------------------------------------------------------------

class _Bucket(_Record):
    """The words of hom_closure's bound from src to dst at parity, in
    nondecreasing length, and, per arrow a out of dst,
    ext[a.name] = (key of the bucket of the words·a, table): table[i] is
    the index there of words[i]·a, for the `short` words shorter than the
    bound, a prefix.  A word is found only by walking these tables (see
    _walk).  Tables name buckets by key, so buckets hold no references to
    each other."""
    __slots__ = _fields = ("src", "dst", "parity", "words", "ext", "short", "lattice")

    def __init__(self, src: str, dst: str, parity: int,
                 words: Optional[List[Word]] = None,
                 ext: Optional[Dict[str, Tuple[Tuple[str, str, int], List[int]]]] = None,
                 short: int = 0, lattice: Optional[Echelon] = None):
        self.src = src
        self.dst = dst
        self.parity = parity
        self.words = [] if words is None else words
        self.ext = {} if ext is None else ext
        self.short = short
        self.lattice = lattice


class Element:
    """Homogeneous element of a Hom group, in table coordinates."""

    __slots__ = ("src", "dst", "parity", "vec")

    def __init__(self, src, dst, parity, vec):
        self.src = src
        self.dst = dst
        self.parity = parity
        self.vec = tuple(vec)

    def is_zero(self):
        return all(x == 0 for x in self.vec)

    def __eq__(self, other):
        return (self.src, self.dst, self.parity, self.vec) == \
            (other.src, other.dst, other.parity, other.vec)

    def __hash__(self):
        return hash((self.src, self.dst, self.parity, self.vec))

    def __repr__(self):
        return f"Element({self.src}->{self.dst}, parity {self.parity}, {self.vec})"


def _add_scaled(acc: list, row: Sequence[int], c: int) -> None:
    """acc += c·row, in place."""
    for i, v in enumerate(row):
        if v:
            acc[i] += c * v


class HomTable:
    """Computed Hom groups with composition data.

    Per ordered pair of objects and parity: a free abelian group of classes
    of words, with chosen representative combos for the basis, matrices for
    pre/post composition by generators and identity elements.  Composition
    with any element is a sum of products of generator matrices along its
    representative words (word_matrix).
    """

    def __init__(self, presentation: CatPresentation):
        self.presentation = presentation
        self.objects = list(presentation.objects)
        self._no_object = f"{{!r}} is not an object of {presentation.space.name}"
        self.rank: Dict[Tuple[str, str, int], int] = {}
        self.reps: Dict[Tuple[str, str, int], List[Combo]] = {}
        self.post: Dict[Tuple[str, str, int, str], IntMatrix] = {}
        self.pre: Dict[Tuple[str, str, int, str], IntMatrix] = {}
        self.id_coords: Dict[str, tuple] = {}
        self._word_matrices: Dict[tuple, IntMatrix] = {}
        self._element_matrices: Dict[tuple, IntMatrix] = {}
        self._element_columns: Dict[tuple, list] = {}
        self._nil_cache: Optional[Dict[Tuple[str, str, int], Tuple[tuple, ...]]] = None
        self._nil_index: Optional[int] = 0  # 0: not yet computed (see _nilpotency_index)

    # -- element helpers -----------------------------------------------------

    def check_object(self, obj, error) -> None:
        """Refuse, with `error`, an obj that has no identity in the table."""
        guard_name(obj, self.id_coords, error, self._no_object)

    def _hom_rank(self, src, dst, parity) -> int:
        """The rank of NT(src, dst) at parity; refuses a triple naming no Hom group."""
        self.check_object(src, CategoryError)
        self._check_slot(dst, parity)
        return self.rank.get((src, dst, parity), 0)

    def zero(self, src, dst, parity) -> Element:
        return Element(src, dst, parity, (0,) * self._hom_rank(src, dst, parity))

    def identity(self, obj) -> Element:
        self.check_object(obj, CategoryError)
        return Element(obj, obj, 0, self.id_coords[obj])

    def basis_elements(self, src, dst, parity) -> List[Element]:
        r = self._hom_rank(src, dst, parity)
        return [Element(src, dst, parity, tuple(1 if i == k else 0 for i in range(r)))
                for k in range(r)]

    def rep_combo(self, src, dst, parity, k) -> Combo:
        return self.reps[(src, dst, parity)][k]

    def element_combo(self, el: Element) -> Combo:
        out: Combo = {}
        for k, c in enumerate(el.vec):
            if c:
                out = combo_add(out, combo_scale(self.rep_combo(el.src, el.dst, el.parity, k), c))
        return out

    def add(self, a: Element, b: Element) -> Element:
        if (a.src, a.dst, a.parity) != (b.src, b.dst, b.parity):
            raise CategoryError("parity or endpoint mismatch in sum")
        return Element(a.src, a.dst, a.parity, tuple(x + y for x, y in zip(a.vec, b.vec)))

    def scale(self, a: Element, c: int) -> Element:
        return Element(a.src, a.dst, a.parity, tuple(c * x for x in a.vec))

    def word_matrix(self, side: str, W: str, parity: int, word: Word) -> IntMatrix:
        """Matrix of composition with a nonempty composable word w: x ↦ w∘x from
        NT(W, src w) at `parity` (side 'post') or x ↦ x∘w from NT(dst w, W)
        at `parity` (side 'pre'), the product of the generators' post or
        pre matrices.  Built once per table: post extends the prefix by its
        last generator, pre the suffix by its first.  A generator matrix the
        table lacks (a pair never reached within the closure bound) acts
        as 0."""
        guard_name(side, ("post", "pre"), CategoryError, "side must be 'post' or 'pre', not {!r}")
        self._check_slot(W, parity)
        return self._word_matrix(side, W, parity, word)

    def _check_slot(self, W, parity, error=CategoryError) -> None:
        self.check_object(W, error)
        guard_int(parity, error, _PARITY, 0, 1)  # True would find the key of 1

    def _word_matrix(self, side: str, W: str, parity: int, word: Word) -> IntMatrix:
        key = (side, W, parity, word)
        M = self._word_matrices.get(key)
        if M is None:
            arrows = self.presentation.arrows
            if side == "post":
                a, rest = arrows[word[-1]], word[:-1]
            else:
                a, rest = arrows[word[0]], word[1:]
            p = parity
            for nm in rest:
                p ^= arrows[nm].parity
            if side == "post":
                at, to = (W, a.src, p), (W, a.dst, p ^ a.parity)
                gen = self.post.get(at + (a.name,))
            else:
                at, to = (a.dst, W, p), (a.src, W, p ^ a.parity)
                gen = self.pre.get(at + (a.name,))
            if gen is None:
                gen = IntMatrix.zero(self.rank.get(to, 0), self.rank.get(at, 0))
            M = gen * self._word_matrix(side, W, parity, rest) if rest else gen
            self._word_matrices[key] = M
        return M

    def _combo_matrix(self, side: str, el: Element, W: str, parity: int) -> IntMatrix:
        """Sum of word_matrix over the representative words of el, each
        scaled by its coefficient, the identity standing for the empty word.
        Summed once per table for each (side, W, parity, element) and kept
        in _element_matrices; an el that is one nonempty word with
        coefficient 1 is that word's cached matrix itself."""
        key = (side, W, parity, el.src, el.dst, el.parity, el.vec)
        out = self._element_matrices.get(key)
        if out is not None:
            return out
        for w, c in self.element_combo(el).items():
            if w:
                M = self._word_matrix(side, W, parity, w)
            else:
                at = (W, el.src) if side == "post" else (el.dst, W)
                M = IntMatrix.identity(self.rank.get((*at, parity), 0))
            M = M if c == 1 else M.scale(c)
            out = M if out is None else out + M
        if out is None:
            at, to = ((W, el.src), (W, el.dst)) if side == "post" else ((el.dst, W), (el.src, W))
            out = IntMatrix.zero(self.rank.get((*to, parity ^ el.parity), 0),
                                 self.rank.get((*at, parity), 0))
        self._element_matrices[key] = out
        return out

    def _combo_columns(self, side: str, el: Element, W: str, parity: int) -> list:
        """The columns of _combo_matrix as {row: nonzero} dicts, kept on the
        table per (side, W, parity, element); the caller reads them only."""
        key = (side, W, parity, el.src, el.dst, el.parity, el.vec)
        cols = self._element_columns.get(key)
        if cols is None:
            cols = self._element_columns[key] = \
                self._combo_matrix(side, el, W, parity).sparse_columns()
        return cols

    def compose(self, first: Element, then: Element) -> Element:
        """then ∘ first."""
        if first.dst != then.src:
            raise CategoryError("endpoints do not match in compose")
        return Element(first.src, then.dst, first.parity ^ then.parity,
                       self._combo_matrix("post", then, first.src, first.parity).apply(first.vec))

    def post_matrix(self, el: Element, W: str, parity: int) -> IntMatrix:
        """Matrix of x ↦ el∘x from NT(W, el.src) at `parity` to
        NT(W, el.dst), summed over the words of el."""
        self._check_slot(W, parity)
        return self._combo_matrix("post", el, W, parity)

    def pre_matrix(self, el: Element, W: str, parity: int) -> IntMatrix:
        """Matrix of x ↦ x∘el from NT(el.dst, W) at `parity` to
        NT(el.src, W), summed over the words of el."""
        self._check_slot(W, parity)
        return self._combo_matrix("pre", el, W, parity)

    def total_rank(self) -> int:
        return sum(self.rank.values())


def _enumerate_words(presentation: CatPresentation, max_len: int):
    """The words of length at most max_len out of every object, breadth
    first: the buckets by key (src, dst, parity), with their extension
    tables, and per source the words in order as (bucket, index, length).
    The empty word out of obj is index 0 of the bucket (obj, obj, 0)."""
    pres = presentation
    buckets: Dict[Tuple[str, str, int], _Bucket] = {}

    def bucket(key) -> _Bucket:
        b = buckets.get(key)
        if b is None:
            src, dst, parity = key
            b = buckets[key] = _Bucket(src, dst, parity, ext={
                a.name: ((src, a.dst, parity ^ a.parity), [])
                for a in pres.by_src.get(dst, ())})
        return b

    words_from: Dict[str, List[Tuple[_Bucket, int, int]]] = {}
    for src in pres.objects:
        b = bucket((src, src, 0))
        b.words.append(())
        frontier = [(b, 0, 0)]
        acc = list(frontier)
        for n in range(1, max_len + 1):
            # a bucket's words of one length follow its shorter ones, in
            # frontier order, so each table grows in index order
            nxt = []
            for b, i, _ in frontier:
                b.short += 1
                w = b.words[i]
                for nm, (key2, table) in b.ext.items():
                    b2 = bucket(key2)
                    j = len(b2.words)
                    b2.words.append(w + (nm,))
                    table.append(j)
                    nxt.append((b2, j, n))
            acc.extend(nxt)
            frontier = nxt
        words_from[src] = acc
    return buckets, words_from


def _walk(buckets: Dict[Tuple[str, str, int], _Bucket], b: _Bucket, i: int,
          word: Word) -> int:
    """The index of words[i]·word in its bucket, by walking the extension
    tables from word i of b; every word on the way but the last must be
    shorter than the bound."""
    for nm in word:
        key, step = b.ext[nm]
        b, i = buckets[key], step[i]
    return i


def _relations_by_source(pres: CatPresentation) -> Dict[str, list]:
    """The relations by source object, in relation order, each as
    (index, target, parity, nonzero terms (word, coefficient), length of
    its longest word)."""
    out: Dict[str, list] = {}
    for k, r in enumerate(pres.relations):
        s, t, p = pres.word_signature(next(iter(r)))
        out.setdefault(s, []).append(
            (k, t, p, [(rw, c) for rw, c in r.items() if c], max(len(w) for w in r)))
    return out


def _redundant_relations(presentation: CatPresentation) -> FrozenSet[int]:
    """The indices of the relations whose instances hom_closure's saturation
    already holds when they pop, memoised on the presentation.

    Relation r (index k, source s, longest word of length m) is marked when
    it lies in the Z-span of the parallel vectors x·r'·y, for r' a relation
    and x, y words, with every word of length at most m, and with x
    nonempty or r' after r in `relations`.  Let w·r be an instance that
    fits the bound.  Each w·x·r' fits it too and is placed; the instances
    pop in reverse, longer words first and, at one word, later relations
    first, so w·x·r' pops before w·r, and the extensions of every vector
    that grows a lattice pop (depth first) before the next instance.  So
    every term w·x·r'·y has reached its lattice when w·r pops, and w·r
    would reduce to zero: skipping it leaves every lattice, echelon row and
    table as they were.  The one step not proved is a term reached only
    through an extension chain whose middle vector reduced to zero, which
    the closure does not extend; its completeness assumes that step too.
    The rule does not depend on the bound.  Membership is tested in one
    small echelon per relation, on the words of length at most the longest
    relation word, placed as hom_closure places its instances."""
    pres = presentation
    if pres._redundant is not None:
        return pres._redundant
    nrel = len(pres.relations)
    rels_from = _relations_by_source(pres)
    top = max((rel[-1] for own in rels_from.values() for rel in own), default=0)
    buckets, words_from = _enumerate_words(pres, top)
    marked = set()
    for s, own in rels_from.items():
        longest = max(rel[-1] for rel in own)
        # the vectors x·r'·y out of s, by bucket, as (length of the longest
        # word, k' when x is empty else past every index, vector)
        found: Dict[Tuple[str, str, int], list] = defaultdict(list)
        stack = []
        for b, i, n in words_from[s]:
            for k2, t2, p2, terms2, m2 in rels_from.get(b.dst, ()):
                if n + m2 <= longest:
                    stack.append(((s, t2, b.parity ^ p2), n + m2, nrel if n else k2,
                                  {_walk(buckets, b, i, rw): c for rw, c in terms2}))
        while stack:
            key, n, k2, vec = stack.pop()
            found[key].append((n, k2, vec))
            if n < longest:
                for key2, step in buckets[key].ext.values():
                    stack.append((key2, n + 1, k2, {step[i]: c for i, c in vec.items()}))
        for k, t, p, terms, m in own:
            key = (s, t, p)
            lattice = Echelon(len(buckets[key].words))
            for n, k2, vec in found[key]:
                if n <= m and k2 > k:
                    lattice._insert(dict(vec))
            start = buckets[(s, s, 0)]
            if _reduce({_walk(buckets, start, 0, rw): c for rw, c in terms},
                       lattice.pivots) is not None:
                marked.add(k)
    pres._redundant = frozenset(marked)
    return pres._redundant


def hom_closure(presentation: CatPresentation, max_len: Optional[int] = None) -> HomTable:
    """Compute the Hom table by bounded path closure.

    Enumerates words up to max_len, saturates the two-sided ideal generated
    by the relations within that bound, and quotients per (pair, parity).
    The saturation works on word indices: _enumerate_words lists each
    bucket's words by length and records, per arrow, the index of each
    short word extended by it, and every word is found by walking those
    tables (_walk).  Per source, the instances w·r (words in breadth-first
    order, relations in order) are placed by walking from w along r's
    words and queued; vectors are popped last
    first, each goes to its bucket's echelon through Echelon._insert, and
    one that changes the lattice while its support words are all shorter
    than max_len queues its extension by every arrow out of the target,
    in arrow order.  No instance of a relation that _redundant_relations
    marks is placed: each would reduce to zero when it popped, so every
    vector that grows a lattice enters it in the same order.
    A bucket whose relations span Z^n is the zero group, with no Smith form;
    any other takes one, whose rows of U past the rank give the projection
    P onto Z^rank, and a solve of P X = I the basis representatives.  The
    bound is accepted when, per Hom group, the classes of the words of
    length at most max_len - 2 span Z^rank (their echelon has a pivot ±1
    in every coordinate) and every representative word is shorter than
    max_len; otherwise NonStabilizedError.  Column k of the composition
    matrix by an arrow a is then the class of rep_k·a (post) or a·rep_k
    (pre), read off P of the target group at the index reached by walking
    from the empty word along w·a or a·w, for each word w of rep_k.  The
    identity of obj is the class of the empty word, index 0 of
    (obj, obj, 0).  The default bound is that of the builtin equal to the
    space, else 10.
    """
    pres = presentation
    if max_len is None:
        max_len = DEFAULT_MAX_LEN.get(builtin_name(pres.space), 10)
    guard_int(max_len, CategoryError, "max_len must be an integer at least 1, not {!r}", 1)

    buckets, words_from = _enumerate_words(pres, max_len)

    # the instances of a redundant relation would reduce to zero, so none is placed
    redundant = _redundant_relations(pres)
    rels_from = {s: [rel for rel in own if rel[0] not in redundant]
                 for s, own in _relations_by_source(pres).items()}

    # saturate relation lattices per source; queued vectors are sparse
    # {word index: nonzero coefficient} on the bucket of their key
    for b in buckets.values():
        b.lattice = Echelon(len(b.words))
    for src in pres.objects:
        queue = []
        for b, i, n in words_from.pop(src):
            for _, t, p, terms, m in rels_from.get(b.dst, ()):
                if n + m <= max_len:
                    queue.append(((src, t, b.parity ^ p),
                                  {_walk(buckets, b, i, rw): c for rw, c in terms}))
        while queue:
            key, vec = queue.pop()
            b = buckets[key]
            # _insert keeps and reduces its argument, so it gets a copy
            if not b.lattice._insert(dict(vec)):
                continue
            # extend by one arrow if every support word is short
            if max(vec) < b.short:
                for key2, step in b.ext.values():
                    queue.append((key2, {step[i]: c for i, c in vec.items()}))

    # quotient per bucket
    table = HomTable(pres)
    proj: Dict[Tuple[str, str, int], IntMatrix] = {}
    for key, b in sorted(buckets.items()):
        lat = b.lattice
        n = len(b.words)
        if lat.spans_all():
            # the relations span Z^n: the zero group, with no Smith form
            table.rank[key], table.reps[key] = 0, []
            proj[key] = IntMatrix.zero(0, n)
            continue
        sf = smith(_SparseMatrix(lat.sparse_basis(), n))
        diag = sf.diagonal()
        t = sum(1 for d in diag if d != 0)
        if any(d not in (0, 1) for d in diag):
            raise InconsistentRelationError(
                f"parallel paths with torsion in Hom({key[0]}, {key[1]})")
        rank = n - t
        P = sf._u_rows(t, n)
        table.rank[key] = rank
        proj[key] = P
        if rank:
            X = solve_columns(P, IntMatrix.identity(rank))
            if X is None:
                raise ZExactError("unsolvable system")
            reps = []
            for x in X.columns():
                rep: Combo = {}
                for i, c in enumerate(x):
                    if c:
                        rep[b.words[i]] = rep.get(b.words[i], 0) + c
                reps.append(rep)
            table.reps[key] = reps
        else:
            table.reps[key] = []

    # verify short words span every bucket: the columns of P span Z^rank
    # (P X = I), so the short ones do exactly when their echelon has a
    # pivot ±1 in every coordinate.  The composition matrices extend each
    # representative word by one arrow, so that word must exist.
    for key, b in sorted(buckets.items()):
        rank = table.rank[key]
        if rank == 0:
            continue
        P = proj[key]
        span = Echelon(rank)
        for i, w in enumerate(b.words):
            if len(w) <= max_len - 2:
                span.add(list(P.column(i)))
        if not span.spans_all():
            raise NonStabilizedError(
                f"Hom({key}) not spanned by short words at max_len={max_len}")
        if any(len(w) >= max_len for rep in table.reps[key] for w in rep):
            raise NonStabilizedError(
                f"Hom({key}) has a representative word of length max_len={max_len}")

    # identity coordinates
    for obj in pres.objects:
        table.id_coords[obj] = tuple(proj[(obj, obj, 0)].column(0))
        if all(x == 0 for x in table.id_coords[obj]):
            raise InconsistentRelationError(f"identity of {obj} collapsed to zero")

    # pre/post composition matrices: column k of post by a is the class of
    # rep_k·a, and of pre by a the class of a·rep_k, each word reached by
    # walking from the empty word of its source
    for key in sorted(buckets):
        src, dst, parity = key
        reps = table.reps[key]

        def classes(key2, start, extend) -> IntMatrix:
            rank2 = table.rank.get(key2, 0)
            cols = []
            for rep in reps:
                col = [0] * rank2
                for w, c in rep.items():
                    _add_scaled(col, proj[key2].column(_walk(buckets, start, 0, extend(w))), c)
                cols.append(col)
            return IntMatrix._from_columns(cols, rank2)

        for a in pres.by_src.get(dst, ()):
            table.post[key + (a.name,)] = classes(
                (src, a.dst, parity ^ a.parity), buckets[(src, src, 0)],
                lambda w: w + (a.name,))
        for a in pres.by_dst.get(src, ()):
            table.pre[key + (a.name,)] = classes(
                (a.src, dst, parity ^ a.parity), buckets[(a.src, a.src, 0)],
                lambda w: (a.name,) + w)
    return table


# ---------------------------------------------------------------------------
# Ring ideal data
# ---------------------------------------------------------------------------

class RingIdealData(_Record):
    __slots__ = _fields = ("nilpotent", "semidirect", "nilpotency_index", "end_nil_ranks")

    def __init__(self, nilpotent: bool, semidirect: bool, nilpotency_index: Optional[int],
                 end_nil_ranks: Dict[str, Tuple[int, int]]):
        self.nilpotent = nilpotent
        self.semidirect = semidirect
        self.nilpotency_index = nilpotency_index
        self.end_nil_ranks = end_nil_ranks


def _along(side: str, src: str, dst: str) -> Tuple[str, str]:
    """(src, dst) on a left module, (dst, src) on a right one: the ends of the
    module map along an arrow src -> dst, and the Hom group of P_src or Q_src at dst."""
    return (src, dst) if side == "left" else (dst, src)


def generator_images(arrows: Iterable[Arrow], side: str, act: Callable,
                     vecs: Optional[dict] = None) -> Dict[Tuple[str, int], List[dict]]:
    """J·N per (object, parity), for the nil ideal J and a module N on `side`
    (see _along): the nonzero images of N under the generators in `arrows`,
    in their order and then by parity, as fresh {index: nonzero} dicts.  A
    nil element is a sum of nonempty words and a word acts through its
    generators one at a time, so these span J·N; no nil element acts on its
    own, and for a submodule N the images of vectors spanning it suffice.
    act(a, p) gives the columns of a's matrix out of N's parity-p part as
    fresh {row: nonzero} dicts (None: nothing to build), which are the
    images themselves where N is taken whole; a block-diagonal action,
    as on a free module, lists each block's columns shifted to its rows, so
    a vector's image reads only the blocks where it is nonzero (see
    zexact.sparse_image).  vecs[(obj, p)] holds N's spanning vectors there
    as {index: nonzero} dicts, or None for all of N there, whose images are
    the columns themselves; a slot that vecs lacks holds nothing, and
    vecs=None stands for all of N."""
    guard_name(side, ("left", "right"), CategoryError, _SIDE)
    out: Dict[Tuple[str, int], List[dict]] = {}
    for a in arrows:
        s, d = _along(side, a.src, a.dst)
        for p in (0, 1):
            if vecs is not None and (s, p) not in vecs:
                continue
            V = None if vecs is None else vecs[(s, p)]
            cols = act(a, p)
            if cols is not None:
                images = cols if V is None else (sparse_image(cols, v) for v in V)
                out.setdefault((d, p ^ a.parity), []).extend(filter(None, images))
    return out


def nil_basis(table: HomTable) -> Dict[Tuple[str, str, int], Tuple[tuple, ...]]:
    """Lattice bases of the nil part of every Hom group: all of it between
    distinct objects and in every odd group, and in End(obj)_even the echelon
    basis of J·P_obj there, P_obj = NT(obj, -).

    Computed once per table; every caller shares the returned dict."""
    if table._nil_cache is not None:
        return table._nil_cache
    out: Dict[Tuple[str, str, int], Tuple[tuple, ...]] = {}
    for src in table.objects:
        images = generator_images(table.presentation.by_dst.get(src, ()), "left",
                                  lambda a, p: _columns(table.post.get((src, a.src, p, a.name))))
        for dst in table.objects:
            for parity in (0, 1):
                rank = table.rank.get((src, dst, parity), 0)
                if src != dst or parity:
                    out[(src, dst, parity)] = tuple(
                        tuple(int(i == k) for i in range(rank)) for k in range(rank))
                    continue
                lat = Echelon(rank)
                for v in images.get((src, 0), ()):
                    lat._insert(v)
                out[(src, dst, parity)] = tuple(tuple(v) for v in lat.basis())
    table._nil_cache = out
    return out


MAX_NILPOTENCY_INDEX = 24  # ideal_checks calls J nilpotent only if J^24 = 0


def _columns(M: Optional[IntMatrix]) -> Optional[list]:
    """The sparse columns of a generator matrix, or None for a missing one."""
    return None if M is None else M.sparse_columns()


def _nil_power_step(table: HomTable, power: dict) -> dict:
    """Lattice bases of J^(i+1) = J·J^i from those of J^i (nonzero keys
    only, each a list of {index: nonzero} vectors), J^i taken as a
    submodule of each P_src = NT(src, -)."""
    by_src = table.presentation.by_src
    spans: Dict[str, dict] = {}
    for (src, dst, p), vs in power.items():
        spans.setdefault(src, {})[(dst, p)] = vs
    nxt = {}
    for src, vecs in spans.items():
        arrows = [a for b in dict.fromkeys(b for b, _ in vecs) for a in by_src.get(b, ())]
        images = generator_images(arrows, "left",
                                  lambda a, p: _columns(table.post.get((src, a.src, p, a.name))),
                                  vecs)
        for (dst, p), vs in images.items():
            lat = Echelon(table.rank[(src, dst, p)])
            for v in vs:
                lat._insert(v)
            if lat.pivots:
                nxt[(src, dst, p)] = lat.sparse_basis()
    return nxt


def end_splits(table: HomTable, obj: str) -> bool:
    """True when End(obj) = Z·id ⊕ nil: the odd part is entirely nil (a nil
    basis is a lattice basis), and id_coords[obj] with the even nil basis
    are rank-many rows that span Z^rank.  Then the identity coefficient
    End(obj)_even -> Z is onto, with the even nil lattice as its kernel."""
    table.check_object(obj, CategoryError)
    nil = nil_basis(table)
    ev, rank = nil[(obj, obj, 0)], table.rank.get((obj, obj, 0), 0)
    span = Echelon(rank)
    for row in (table.id_coords[obj], *ev):
        span.add(row)
    return (len(nil[(obj, obj, 1)]) == table.rank.get((obj, obj, 1), 0)
            and (rank == 0 or len(ev) + 1 == rank and span.spans_all()))


def _nilpotency_index(table: HomTable) -> Optional[int]:
    """The least i with J^i = 0, or None where J^MAX_NILPOTENCY_INDEX is not
    0: computed once per table from its nil basis and generator matrices,
    as nil_basis is, and shared by ideal_checks and the resolution engine."""
    if table._nil_index == 0:
        power = {k: [_nonzeros(v) for v in vs] for k, vs in nil_basis(table).items() if vs}
        index = 1
        while power and index < MAX_NILPOTENCY_INDEX:
            power = _nil_power_step(table, power)
            index += 1
        table._nil_index = None if power else index
    return table._nil_index


def ideal_checks(table: HomTable) -> RingIdealData:
    """NT_nil as the classes of nonempty words; nilpotency by lattice powers
    (_nilpotency_index); semidirectness = every End group splits as
    Z·id ⊕ nil (end_splits, the predicate the resolution engine checks
    before it covers S_Y)."""
    nil = nil_basis(table)
    end_nil_ranks = {obj: (len(nil[(obj, obj, 0)]), len(nil[(obj, obj, 1)]))
                     for obj in table.objects}
    semidirect = all(end_splits(table, obj) for obj in table.objects)
    index = _nilpotency_index(table)
    return RingIdealData(index is not None, semidirect, index, end_nil_ranks)


# ---------------------------------------------------------------------------
# Bundled per-space data
# ---------------------------------------------------------------------------

class SpaceCategory(_Record):
    """Space, presentation, computed table and designated words, bundled,
    with the generic engine's resolutions of the simple modules by object
    (see ntmod.resolution_for), which equality and repr leave out.  A
    category can be weakly referenced."""
    _fields = ("space", "presentation", "table", "designator")
    __slots__ = _fields + ("resolutions", "__weakref__")

    def __init__(self, space: FiniteSpace, presentation: CatPresentation, table: HomTable,
                 designator: Designator, resolutions: Optional[dict] = None):
        self.space = space
        self.presentation = presentation
        self.table = table
        self.designator = designator
        self.resolutions = {} if resolutions is None else resolutions

    @property
    def objects(self):
        return self.table.objects


_CATEGORY_CACHE: Dict[FiniteSpace, SpaceCategory] = {}


def build_category(space: FiniteSpace) -> SpaceCategory:
    """NT*(X) with its table built fresh by hom_closure."""
    pres, designator = _presentation(space)
    return SpaceCategory(space, pres, hom_closure(pres), designator)


def space_category(space: FiniteSpace) -> SpaceCategory:
    """NT*(X), once per process for each set of points and opens.  A space
    equal to a builtin, whatever its name, gets that builtin's category, from
    the shipped table cache where it loads; any other space is built fresh
    over an unnamed copy, so that the space its module and table JSON write
    does not depend on which copy of it came first."""
    sc = _CATEGORY_CACHE.get(space)
    if sc is None:
        name = builtin_name(space)
        if name is None:
            space = FiniteSpace(space.points, space.opens)
        else:
            space = builtin_space(name)
        sc = (name and _load_cache_file(name)) or build_category(space)
        _CATEGORY_CACHE[space] = sc
    return sc


def builtin_category(space_name: str) -> SpaceCategory:
    """The category of the builtin space of that name."""
    return space_category(builtin_space(space_name))


# -- table cache files -------------------------------------------------------

def table_to_json(sc: SpaceCategory) -> dict:
    t = sc.table
    return {
        "presentation": sc.presentation.to_json(),
        "ranks": [[list(k), v] for k, v in sorted(t.rank.items())],
        "reps": [[list(k), [[{"coeff": c, "path": list(w)} for w, c in sorted(r.items())]
                            for r in reps]]
                 for k, reps in sorted(t.reps.items())],
        "post": [[list(k), [m.rows, m.cols], m.to_lists()]
                 for k, m in sorted(t.post.items())],
        "pre": [[list(k), [m.rows, m.cols], m.to_lists()]
                for k, m in sorted(t.pre.items())],
        "ids": {o: list(v) for o, v in t.id_coords.items()},
    }


def table_from_json(data) -> SpaceCategory:
    pres = CatPresentation.from_json(data["presentation"])
    table = HomTable(pres)
    for k, v in data["ranks"]:
        table.rank[(k[0], k[1], k[2])] = v
    for k, reps in data["reps"]:
        table.reps[(k[0], k[1], k[2])] = [
            {tuple(t["path"]): t["coeff"] for t in r} for r in reps]
    for k, shape, m in data["post"]:
        table.post[(k[0], k[1], k[2], k[3])] = IntMatrix(m, shape[0], shape[1])
    for k, shape, m in data["pre"]:
        table.pre[(k[0], k[1], k[2], k[3])] = IntMatrix(m, shape[0], shape[1])
    for o, v in data["ids"].items():
        table.id_coords[o] = tuple(v)
    designator = Designator(pres.space, list(pres.arrows.values()))
    return SpaceCategory(pres.space, pres, table, designator)


def _cache_path(space_name: str):
    import os
    return os.path.join(os.path.dirname(__file__), "data", "tables",
                        f"{space_name}.json")


def _load_cache_file(space_name: str) -> Optional[SpaceCategory]:
    import os
    path = _cache_path(space_name)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        data = json.load(fh)
    sc = table_from_json(data)
    # light sanity: identities present and nonzero
    for obj in sc.table.objects:
        if all(x == 0 for x in sc.table.id_coords.get(obj, ())) \
                and sc.table.rank.get((obj, obj, 0), 0) > 0:
            return None
    return sc


def write_cache_file(space_name: str):
    import os
    sc = build_category(builtin_space(space_name))
    path = _cache_path(space_name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table_to_json(sc), fh, sort_keys=True)
    return path
