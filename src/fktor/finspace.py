"""Finite topological spaces and their locally closed subsets.

Spaces are stored by their full open-set family; the specialization
preorder, connectivity and locally closed subsets are all derived from it.
Points are named by single characters, so a subset is rendered, without
ambiguity, as the sorted concatenation of its names ("124"), matching the
usual notation for these spaces.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import FrozenSet, Iterable, NamedTuple, Optional, Sequence

from .zexact import guard_int, guard_name


class SpaceError(Exception):
    pass


Subset = FrozenSet[str]


def label(points: Iterable[str]) -> str:
    return "".join(sorted(points))


class FiniteSpace:
    """A finite topological space given by its open sets."""

    def __init__(self, points: Sequence[str], opens: Iterable[Iterable[str]],
                 name: Optional[str] = None):
        points = tuple(points)
        for p in points:
            if not (isinstance(p, str) and len(p) == 1):
                raise SpaceError(f"point name {p!r} is not a one-character string")
        if len(set(points)) != len(points):
            raise SpaceError("points must be distinct")
        self.points = tuple(sorted(points))
        pset = frozenset(self.points)
        try:
            fam = {frozenset(o) for o in opens}
        except TypeError:
            raise SpaceError(f"opens must be iterables of points, not {opens!r}") from None
        for o in fam:
            if not o <= pset:
                raise SpaceError(f"open set {sorted(o)} not contained in the point set")
        if frozenset() not in fam or pset not in fam:
            raise SpaceError("opens must contain the empty set and the full space")
        for a, b in combinations(fam, 2):
            if a | b not in fam:
                raise SpaceError(f"opens not closed under union: {label(a)} | {label(b)}")
            if a & b not in fam:
                raise SpaceError(f"opens not closed under intersection: {label(a)} & {label(b)}")
        self.opens = frozenset(fam)
        self.name = name
        self._min_open = {p: frozenset.intersection(*[o for o in fam if p in o])
                          for p in self.points}
        self._lc_star = None
        self._six_term_pairs = None

    # -- basic structure ---------------------------------------------------

    def lc_star(self) -> list:
        """LC(X)*, the nonempty connected locally closed subsets, in the
        order of lc_subsets; listed once per space."""
        if self._lc_star is None:
            self._lc_star = [lc for lc in lc_subsets(self)
                             if lc.value and self.is_connected(lc.value)]
        return self._lc_star

    def six_term_pairs(self) -> list:
        """(U, Y, components(U), components(Y∖U)) for Y in LC(X)* and U
        relatively open in Y with ∅ ⊊ U ⊊ Y, in the order of lc_star and
        relative_opens; listed once per space.  These are the pairs whose
        six-term sequences are not vacuous."""
        if self._six_term_pairs is None:
            self._six_term_pairs = [
                (U, Y, tuple(self.components(U)), tuple(self.components(Y - U)))
                for Y in (lc.value for lc in self.lc_star())
                for U in self.relative_opens(Y) if U and U != Y]
        return self._six_term_pairs

    def min_open(self, p: str) -> Subset:
        return self._min_open[p]

    def is_t0(self) -> bool:
        return len({self._min_open[p] for p in self.points}) == len(self.points)

    def specializes(self, x: str, y: str) -> bool:
        """True iff every open set containing x also contains y."""
        return y in self._min_open[x]

    def closure(self, s: Iterable[str]) -> Subset:
        ss = frozenset(s)
        return frozenset(p for p in self.points if self._min_open[p] & ss)

    # -- relative topology ---------------------------------------------------

    def is_open_in(self, a: Iterable[str], y: Iterable[str]) -> bool:
        """a is relatively open in y (both subsets of the space)."""
        aa, yy = frozenset(a), frozenset(y)
        if not aa <= yy:
            return False
        return all(self._min_open[p] & yy <= aa for p in aa)

    def is_closed_in(self, a: Iterable[str], y: Iterable[str]) -> bool:
        aa, yy = frozenset(a), frozenset(y)
        return aa <= yy and self.is_open_in(yy - aa, yy)

    def relative_opens(self, y: Iterable[str]) -> list:
        yy = frozenset(y)
        return sorted({o & yy for o in self.opens}, key=lambda s: (len(s), label(s)))

    def is_locally_closed(self, s: Iterable[str]) -> bool:
        ss = frozenset(s)
        return self.is_open_in(ss, self.closure(ss))

    def components(self, s: Iterable[str]) -> list:
        """Connected components of the subspace s, from its induced topology."""
        ss = sorted(frozenset(s))
        if not ss:
            return []
        parent = {p: p for p in ss}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        sset = frozenset(ss)
        for p in ss:
            for q in self._min_open[p] & sset:
                union(p, q)
        groups = {}
        for p in ss:
            groups.setdefault(find(p), []).append(p)
        return sorted((frozenset(g) for g in groups.values()),
                      key=lambda c: label(c))

    def is_connected(self, s: Iterable[str]) -> bool:
        return len(self.components(s)) == 1

    def __eq__(self, other):
        """Spaces are equal when their points and opens are; the name is
        only a label."""
        return isinstance(other, FiniteSpace) and \
            (self.points, self.opens) == (other.points, other.opens)

    def __hash__(self):
        return hash((self.points, self.opens))

    def __repr__(self):
        nm = self.name or "space"
        return f"FiniteSpace({nm}, points={''.join(self.points)})"


class LCSubset(NamedTuple("LCSubset", [("value", Subset), ("witness_u", Subset),
                                        ("witness_v", Subset)])):
    """A locally closed subset with an open-pair witness Y = U \\ V, V ⊆ U."""
    __slots__ = ()

    def __new__(cls, value: Subset, witness_u: Subset, witness_v: Subset):
        if not witness_v <= witness_u:
            raise SpaceError("witness must satisfy V ⊆ U")
        if witness_u - witness_v != value:
            raise SpaceError("witness does not reproduce the subset")
        return tuple.__new__(cls, (value, witness_u, witness_v))

    @property
    def label(self) -> str:
        return label(self.value)


def lc_subsets(X: FiniteSpace) -> list:
    """All locally closed subsets, the empty one included, as differences
    of open pairs, sorted by (size, label)."""
    seen = {}
    for u in X.opens:
        for v in X.opens:
            if v <= u:
                y = u - v
                if y not in seen:
                    seen[y] = LCSubset(y, u, v)
    return sorted(seen.values(), key=lambda lc: (len(lc.value), lc.label))


# ---------------------------------------------------------------------------
# Specialization order, accordions
# ---------------------------------------------------------------------------

def hasse_edges(X: FiniteSpace) -> list:
    """Cover relations of the specialization partial order (T0 spaces)."""
    if not X.is_t0():
        raise SpaceError("Hasse diagram requires a T0 space")
    lt = {(x, y) for x in X.points for y in X.points
          if x != y and X.specializes(x, y)}
    covers = []
    for (x, y) in lt:
        if not any((x, z) in lt and (z, y) in lt for z in X.points
                   if z not in (x, y)):
            covers.append((x, y))
    return sorted(covers)


def is_accordion_union(X: FiniteSpace) -> bool:
    """True iff every connected component's Hasse diagram is a simple path."""
    edges = hasse_edges(X)
    adj = {p: set() for p in X.points}
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    for comp in X.components(X.points):
        nodes = sorted(comp)
        deg = {p: len(adj[p] & comp) for p in nodes}
        ecount = sum(deg.values()) // 2
        if any(d > 2 for d in deg.values()):
            return False
        # connected (by construction of components) with max degree 2:
        # a path iff it is acyclic iff |E| = |V| - 1
        if ecount != len(nodes) - 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def z_space(m: int) -> FiniteSpace:
    """(m+1) points 1..m+1; a set is open iff it contains m+1 or is empty.
    Points are named by single characters, so m is at most 8."""
    guard_int(m, SpaceError, "z_space needs an integer 1 <= m <= 8, not {!r}", 1, 8)
    points = [str(i) for i in range(1, m + 2)]
    top = str(m + 1)
    rest = [str(i) for i in range(1, m + 1)]
    opens = [frozenset()]
    for k in range(m + 1):
        for sub in combinations(rest, k):
            opens.append(frozenset(sub) | {top})
    return FiniteSpace(points, opens, name=f"Z{m}")


def s_space() -> FiniteSpace:
    opens = [set(), {"4"}, {"2", "4"}, {"3", "4"}, {"2", "3", "4"},
             {"1", "2", "3", "4"}]
    return FiniteSpace(["1", "2", "3", "4"], opens, name="S")


def pseudocircle() -> FiniteSpace:
    # partial order 1<3, 1<4, 2<3, 2<4; opens are the up-sets
    opens = [set(), {"3"}, {"4"}, {"3", "4"}, {"1", "3", "4"},
             {"2", "3", "4"}, {"1", "2", "3", "4"}]
    return FiniteSpace(["1", "2", "3", "4"], opens, name="C2")


def point_space() -> FiniteSpace:
    return FiniteSpace(["1"], [set(), {"1"}], name="pt")


BUILTIN_NAMES = ("Z1", "Z2", "Z3", "Z4", "S", "C2", "pt")


def builtin_space(name: str) -> FiniteSpace:
    """The builtin space of that name; exactly the names in BUILTIN_NAMES."""
    guard_name(name, BUILTIN_NAMES, SpaceError, "unknown builtin space {!r}")
    if name.startswith("Z"):
        return z_space(int(name[1:]))
    if name == "S":
        return s_space()
    if name == "C2":
        return pseudocircle()
    return point_space()


def builtin_name(X: FiniteSpace) -> Optional[str]:
    """The name of the builtin space with X's points and opens, or None.
    X's own name is tried first; it decides nothing."""
    names = sorted(BUILTIN_NAMES, key=lambda n: n != X.name)
    return next((n for n in names if builtin_space(n) == X), None)


def _point_names(value, what: str) -> list:
    """A JSON list of point names, each a string."""
    if not isinstance(value, list):
        raise SpaceError(f"{what} must be a list of point names, not {value!r}")
    for p in value:
        if not isinstance(p, str):
            raise SpaceError(f"point name {p!r} in {what} is not a string")
    return value


def space_from_json(data) -> FiniteSpace:
    """A space from its JSON form, {"builtin": name} or {"points": [...],
    "opens": [[...], ...], "name": ...} with points named by strings.
    Malformed input raises SpaceError."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as e:
            raise SpaceError(f"space JSON does not parse: {e}") from None
    if not isinstance(data, dict):
        raise SpaceError("space JSON must be an object")
    if "builtin" in data:
        return builtin_space(data["builtin"])
    for key in ("points", "opens"):
        if key not in data:
            raise SpaceError(f"space JSON lacks {key!r}")
        if not isinstance(data[key], list):
            raise SpaceError(f"space {key!r} must be a list")
    points = _point_names(data["points"], "points")
    opens = [frozenset(_point_names(o, "open set")) for o in data["opens"]]
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise SpaceError("space name must be a string")
    return FiniteSpace(points, opens, name=name)


def space_to_json(X: FiniteSpace) -> dict:
    return {
        "points": list(X.points),
        "opens": [sorted(o) for o in sorted(X.opens, key=lambda s: (len(s), label(s)))],
        **({"name": X.name} if X.name else {}),
    }


def space_ref(X: FiniteSpace):
    """X for JSON: its builtin's name, else the `space_to_json` object."""
    return builtin_name(X) or space_to_json(X)


def space_from_ref(ref) -> FiniteSpace:
    """The space `space_ref` wrote; malformed input raises SpaceError."""
    return space_from_json(ref if isinstance(ref, dict) else {"builtin": ref})
