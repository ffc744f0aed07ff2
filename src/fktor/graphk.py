"""Graph algebra front end: block adjacency matrices over a finite space,
structural checks, subquotient K-groups via B' = Bᵗ - I, and the assembly of
the full module of subquotient K-groups for the Tor pipeline.

Conventions: adjacency[v][w] counts edges v -> w; the ideal-lattice
triangularity condition forbids edges from open-part vertices into the
closed part, i.e. B'[rows V_{Y∖U}, cols V_U] = 0 for every U open in Y.
The boundary map acts by the off-diagonal block of B' with the positive
sign convention.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .finspace import FiniteSpace, builtin_name, label, lc_subsets, space_from_ref, space_ref
from .ntcat import SpaceCategory, space_category
from .ntmod import GradedModule, TorReport, tor
from .zexact import (AbGroupNF, GradedGroup, GradedHom, IntMatrix, Presentation,
                     _Record, guard_int, hermite_coords, hnf_columns, kernel,
                     subquotient_homology)


class GraphError(Exception):
    pass


class BlockGraph:
    """Finite graph with vertices grouped into blocks labelled by the points
    of a finite space; the block order of the input fixes the matrix layout.

    `reversed_edges` holds the point pairs (x, y) with an edge from x to y
    and y outside min_open(x).  For Y locally closed and U = O ∩ Y open in
    Y, the block B'[Y∖U, U] holds the edges from U into Y∖U, and an edge
    from x in U into min_open(x) ⊆ O stays in U or leaves Y; so the block
    is nonzero exactly when a reversed pair runs from U into Y∖U, and some
    block of Y is nonzero exactly when a reversed pair lies in Y (take
    U = min_open(x) ∩ Y).  So `triangular`, every such block zero, means
    that no pair is reversed (X itself is locally closed)."""

    def __init__(self, space: FiniteSpace, blocks: Sequence[Tuple[str, int]],
                 adjacency: IntMatrix):
        self.space = space
        self.blocks = list(blocks)
        pts = [p for p, _ in blocks]
        if sorted(pts) != sorted(space.points):
            raise GraphError("blocks must biject onto the points of the space")
        for _, k in blocks:
            guard_int(k, GraphError, "every block needs at least one vertex: block vertex "
                      "counts must be integers of at least 1, not {!r}", 1)
        n = sum(n for _, n in blocks)
        if adjacency.rows != n or adjacency.cols != n:
            raise GraphError(f"adjacency must be {n}x{n}")
        if any(x < 0 for row in adjacency.data for x in row):
            raise GraphError("adjacency entries must be nonnegative")
        self.adjacency = adjacency
        self.n = n
        self._offsets = {}
        at = 0
        for p, k in blocks:
            self._offsets[p] = (at, at + k)
            at += k
        pt = [p for p, k in blocks for _ in range(k)]
        self.reversed_edges = frozenset(
            (pt[v], pt[w]) for v, row in enumerate(adjacency.data)
            for w, x in enumerate(row) if x and not space.specializes(pt[v], pt[w]))
        self.triangular = not self.reversed_edges
        # B' = A^t - I, the matrix whose sub-blocks compute the K-groups
        bt = adjacency.transpose()
        self.bprime = bt - IntMatrix.identity(n)

    # -- vertex index helpers -------------------------------------------------

    def vertices_of(self, subset) -> List[int]:
        out = []
        for p, _ in self.blocks:
            if p in subset:
                lo, hi = self._offsets[p]
                out.extend(range(lo, hi))
        return out

    def bprime_block(self, row_subset, col_subset) -> IntMatrix:
        return self.bprime.submatrix(self.vertices_of(row_subset),
                                     self.vertices_of(col_subset))

    # -- JSON schema -----------------------------------------------------------

    @staticmethod
    def from_json(data, space: Optional[FiniteSpace] = None) -> "BlockGraph":
        if isinstance(data, str):
            data = json.loads(data)
        if space is None:
            space = space_from_ref(data["space"])
        blocks = [(b["point"], b["vertices"]) for b in data["blocks"]]
        return BlockGraph(space, blocks, IntMatrix(data["adjacency"]))

    def to_json(self) -> dict:
        return {
            "space": space_ref(self.space),
            "blocks": [{"point": p, "vertices": k} for p, k in self.blocks],
            "adjacency": self.adjacency.to_lists(),
        }


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

class GraphReport(_Record):
    __slots__ = _fields = ("triangular", "no_sinks", "no_sources", "condition_k",
                           "condition_k_checked", "problems")

    def __init__(self, triangular: bool, no_sinks: bool, no_sources: bool,
                 condition_k: bool, condition_k_checked: bool,
                 problems: Optional[List[str]] = None):
        self.triangular = triangular
        self.no_sinks = no_sinks
        self.no_sources = no_sources
        self.condition_k = condition_k
        self.condition_k_checked = condition_k_checked  # always True; kept in the report schema
        self.problems = [] if problems is None else problems


def _single_cycle_components(G: BlockGraph) -> List[List[int]]:
    """Strongly connected components that are one cycle and nothing more.

    A strongly connected component has at least as many edges as vertices
    when it contains a cycle, with equality exactly when it is a single
    cycle; edges count with multiplicity, loops included.  The components
    come from the transitive closure, one n-bit int per vertex: bit w of
    reach[v] is set when a path of length >= 1 runs from v to w (Warshall's
    update, n² operations on n-bit ints).  A vertex v lies on a cycle when
    its own bit is set, and its component is then the w with w in reach[v]
    and v in reach[w]."""
    n = G.n
    A = G.adjacency
    reach = [sum(1 << w for w in range(n) if A[v, w]) for v in range(n)]
    for k in range(n):
        for v in range(n):
            if reach[v] >> k & 1:
                reach[v] |= reach[k]
    out = []
    seen = 0
    for v in range(n):
        if reach[v] >> v & 1 and not seen >> v & 1:
            comp = [w for w in range(n) if reach[v] >> w & 1 and reach[w] >> v & 1]
            seen |= sum(1 << w for w in comp)
            if sum(A[a, b] for a in comp for b in comp) == len(comp):
                out.append(comp)
    return out


def graph_checks(G: BlockGraph) -> GraphReport:
    """Triangularity, no sinks, no sources and condition (K), with a
    problem string for each failure; a nonzero block B'[Y∖U, U] is one
    with a reversed edge from U into Y∖U (see BlockGraph)."""
    problems = []
    X = G.space
    if not G.triangular:
        for lc in lc_subsets(X):
            Y = lc.value
            for U in X.relative_opens(Y):
                if any(x in U and y in Y and y not in U for x, y in G.reversed_edges):
                    problems.append(f"B'[{label(Y - U)}, {label(U)}] is nonzero")
    no_sinks = all(any(G.adjacency[v, w] for w in range(G.n)) for v in range(G.n))
    no_sources = all(any(G.adjacency[w, v] for w in range(G.n)) for v in range(G.n))
    if not no_sinks:
        problems.append("graph has a sink")
    if not no_sources:
        problems.append("graph has a source")
    # (K): no vertex on a cycle has exactly one return path
    bad = sorted(v for comp in _single_cycle_components(G) for v in comp)
    if bad:
        problems.append(f"vertices with exactly one return path: {bad}")
    return GraphReport(G.triangular, no_sinks, no_sources, not bad, True, problems)


# ---------------------------------------------------------------------------
# Subquotient K-groups
# ---------------------------------------------------------------------------

class SubquotientK(_Record):
    __slots__ = _fields = ("subset", "k0", "k1_basis")

    def __init__(self, subset: str, k0: Presentation, k1_basis: IntMatrix):
        self.subset = subset
        self.k0 = k0                # coker of B'[V_Y]
        self.k1_basis = k1_basis    # columns: canonical lattice basis of ker B'[V_Y]

    def k0_nf(self) -> AbGroupNF:
        return self.k0.normal_form()

    def k1_nf(self) -> AbGroupNF:
        return AbGroupNF(self.k1_basis.cols, ())


def k_groups(G: BlockGraph, Y) -> SubquotientK:
    """K0 and K1 of the subquotient on the locally closed Y, from B'[Y, Y].
    A Y that holds a reversed edge is not triangular and is refused (see BlockGraph)."""
    YY = frozenset(Y)
    if not G.space.is_locally_closed(YY):
        raise GraphError(f"{label(YY)} is not locally closed")
    if any(x in YY and y in YY for x, y in G.reversed_edges):
        raise GraphError(f"triangularity violated on {label(YY)}")
    B = G.bprime_block(YY, YY)
    return SubquotientK(label(YY), Presentation(B.rows, B), kernel(B))


# ---------------------------------------------------------------------------
# The module of subquotient K-groups
# ---------------------------------------------------------------------------

def _coord_matrix(G: BlockGraph, src, dst) -> IntMatrix:
    """0/1 matrix sending each vertex of src to the same vertex of dst."""
    vs = G.vertices_of(frozenset(src))
    vd = G.vertices_of(frozenset(dst))
    pos = {v: i for i, v in enumerate(vd)}
    out = [[0] * len(vs) for _ in range(len(vd))]
    for j, v in enumerate(vs):
        if v in pos:
            out[pos[v]][j] = 1
    return IntMatrix._of(tuple(map(tuple, out)), len(vd), len(vs))


def fk_module(G: BlockGraph, sc: Optional[SpaceCategory] = None) -> GradedModule:
    """Assemble the left module of subquotient K-groups over the category
    of the graph's space.

    Even entries are the cokernels of the restricted B' matrices, odd entries
    are free on their kernel lattices.  Generators act by coordinate
    inclusion (i), coordinate projection (r), and multiplication by the
    off-diagonal B' block (delta, positive sign)."""
    if sc is None:
        sc = space_category(G.space)
    entries: Dict[str, GradedGroup] = {}
    kd: Dict[str, SubquotientK] = {}
    for obj in sc.objects:
        sub = k_groups(G, frozenset(obj))
        kd[obj] = sub
        entries[obj] = GradedGroup(sub.k0, Presentation.free(sub.k1_basis.cols))

    actions: Dict[str, GradedHom] = {}
    for name, a in sc.presentation.arrows.items():
        se, te = entries[a.src], entries[a.dst]
        if a.kind in ("i", "r"):
            C = _coord_matrix(G, a.src, a.dst)
            ev = C  # cokernel classes map by coordinates
            od = hermite_coords(kd[a.dst].k1_basis, C * kd[a.src].k1_basis)
            if od is None:
                raise GraphError("kernel vector does not restrict; "
                                 "triangularity violated")
            actions[name] = GradedHom.build(0, se, te, ev, od)
        else:
            # delta: K1(src) -> K0(dst) by the off-diagonal block; the
            # component K0(src) -> K1(dst) vanishes for graph algebras
            blk = G.bprime_block(frozenset(a.dst), frozenset(a.src))
            od = blk * kd[a.src].k1_basis
            ev = IntMatrix.zero(kd[a.dst].k1_basis.cols, se.even.generators)
            actions[name] = GradedHom.build(1, se, te, ev, od)
    return GradedModule(sc, "left", entries, actions)


def tor_ck(G: BlockGraph, max_degree: int = 2, engine: str = "auto") -> TorReport:
    """Tor(NT_ss, FK(graph)) up to the requested degree."""
    return tor(fk_module(G), max_degree, engine)


# ---------------------------------------------------------------------------
# Fast paths: the classical three-term complexes evaluated on kernels
# ---------------------------------------------------------------------------

class FastTorResult(_Record):
    __slots__ = _fields = ("group_even", "group_odd", "witnesses", "middle_groups",
                           "homology")

    def __init__(self, group_even: AbGroupNF, group_odd: AbGroupNF,
                 witnesses: Optional[Dict[str, tuple]] = None,
                 middle_groups: Tuple[AbGroupNF, ...] = (),
                 homology: Optional[object] = None):
        self.group_even = group_even
        self.group_odd = group_odd
        self.witnesses = {} if witnesses is None else witnesses
        self.middle_groups = middle_groups
        self.homology = homology  # HomologyResult; class_of factors nothing


def _three_term(G: BlockGraph, space: str, *specs):
    """The maps d1, d2 of a three-term complex of direct sums of fk_module
    entries.  A spec is (sources, targets, blocks): summands are
    (object, shift) pairs, and blocks[i][j] is None or (sign, arrow name),
    read off the module's action of that generator arrow."""
    if builtin_name(G.space) != space:
        raise GraphError(f"the {space} fast path needs a graph over {space}")
    M = fk_module(G)

    def block(b):
        if b is None:
            return None
        sign, name = b
        return M.actions[name] if sign > 0 else -M.actions[name]

    return tuple(
        M.sum_map(0, sources, targets, [[block(b) for b in row] for row in blocks])
        for sources, targets, blocks in specs)


def z3_fast_tor1(G: BlockGraph) -> FastTorResult:
    """Tor_1 over Z3 from the three-term complex

        K(14) ⊕ K(24) ⊕ K(34) -> K(124) ⊕ K(134) ⊕ K(234) -> K(1234)

    of coordinate inclusions; the even lane is f, g on the cokernels of the
    B' blocks φ0, φ1, φ2, the odd lane the same maps on their kernels.  The
    odd part is (ker f ∩ im φ0) / φ0(ker f), reported with witness lattice
    generators and checked against the odd-lane homology."""
    d1, d2 = _three_term(G, "Z3", (
        [("14", 0), ("24", 0), ("34", 0)], [("124", 0), ("134", 0), ("234", 0)],
        [[(1, "i:14>124"), (-1, "i:24>124"), None],
         [(-1, "i:14>134"), None, (1, "i:34>134")],
         [None, (1, "i:24>234"), (-1, "i:34>234")]]), (
        [("124", 0), ("134", 0), ("234", 0)], [("1234", 0)],
        [[(1, "i:124>1234"), (1, "i:134>1234"), (1, "i:234>1234")]]))
    f = d1.from_even.matrix
    phi0 = d1.from_even.source.relations

    # odd part two ways: the lattice identification
    # (ker f ∩ im φ0)/φ0(ker f), which carries the witness generators, and
    # the homology of the kernel complex ker(φ0) -> ker(φ1) -> ker(φ2)
    kerf = kernel(f)
    ker_f_phi0 = kernel(f * phi0)
    L1 = hnf_columns(phi0 * ker_f_phi0)        # ker(f) ∩ im(φ0)
    L2 = hnf_columns(phi0 * kerf)              # φ0(ker f)
    coords = hermite_coords(L1, L2)
    if coords is None:
        raise GraphError("φ0(ker f) not inside ker(f) ∩ im(φ0)")
    quotient = Presentation(L1.cols, coords)
    odd = quotient.normal_form()
    if subquotient_homology(d1.from_odd, d2.from_odd).group != odd:
        raise GraphError("kernel-complex homology disagrees with the "
                         "lattice identification")

    he = subquotient_homology(d1.from_even, d2.from_even)
    witnesses = {}
    if L1.cols:
        witnesses["numerator"] = L1.column(0)
    if L2.cols:
        witnesses["image"] = L2.column(0)
    return FastTorResult(he.group, odd, witnesses)


def s_fast_tor1(G: BlockGraph) -> FastTorResult:
    """Tor_1 over S via the identified three-term complex, whose even lane is

        K1(12) ⊕ K0(4) ⊕ K1(13) -> K0(34) ⊕ K1(1) ⊕ K0(24) -> K0(234)

    (the odd lane swaps the K-parities; the delta blocks vanish there).
    The even-lane homology carries a witness interface for generator
    classes, and the middle groups are reported in normal form."""
    d1, d2 = _three_term(G, "S", (
        [("12", 1), ("4", 0), ("13", 1)], [("34", 0), ("1", 1), ("24", 0)],
        [[(1, "d:12>34"), (-1, "i:4>34"), None],
         [(-1, "r:12>1"), None, (1, "r:13>1")],
         [None, (1, "i:4>24"), (-1, "d:13>24")]]), (
        [("34", 0), ("1", 1), ("24", 0)], [("234", 0)],
        [[(1, "i:34>234"), (1, "d:1>234"), (1, "i:24>234")]]))
    hom = subquotient_homology(d1.from_even, d2.from_even)
    homo = subquotient_homology(d1.from_odd, d2.from_odd)
    middle = tuple(P.normal_form() for P in
                   (d1.from_even.source, d1.from_even.target, d2.from_even.target))
    return FastTorResult(hom.group, homo.group, {}, middle, hom)
