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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .finspace import FiniteSpace, builtin_space, label, lc_subsets
from .ntcat import SpaceCategory, builtin_category
from .ntmod import GradedModule, TorReport, tor
from .zexact import (AbGroupNF, GradedGroup, GradedHom, GroupHom, IntMatrix,
                     Presentation, block_diag, hnf_columns, kernel, smith,
                     solve_columns, subquotient_homology)


class GraphError(Exception):
    pass


class BlockGraph:
    """Finite graph with vertices grouped into blocks labelled by the points
    of a finite space; the block order of the input fixes the matrix layout."""

    def __init__(self, space: FiniteSpace, blocks: Sequence[Tuple[str, int]],
                 adjacency: IntMatrix):
        self.space = space
        self.blocks = list(blocks)
        pts = [p for p, _ in blocks]
        if sorted(pts) != sorted(space.points):
            raise GraphError("blocks must biject onto the points of the space")
        if any(n <= 0 for _, n in blocks):
            raise GraphError("every block needs at least one vertex")
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
            space = builtin_space(data["space"])
        blocks = [(b["point"], b["vertices"]) for b in data["blocks"]]
        for _, k in blocks:
            if type(k) is not int:
                raise TypeError(f"block vertex counts must be integers, not {k!r}")
        return BlockGraph(space, blocks, IntMatrix(data["adjacency"]))

    def to_json(self) -> dict:
        return {
            "space": self.space.name,
            "blocks": [{"point": p, "vertices": k} for p, k in self.blocks],
            "adjacency": self.adjacency.to_lists(),
        }


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

@dataclass
class GraphReport:
    triangular: bool
    no_sinks: bool
    no_sources: bool
    condition_k: bool
    condition_k_checked: bool  # always True; kept in the report schema
    problems: List[str] = field(default_factory=list)


def _single_cycle_components(G: BlockGraph) -> List[List[int]]:
    """Strongly connected components that are one cycle and nothing more.

    A strongly connected component has at least as many edges as vertices
    when it contains a cycle, with equality exactly when it is a single
    cycle; edges count with multiplicity, loops included.  Components come
    from an iterative Tarjan (1972) pass, linear in the graph's size."""
    n = G.n
    A = G.adjacency
    succ = [[w for w in range(n) if A[v, w]] for v in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    out = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if index[w] < 0:
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                if sum(A[a, b] for a in comp for b in comp) == len(comp):
                    out.append(sorted(comp))
    return out


def graph_checks(G: BlockGraph) -> GraphReport:
    problems = []
    X = G.space
    triangular = True
    for lc in lc_subsets(X):
        Y = lc.value
        for U in X.relative_opens(Y):
            if not U or U == Y:
                continue
            blk = G.bprime_block(Y - U, U)
            if not blk.is_zero():
                triangular = False
                problems.append(
                    f"B'[{label(Y - U)}, {label(U)}] is nonzero")
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
    return GraphReport(triangular, no_sinks, no_sources, not bad, True, problems)


# ---------------------------------------------------------------------------
# Subquotient K-groups
# ---------------------------------------------------------------------------

@dataclass
class SubquotientK:
    subset: str
    k0: Presentation        # coker of B'[V_Y]
    k1_basis: IntMatrix      # columns: canonical lattice basis of ker B'[V_Y]

    def k0_nf(self) -> AbGroupNF:
        return self.k0.normal_form()

    def k1_nf(self) -> AbGroupNF:
        return AbGroupNF(self.k1_basis.cols, ())


def k_groups(G: BlockGraph, Y) -> SubquotientK:
    YY = frozenset(Y)
    if not G.space.is_locally_closed(YY):
        raise GraphError(f"{label(YY)} is not locally closed")
    for U in G.space.relative_opens(YY):
        if U and U != YY and not G.bprime_block(YY - U, U).is_zero():
            raise GraphError(f"triangularity violated on {label(YY)}")
    B = G.bprime_block(YY, YY)
    k0 = Presentation(B.rows, B)
    k1 = kernel(B)
    # rank-nullity cross-check
    assert k1.cols + smith(B).rank() == B.cols
    return SubquotientK(label(YY), k0, k1)


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
    """Assemble the left module of subquotient K-groups over the builtin
    category of the graph's space.

    Even entries are the cokernels of the restricted B' matrices, odd entries
    are free on their kernel lattices.  Generators act by coordinate
    inclusion (i), coordinate projection (r), and multiplication by the
    off-diagonal B' block (delta, positive sign)."""
    if sc is None:
        sc = builtin_category(G.space.name)
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
            od = solve_columns(kd[a.dst].k1_basis, C * kd[a.src].k1_basis)
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

@dataclass
class FastTorResult:
    group_even: AbGroupNF
    group_odd: AbGroupNF
    witnesses: Dict[str, tuple] = field(default_factory=dict)
    middle_groups: Tuple[AbGroupNF, ...] = ()
    homology: Optional[object] = None  # HomologyResult for class queries


def z3_fast_tor1(G: BlockGraph) -> FastTorResult:
    """Tor_1 over Z3 from the kernel complex ker(φ0) -> ker(φ1) -> ker(φ2)
    with the block maps f and g; the odd part is
    (ker f ∩ im φ0) / φ0(ker f), reported with witness lattice generators."""
    if G.space.name != "Z3":
        raise GraphError("the Z3 fast path needs a graph over Z3")
    j4s = ["14", "24", "34"]
    triples = ["124", "134", "234"]
    phi0 = block_diag([G.bprime_block(frozenset(s), frozenset(s)) for s in j4s])
    phi1 = block_diag([G.bprime_block(frozenset(s), frozenset(s)) for s in triples])
    phi2 = G.bprime_block(frozenset("1234"), frozenset("1234"))

    signs = [[1, -1, 0], [-1, 0, 1], [0, 1, -1]]
    f_blocks = [[_coord_matrix(G, j4s[j], triples[k]).scale(signs[k][j])
                 if signs[k][j] else
                 IntMatrix.zero(len(G.vertices_of(frozenset(triples[k]))),
                                len(G.vertices_of(frozenset(j4s[j]))))
                 for j in range(3)] for k in range(3)]
    f = IntMatrix.block(f_blocks)
    g = IntMatrix.block([[_coord_matrix(G, t, "1234") for t in triples]])

    # odd part two ways: the lattice identification
    # (ker f ∩ im φ0)/φ0(ker f), which carries the witness generators, and
    # the homology of the kernel complex ker(φ0) -> ker(φ1) -> ker(φ2)
    kerf = kernel(f)
    ker_f_phi0 = kernel(f * phi0)
    L1 = hnf_columns(phi0 * ker_f_phi0)        # ker(f) ∩ im(φ0)
    L2 = hnf_columns(phi0 * kerf)              # φ0(ker f)
    coords = solve_columns(L1, L2)
    if coords is None:
        raise GraphError("φ0(ker f) not inside ker(f) ∩ im(φ0)")
    quotient = Presentation(L1.cols, coords)
    odd = quotient.normal_form()

    k0, k1b, k2 = kernel(phi0), kernel(phi1), kernel(phi2)
    fk = _restrict(f, k0, k1b)
    gk_ = _restrict(g, k1b, k2)
    h = subquotient_homology(
        GroupHom(Presentation.free(k0.cols), Presentation.free(k1b.cols), fk),
        GroupHom(Presentation.free(k1b.cols), Presentation.free(k2.cols), gk_))
    if h.group != odd:
        raise GraphError("kernel-complex homology disagrees with the "
                         "lattice identification")

    # even part: the same complex on the cokernel presentations
    c0 = _direct_sum([Presentation(G.bprime_block(frozenset(s), frozenset(s)).rows,
                                   G.bprime_block(frozenset(s), frozenset(s)))
                      for s in j4s])
    c1 = _direct_sum([Presentation(G.bprime_block(frozenset(s), frozenset(s)).rows,
                                   G.bprime_block(frozenset(s), frozenset(s)))
                      for s in triples])
    B = G.bprime_block(frozenset("1234"), frozenset("1234"))
    c2 = Presentation(B.rows, B)
    he = subquotient_homology(GroupHom(c0, c1, f), GroupHom(c1, c2, g))
    witnesses = {}
    if L1.cols:
        witnesses["numerator"] = L1.column(0)
    if L2.cols:
        witnesses["image"] = L2.column(0)
    return FastTorResult(he.group, odd, witnesses)


def _restrict(M: IntMatrix, src_basis: IntMatrix, dst_basis: IntMatrix) -> IntMatrix:
    X = solve_columns(dst_basis, M * src_basis)
    if X is None:
        raise GraphError("map does not restrict to kernels")
    return X


def s_fast_tor1(G: BlockGraph) -> FastTorResult:
    """Tor_1 over S via the identified three-term complex, whose even lane is

        K1(12) ⊕ K0(4) ⊕ K1(13) -> K0(34) ⊕ K1(1) ⊕ K0(24) -> K0(234)

    (the odd lane swaps the K-parities; the delta blocks vanish there).
    The even-lane homology carries a witness interface for generator
    classes, and the middle groups are reported in normal form."""
    if G.space.name != "S":
        raise GraphError("the S fast path needs a graph over S")

    def K(sub):
        return k_groups(G, frozenset(sub))

    k12, k4, k13 = K("12"), K("4"), K("13")
    k34, k1, k24 = K("34"), K("1"), K("24")
    k234 = K("234")

    def restrict_to(M, basis):
        X = solve_columns(basis, M)
        if X is None:
            raise GraphError("projection does not land in the kernel")
        return X

    def k1_map(src_k, dst_k, sign=1):
        M = _coord_matrix(G, src_k.subset, dst_k.subset) * src_k.k1_basis
        return restrict_to(M, dst_k.k1_basis).scale(sign)

    def k0_map(src_k, dst_k, sign=1):
        return _coord_matrix(G, src_k.subset, dst_k.subset).scale(sign)

    def delta(src_k, dst_k, sign=1):
        blk = G.bprime_block(frozenset(dst_k.subset), frozenset(src_k.subset))
        return (blk * src_k.k1_basis).scale(sign)

    def free(k):
        return Presentation.free(k.k1_basis.cols)

    # even lane
    srcP = _direct_sum([free(k12), k4.k0, free(k13)])
    midP = _direct_sum([k34.k0, free(k1), k24.k0])
    endP = k234.k0
    Z34, Z1g, Z24 = k34.k0.generators, k1.k1_basis.cols, k24.k0.generators
    n12, n4g, n13 = k12.k1_basis.cols, k4.k0.generators, k13.k1_basis.cols
    d1 = IntMatrix.block([
        [delta(k12, k34), k0_map(k4, k34, -1), IntMatrix.zero(Z34, n13)],
        [k1_map(k12, k1, -1), IntMatrix.zero(Z1g, n4g), k1_map(k13, k1)],
        [IntMatrix.zero(Z24, n12), k0_map(k4, k24), delta(k13, k24, -1)],
    ])
    d2 = IntMatrix.block([[k0_map(k34, k234), delta(k1, k234), k0_map(k24, k234)]])
    hom = subquotient_homology(GroupHom(srcP, midP, d1), GroupHom(midP, endP, d2))
    middle = (srcP.normal_form(), midP.normal_form(), endP.normal_form())

    # odd lane: parities swap, boundary blocks vanish for graph modules
    srcPo = _direct_sum([k12.k0, free(k4), k13.k0])
    midPo = _direct_sum([free(k34), k1.k0, free(k24)])
    endPo = free(k234)
    d1o = IntMatrix.block([
        [IntMatrix.zero(k34.k1_basis.cols, k12.k0.generators),
         k1_map(k4, k34, -1),
         IntMatrix.zero(k34.k1_basis.cols, k13.k0.generators)],
        [k0_map(k12, k1, -1),
         IntMatrix.zero(k1.k0.generators, k4.k1_basis.cols),
         k0_map(k13, k1)],
        [IntMatrix.zero(k24.k1_basis.cols, k12.k0.generators),
         k1_map(k4, k24),
         IntMatrix.zero(k24.k1_basis.cols, k13.k0.generators)],
    ])
    d2o = IntMatrix.block([[k1_map(k34, k234),
                            IntMatrix.zero(k234.k1_basis.cols, k1.k0.generators),
                            k1_map(k24, k234)]])
    homo = subquotient_homology(GroupHom(srcPo, midPo, d1o),
                                GroupHom(midPo, endPo, d2o))
    return FastTorResult(hom.group, homo.group, {}, middle, hom)


def _direct_sum(parts: Sequence[Presentation]) -> Presentation:
    gens = sum(p.generators for p in parts)
    rels = block_diag([p.relations for p in parts])
    return Presentation(gens, rels)
