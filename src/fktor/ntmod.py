"""Modules over the transformation categories: validation, six-term
exactness, free resolutions of the simple right-modules, Tor groups and the
projective-dimension classifier.

A graded module assigns a presented Z/2-graded group to every nonempty
connected locally closed subset and a parity-matching map to every generator
arrow (covariant for left modules, contravariant for right modules).
Composite transformations act through their designated words, so the module
input surface is exactly the generator actions.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from itertools import accumulate
from types import MappingProxyType
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .finspace import builtin_name, label, space_from_ref, space_ref
from .ntcat import (_PARITY, _SIDE, Arrow, Combo, Element, HomTable, SpaceCategory, _along,
                    _columns, _nilpotency_index, builtin_category, end_splits, generator_images,
                    ideal_checks, space_category)
from .zexact import (AbGroupNF, Echelon, GradedGroup, GradedHom, GroupHom,
                     IntMatrix, Presentation, _Record, _inexact_homology, exact_node,
                     graded_direct_sum, guard_int, guard_name, hermite_basis, hnf_columns,
                     kernel_columns, map_echelon, shift as shift_group, subquotient_homology)


class ModuleError(Exception):
    pass


class HypothesisNotVerifiedError(ModuleError):
    """The nilpotency/semidirectness hypotheses could not be confirmed."""


class CatalogueError(ModuleError):
    pass


Summand = Tuple[str, int]  # (object, shift)
Blocks = Sequence[Sequence[Optional[Element]]]  # a map of free modules, None for 0
Slots = Dict[Tuple[str, int], List[int]]  # (W, parity) -> block sizes of a free module
# (W, parity) -> Hermite basis as {index: nonzero} columns, None: all of the slot
Kernels = Dict[Tuple[str, int], Optional[List[dict]]]

_SIDES = ("left", "right")
_DEPTH = "a resolution needs a nonnegative integer depth, not {!r}"
_DEGREE = "Tor needs a nonnegative integer degree, not {!r}"
_SUMMAND = "summand {!r} is not (object, integer shift)"
_MAX_N = ("pd up to max_n reads Tor at the nonnegative integer degree max_n + 1, "
          "so max_n must be an integer, at least 0, not {!r}")


def _shifted(G: GradedGroup, eps: int) -> GradedGroup:
    return shift_group(G) if eps % 2 else G


def _has_generators(G: GradedGroup) -> bool:
    return bool(G.even.generators or G.odd.generators)


# ---------------------------------------------------------------------------
# Graded modules
# ---------------------------------------------------------------------------

class GradedModule:
    """Module over a space's transformation category.

    entries: object label -> GradedGroup
    actions: arrow name -> GradedHom of the arrow's parity
             (left: M(src) -> M(dst); right: M(dst) -> M(src))
    Both are read-only mappings over copies taken by the constructor, so
    the data its checks passed cannot change afterwards.

    An action whose degree is not its arrow's parity, or whose parts lack
    the generator counts and relation matrices of the entries at its
    arrow's ends, is refused.  A module keeps what is built from its data:
    the action of each word (action_word), of each Hom element
    (action_element) and of each designated word (designated), each direct
    sum of its entries (sum_map), the isomorphic module on pruned
    presentations (reduced), and the node table of check_exact and tor run
    on it (_node_homology).
    """

    def __init__(self, category: SpaceCategory, variance: str,
                 entries: Dict[str, GradedGroup],
                 actions: Dict[str, GradedHom]):
        guard_name(variance, _SIDES, ModuleError, "variance must be 'left' or 'right', not {!r}")
        self.category = category
        self.variance = variance
        # read-only views of private copies: the checks below hold for good
        self.entries = MappingProxyType(dict(entries))
        self.actions = MappingProxyType(dict(actions))
        self._element_cache: Dict[tuple, GradedHom] = {}
        self._word_cache: Dict[tuple, GradedHom] = {}
        self._designated: Dict[tuple, Optional[GradedHom]] = {}
        self._sums: Dict[tuple, GradedGroup] = {}
        self._nodes: dict = {}
        # the reduced module, or _pruned where no entry prunes: a module
        # that held itself would be a reference cycle
        self._reduced: Optional[GradedModule] = None
        self._pruned = False
        for obj in category.objects:
            if obj not in self.entries:
                raise ModuleError(f"missing entry for object {obj}")
        unknown = sorted(set(self.entries) - set(category.objects))
        if unknown:
            raise ModuleError(f"entries for objects not in the category: {unknown}")
        arrows = category.presentation.arrows
        unknown = sorted(set(self.actions) - set(arrows))
        if unknown:
            raise ModuleError(f"actions for arrows not in the category: {unknown}")
        for name, h in self.actions.items():
            a = arrows[name]
            if h.degree != a.parity:
                raise ModuleError(f"action of {name} has degree {h.degree}, "
                                  f"arrow parity {a.parity}")
            s, d = _along(variance, a.src, a.dst)
            S, T = self.entries[s], self.entries[d]
            parts = (h.from_even.source, h.from_odd.source, h.from_even.target, h.from_odd.target)
            ends = (S.even, S.odd, T.part(a.parity), T.part(a.parity ^ 1))
            # a relation matrix has one row per generator, so it fixes the count too
            if any(P.relations != E.relations for P, E in zip(parts, ends)):
                raise ModuleError(f"action of {name} does not run from the entry of "
                                  f"{s} to the entry of {d}")

    def entry(self, obj: str) -> GradedGroup:
        self.category.table.check_object(obj, ModuleError)
        return self.entries[obj]

    def action_word(self, word, src_obj: str, dst_obj: str) -> GradedHom:
        """Action of a composite word of generators, src/dst in category
        direction (the module map runs contravariantly for right modules).

        A word not built yet is checked whole: each of its generators must
        act on the module, each must end where the next starts, and the
        word must run from src_obj to dst_obj; the empty word runs from an
        object to itself.  The refusal names the word and ends given here.
        Each word is then built once per module (see _word)."""
        word = tuple(word)
        hom = self._word_cache.get((word, src_obj, dst_obj))
        if hom is not None:
            return hom
        if not word:
            if src_obj != dst_obj:
                raise ModuleError(f"the empty word runs from an object to itself, "
                                  f"not from {src_obj!r} to {dst_obj!r}")
            self.entry(src_obj)
        else:
            arrows, at = self.category.presentation.arrows, src_obj
            for name in word:
                a = arrows.get(name)
                if a is None or name not in self.actions or a.src != at:
                    at = None
                    break
                at = a.dst
            if at is None or at != dst_obj:
                raise ModuleError(f"{word} does not act from {src_obj!r} to {dst_obj!r}")
        return self._word(word, src_obj, dst_obj)

    def _word(self, word: tuple, src_obj: str, dst_obj: str) -> GradedHom:
        """action_word of a word that acts from src_obj to dst_obj, kept in
        the module's word cache: a left module acts by its last generator
        after its prefix, a right module by its first generator after its
        suffix, and a one-letter word is its generator's action."""
        key = (word, src_obj, dst_obj)
        hom = self._word_cache.get(key)
        if hom is None:
            if not word:
                hom = GradedHom.identity(self.entries[src_obj])
            else:
                left = self.variance == "left"
                name = word[-1] if left else word[0]
                a, act = self.category.presentation.arrows[name], self.actions[name]
                rest = word[:-1] if left else word[1:]
                s, d = (src_obj, a.src) if left else (a.dst, dst_obj)
                hom = act.compose(self._word(rest, s, d)) if rest else act
            self._word_cache[key] = hom
        return hom

    def action_combo(self, combo: Combo, src_obj: str, dst_obj: str,
                     parity: int) -> GradedHom:
        """Action of a sum of words.  It is the zero hom, built from no word,
        for no words or where an end has no generators in either parity (a
        group of generators and unit relations has some); one word with
        coefficient 1 is action_word's hom itself."""
        guard_int(parity, ModuleError, _PARITY, 0, 1)
        S, T = (self.entries[obj] for obj in _along(self.variance, src_obj, dst_obj))
        if not (combo and _has_generators(S) and _has_generators(T)):
            return GradedHom.zero(parity, S, T)
        terms = [(self.action_word(w, src_obj, dst_obj), c) for w, c in combo.items()]
        if any(h.degree != parity for h, _ in terms):
            raise ModuleError(f"a word of {combo} does not act in degree {parity}")
        if len(terms) == 1 and terms[0][1] == 1:
            return terms[0][0]
        mats = []  # summed per parity in one pass
        for p in (0, 1):
            parts = [h.component(p).matrix if c == 1 else h.component(p).matrix.scale(c)
                     for h, c in terms]
            rows = zip(*(m.data for m in parts))
            mats.append(IntMatrix._of(tuple(tuple(map(sum, zip(*r))) for r in rows),
                                      parts[0].rows, parts[0].cols))
        return GradedHom.build(parity, S, T, *mats)

    def action_element(self, el: Element) -> GradedHom:
        key = (el.src, el.dst, el.parity, el.vec)
        hom = self._element_cache.get(key)
        if hom is None:
            combo = self.category.table.element_combo(el)
            hom = self.action_combo(combo, el.src, el.dst, el.parity)
            self._element_cache[key] = hom
        return hom

    def designated(self, kind: str, A, B) -> Optional[GradedHom]:
        """The action of the category's designated word of `kind` between
        the subsets A and B, or None where that word is zero: "inc" the
        inclusion of A open in B and "res" the restriction of A to B closed
        in it (both even, from A to B), "bnd" the six-term boundary block
        from B to A (odd), and None where an end has no generators.  Each is
        built once per module."""
        key = (kind, A, B)
        if key not in self._designated:
            guard_name(kind, ("inc", "res", "bnd"), ModuleError, "unknown designated word {!r}")
            combo = getattr(self.category.designator, kind)(A, B)
            src, dst, parity = (label(B), label(A), 1) if kind == "bnd" \
                else (label(A), label(B), 0)
            ends = (self.entries[src], self.entries[dst])
            self._designated[key] = self.action_combo(combo, src, dst, parity) \
                if combo and all(map(_has_generators, ends)) else None
        return self._designated[key]

    def sum_map(self, degree: int, sources: Sequence[Summand],
                targets: Sequence[Summand], blocks) -> GradedHom:
        """The map of the given degree between direct sums of shifted
        entries, whose summands are (object, shift); blocks[i][j] is None or
        a GradedHom of M from sources[j] to targets[i].  A block out of an
        odd summand enters as its `shift()`, the same map between the
        shifted groups.  Each sum of several summands is built once per
        module, and a single summand is its shifted entry itself.  A map
        between single unshifted summands is its block where that has the
        given degree, and the zero hom for a None block."""
        guard_int(degree, ModuleError, _PARITY, 0, 1)
        if len(sources) == 1 == len(targets) and sources[0][1] == 0 == targets[0][1]:
            b = blocks[0][0]
            if b is None:
                return GradedHom.zero(degree, self.entries[sources[0][0]],
                                      self.entries[targets[0][0]])
            if b.degree == degree:
                return b
        src = [_shifted(self.entries[A], e) for A, e in sources]
        tgt = [_shifted(self.entries[A], e) for A, e in targets]
        mats = [IntMatrix.block(
            [[None if b is None else b.component(p + e).matrix
              for b, (_, e) in zip(row, sources)] for row in blocks],
            [T.part(p + degree).generators for T in tgt],
            [S.part(p).generators for S in src]) for p in (0, 1)]
        return GradedHom.build(degree, self._sum(sources, src),
                               self._sum(targets, tgt), *mats)

    def _sum(self, summands: Sequence[Summand], groups: List[GradedGroup]) -> GradedGroup:
        if len(groups) == 1:
            return groups[0]
        key = tuple(summands)
        G = self._sums.get(key)
        if G is None:
            G = self._sums[key] = graded_direct_sum(groups)
        return G

    # -- constructions -------------------------------------------------------

    def reduced(self) -> "GradedModule":
        """The isomorphic module on the pruned presentations of the entries
        (Presentation.pruned), built once per module, or the module itself
        where no entry prunes.  The action of an arrow with module map
        h: M(s) -> M(d) becomes to_new(d)·h restricted to the kept
        generators of s; the kept generators include into the old ones, so
        the pruned presentations carry the same maps.  Exactness and Tor
        are invariants of the module up to isomorphism, and check_exact and
        tor run on this module, sharing its sums, designated actions and
        node table."""
        if self._pruned:
            return self
        if self._reduced is None:
            pruned = {obj: (g.even.pruned(), g.odd.pruned())
                      for obj, g in self.entries.items()}
            if all(pr[0] is P for obj, g in self.entries.items()
                   for pr, P in zip(pruned[obj], (g.even, g.odd))):
                self._pruned = True
                return self
            entries = {obj: GradedGroup(ev[0], od[0]) for obj, (ev, od) in pruned.items()}
            arrows = self.category.presentation.arrows
            actions = {}
            for name, h in self.actions.items():
                a = arrows[name]
                s, d = _along(self.variance, a.src, a.dst)
                mats = []
                for p in (0, 1):
                    m = h.component(p).matrix
                    _, to_new, _ = pruned[d][p ^ h.degree]
                    kept = pruned[s][p][2]
                    mats.append(to_new * m.submatrix(range(m.rows), kept))
                actions[name] = GradedHom.build(h.degree, entries[s], entries[d], *mats)
            self._reduced = GradedModule(self.category, self.variance, entries, actions)
            self._reduced._pruned = True
        return self._reduced

    def tensor_mod_k(self, k: int) -> "GradedModule":
        """Entrywise tensor with Z/k (append k·identity relations)."""
        guard_int(k, ModuleError, "tensor_mod_k needs an integer k >= 2, not {!r}", 2)
        def modk(P: Presentation) -> Presentation:
            return P.with_extra_relations(IntMatrix.identity(P.generators).scale(k))
        new_entries = {obj: GradedGroup(modk(g.even), modk(g.odd))
                       for obj, g in self.entries.items()}
        new_actions = {}
        for name, h in self.actions.items():
            a = self.category.presentation.arrows[name]
            s, d = _along(self.variance, a.src, a.dst)
            new_actions[name] = GradedHom.build(h.degree, new_entries[s],
                                                new_entries[d],
                                                h.from_even.matrix, h.from_odd.matrix)
        return GradedModule(self.category, self.variance, new_entries, new_actions)

    # -- JSON schema -----------------------------------------------------------

    def to_json(self) -> dict:
        def pres_json(P: Presentation):
            return {"gens": P.generators, "rels": P.relations.to_lists()}

        return {
            "space": space_ref(self.category.space),
            "variance": self.variance,
            "entries": {o: {"even": pres_json(g.even), "odd": pres_json(g.odd)}
                        for o, g in sorted(self.entries.items())},
            "actions": {n: {"evenPart": h.from_even.matrix.to_lists(),
                            "oddPart": h.from_odd.matrix.to_lists()}
                        for n, h in sorted(self.actions.items())},
        }

    @staticmethod
    def from_json(data, category: Optional[SpaceCategory] = None) -> "GradedModule":
        if isinstance(data, str):
            data = json.loads(data)
        if category is None:
            category = space_category(space_from_ref(data["space"]))
        variance = data.get("variance", "left")
        guard_name(variance, _SIDES, ValueError, "variance must be 'left' or 'right', not {!r}")

        # Every count is checked against the shapes the file gives before
        # anything is allocated: a presentation or a zero action matrix on
        # `gens` generators takes memory in proportion to `gens`.
        def gens_of(d):
            gens = d["gens"]
            guard_int(gens, ValueError, "gens must be a nonnegative integer, not {!r}", 0)
            rels = d.get("rels") or []
            if rels and len(rels) != gens:
                raise ValueError(f"rels has {len(rels)} rows for {gens} generators")
            return gens

        if not all(isinstance(data[key], dict) for key in ("entries", "actions")):
            raise ValueError("entries and actions must be objects")
        unknown = sorted(set(data["entries"]) - set(category.objects))
        if unknown:
            raise ValueError(f"entries for objects not in the category: {unknown}")
        gens = {o: (gens_of(v["even"]), gens_of(v["odd"]))
                for o, v in data["entries"].items()}
        shaped = []
        for name, mats in data["actions"].items():
            arrow = category.presentation.arrows.get(name)
            if arrow is None:
                raise ValueError(f"action for an arrow not in the category: {name!r}")
            s, d = _along(variance, arrow.src, arrow.dst)
            parts = []
            for part, p in (("evenPart", 0), ("oddPart", 1)):
                mat, rows, cols = mats[part], gens[d][p ^ arrow.parity], gens[s][p]
                if mat and (len(mat) != rows or any(len(r) != cols for r in mat)):
                    raise ValueError(f"{part} of {name} is not a {rows}x{cols} matrix")
                parts.append((mat, rows, cols))
            shaped.append((name, arrow.parity, s, d, parts))

        def pres(d, n):
            rels = d.get("rels") or []
            return Presentation(n, IntMatrix(rels, n, len(rels[0]))) if rels \
                else Presentation(n)

        entries = {o: GradedGroup(pres(v["even"], gens[o][0]), pres(v["odd"], gens[o][1]))
                   for o, v in data["entries"].items()}
        actions = {}
        for name, parity, s, d, parts in shaped:
            ev, od = (IntMatrix(mat) if mat else IntMatrix.zero(rows, cols)
                      for mat, rows, cols in parts)
            actions[name] = GradedHom.build(parity, entries[s], entries[d], ev, od)
        return GradedModule(category, variance, entries, actions)


# ---------------------------------------------------------------------------
# Free modules and cokernels
# ---------------------------------------------------------------------------

def free_ranks(t: HomTable, side: str, summands: Sequence[Summand], W: str,
               parity: int) -> List[int]:
    """Block sizes at (W, parity) of the free module on `summands` (A, ε):
    the rank of NT(A, W) (left, P_A) or NT(W, A) (right, Q_A) at parity + ε."""
    guard_name(side, _SIDES, ModuleError, _SIDE)
    t._check_slot(W, parity, ModuleError)
    return _free_ranks(t, side, summands, W, parity)


def _free_ranks(t: HomTable, side: str, summands: Sequence[Summand], W: str,
                parity: int) -> List[int]:
    rank = t.rank
    if side == "left":
        return [rank.get((A, W, (parity + eA) % 2), 0) for A, eA in summands]
    return [rank.get((W, A, (parity + eA) % 2), 0) for A, eA in summands]


def free_map(t: HomTable, side: str, targets: Sequence[Summand],
             sources: Sequence[Summand], matrix: Blocks, W: str, parity: int) -> IntMatrix:
    """Matrix at (W, parity) of the map of free modules from `sources` to
    `targets` whose block (i, j) is matrix[i][j] (None for zero): an element
    of NT(B_i, A_j) acting by pre-composition on a left module, of
    NT(A_j, B_i) acting by post-composition on a right one.  Only blocks
    with rows and columns are read off the Hom table.  This is the dense
    render of the layout's columns (_map_columns), which the syzygy step
    reads as they are."""
    guard_name(side, _SIDES, ModuleError, _SIDE)
    t._check_slot(W, parity, ModuleError)
    return _free_map(t, side, sources, matrix, W, parity, _free_ranks(t, side, targets, W, parity),
                     _free_ranks(t, side, sources, W, parity))


def _free_map(t: HomTable, side: str, sources: Sequence[Summand], matrix: Blocks, W: str,
              parity: int, rows: List[int], cols: List[int]) -> IntMatrix:
    """free_map on the block sizes `rows` of its targets and `cols` of its sources."""
    return IntMatrix._from_sparse_columns(
        list(_map_columns(t, side, sources, matrix, W, parity, rows, cols)), sum(rows))


def _map_columns(t: HomTable, side: str, sources: Sequence[Summand], matrix: Blocks, W: str,
                 parity: int, rows: List[int], cols: List[int]) -> Iterator[dict]:
    """The columns of free_map as fresh {row: nonzero} dicts, in order, each
    put together from the table's sparse columns of the blocks of its
    source summand (HomTable._combo_columns), so no zero block is laid
    out."""
    act = "pre" if side == "left" else "post"
    for k, ((_, eA), c) in enumerate(zip(sources, cols)):
        q, offset, blocks = (parity + eA) % 2, 0, []
        for row, r in zip(matrix, rows):
            if row[k] is not None and r and c:
                blocks.append((offset, t._combo_columns(act, row[k], W, q)))
            offset += r
        for jk in range(c):
            col = {}
            for offset, block in blocks:
                for i, x in block[jk].items():
                    col[offset + i] = x
            yield col


def free_action(t: HomTable, side: str, summands: Sequence[Summand], a: Arrow,
                parity: int, dims: Slots) -> IntMatrix:
    """Matrix of the generator arrow a on the free module on `summands`, out
    of its part of the given parity: block-diagonal, post-composition by a
    on a left module, pre-composition on a right one.  dims[(W, p)] holds
    the module's block sizes, free_ranks(t, side, summands, W, p).  This
    is the dense render of the layout's columns (_action_columns)."""
    guard_name(side, _SIDES, ModuleError, _SIDE)
    guard_int(parity, ModuleError, _PARITY, 0, 1)
    return _free_action(t, side, summands, a, parity, dims)


def _free_action(t: HomTable, side: str, summands: Sequence[Summand], a: Arrow,
                 parity: int, dims: Slots) -> IntMatrix:
    s, d = _along(side, a.src, a.dst)
    rows = dims[(d, parity ^ a.parity)]
    return IntMatrix._from_sparse_columns(
        _action_columns(t, side, summands, a, parity, rows, dims[(s, parity)]), sum(rows))


def _action_columns(t: HomTable, side: str, summands: Sequence[Summand], a: Arrow,
                    parity: int, rows: List[int], cols: List[int]) -> List[dict]:
    """The columns of free_action as fresh {row: nonzero} dicts, on the block
    sizes `rows` of its image and `cols` of its source: each summand's
    generator block, shifted to the summand's rows."""
    s = _along(side, a.src, a.dst)[0]
    acts = t.post if side == "left" else t.pre
    out, offset = [], 0
    for (A, eA), r, c in zip(summands, rows, cols):
        M = acts.get((*_along(side, A, s), (parity + eA) % 2, a.name))
        if M is None:
            out += [{}] * c
        else:
            block = M.sparse_columns()
            out += [{offset + i: x for i, x in col.items()} for col in block] if offset \
                else block
        offset += r
    return out


def _free_cokernel(sc: SpaceCategory, side: str, targets: Sequence[Summand],
                   sources: Sequence[Summand], matrix: Blocks) -> GradedModule:
    """Objectwise cokernel of the map of free modules on `side` from
    `sources` to `targets` given by `matrix` (see free_map), with the
    actions induced from the targets."""
    guard_name(side, _SIDES, ModuleError, _SIDE)
    for A, eA in [*targets, *sources]:
        guard_name(A, sc.objects, ModuleError, _SUMMAND, (A, eA))
        guard_int(eA, ModuleError, _SUMMAND, shown=(A, eA))
    if len(matrix) != len(targets) or any(len(row) != len(sources) for row in matrix):
        raise ModuleError(f"the entry matrix is not {len(targets)}x{len(sources)}")
    for i, (B, eB) in enumerate(targets):
        for j, ((A, eA), el) in enumerate(zip(sources, matrix[i])):
            hom = (*_along(side, B, A), (eA + eB) % 2)
            if el is not None and (el.src, el.dst, el.parity) != hom:
                raise ModuleError("entry ({},{}) is not in NT({}, {}) at parity {}"
                                  .format(i, j, *hom))
    t = sc.table
    dims = {(W, p): _free_ranks(t, side, targets, W, p) for W in sc.objects for p in (0, 1)}
    entries = {}
    for W in sc.objects:
        rels = (_free_map(t, side, sources, matrix, W, p, dims[(W, p)],
                          _free_ranks(t, side, sources, W, p)) for p in (0, 1))
        entries[W] = GradedGroup(*(Presentation(R.rows, R if R.rows else None) for R in rels))
    actions = {}
    for name, a in sc.presentation.arrows.items():
        s, d = _along(side, a.src, a.dst)
        actions[name] = GradedHom.build(a.parity, entries[s], entries[d],
                                        *(_free_action(t, side, targets, a, p, dims)
                                          for p in (0, 1)))
    return GradedModule(sc, side, entries, actions)


def free_module(sc: SpaceCategory, Y: str, side: str = "right",
                shift: int = 0) -> GradedModule:
    """The free module on Y, left P_Y(Z) = NT(Y, Z) or right Q_Y(Z) = NT(Z, Y),
    shifted by `shift`: the cokernel of the map from the empty sum."""
    return _free_cokernel(sc, side, [(Y, shift)], [], [[]])


def coker_module(sc: SpaceCategory, targets: Sequence[Summand],
                 sources: Sequence[Summand], entries_matrix: Blocks) -> GradedModule:
    """Objectwise cokernel of the map of free left modules ⊕ P_{A_j}[ε_j] ->
    ⊕ P_{B_i}[ε_i] whose block (i, j) is an element of NT(B_i, A_j) (the
    Yoneda description of P_{A_j} -> P_{B_i}) or None, with induced actions."""
    return _free_cokernel(sc, "left", targets, sources, entries_matrix)


# ---------------------------------------------------------------------------
# Validation and exactness
# ---------------------------------------------------------------------------

class ValidationReport(_Record):
    __slots__ = _fields = ("ok", "problems")

    def __init__(self, ok: bool, problems: Optional[List[str]] = None):
        self.ok = ok
        self.problems = [] if problems is None else problems


def _require_actions(M: GradedModule, what: str) -> None:
    """Refuse a module without an action for every generator arrow."""
    missing = sorted(set(M.category.presentation.arrows) - set(M.actions))
    if missing:
        raise ModuleError(f"{what} needs an action for every arrow; missing: {missing}")


def validate(M: GradedModule) -> ValidationReport:
    """Well-definedness of all actions and vanishing of all relations."""
    pres = M.category.presentation
    problems = []
    for name in pres.arrows:
        h = M.actions.get(name)
        if h is None:
            problems.append(f"missing action for arrow {name}")
            continue
        if not h.is_well_defined():
            problems.append(f"action of {name} is not well defined on presentations")
    if problems:
        return ValidationReport(False, problems)
    for rel in pres.relations:
        first = next(iter(rel))
        src, dst, parity = pres.word_signature(first)
        h = M.action_combo(rel, src, dst, parity)
        if not h.is_zero_hom():
            problems.append(f"relation fails to act as zero at {src}->{dst}: {rel}")
    return ValidationReport(not problems, problems)


def six_term_maps(M: GradedModule, U, Y, compsU, compsE):
    """The three maps of the six-term cycle of the pair (U open in a
    connected Y), with the components compsU of U and compsE of Y∖U (as
    FiniteSpace.six_term_pairs lists them).

    For a left module: M(U) -> M(Y) -> M(Y∖U) -> M(U)[1]; for a right module
    the arrows act contravariantly and the cycle runs
    M(Y∖U) -> M(Y) -> M(U) -> M(Y∖U)[1].  Returns (f, g, h, names) with
    f, g of degree 0 and h of degree 1 closing the cycle.  The blocks are
    M's designated actions and the maps are laid out by M.sum_map, so each
    action and each sum is built once per module however many pairs share
    it."""
    sU = [(label(C), 0) for C in compsU]
    sY = [(label(Y), 0)]
    sE = [(label(E), 0) for E in compsE]
    inc = [M.designated("inc", C, Y) for C in compsU]
    res = [M.designated("res", Y, E) for E in compsE]
    if M.variance == "left":
        f = M.sum_map(0, sU, sY, [inc])
        g = M.sum_map(0, sY, sE, [[r] for r in res])
        h = M.sum_map(1, sE, sU, [[M.designated("bnd", C, E) for E in compsE]
                                  for C in compsU])
        names = (f"M({label(U)})", f"M({label(Y)})", f"M({label(Y - U)})")
    else:
        f = M.sum_map(0, sE, sY, [res])
        g = M.sum_map(0, sY, sU, [[i] for i in inc])
        h = M.sum_map(1, sU, sE, [[M.designated("bnd", C, E) for C in compsU]
                                  for E in compsE])
        names = (f"M({label(Y - U)})", f"M({label(Y)})", f"M({label(U)})")
    return f, g, h, names


_TRIVIAL = AbGroupNF(0, ())


def _node_homology(nodes: dict, f: GroupHom, g: GroupHom) -> AbGroupNF:
    """The group ker(g)/im(f), from the node table `nodes`.

    The table holds the group of each distinct node, keyed by exactly what
    subquotient_homology reads, and the augmented echelons of the maps
    (see _map_echelon), so that one echelon serves both nodes a map
    touches.  As in subquotient_homology, the middle group B is g's
    source: f's echelon is taken on B's relations and g's on those of
    its target.  A node whose two echelons show ker(g) = im(f) + rel_B
    (exact_node) is 0; every other node is factored from g's echelon in
    the table.  A middle group with no generators is 0 without any
    lookup.

    check_exact and tor keep the table on the module they run on,
    M.reduced(), so each reuses the echelons and nodes the other built;
    tor_single passes a table of its own.  The table is keyed by value,
    not kept on the maps: equal maps from different open pairs, objects,
    levels or calls share their echelons only through it, and a hit
    returns what a fresh computation would, since the key is everything
    the computation reads."""
    if f.target.generators == 0 == g.source.generators:
        return _TRIVIAL
    key = (f.matrix, g.source.relations, g.matrix, g.target.relations)
    group = nodes.get(key)
    if group is None:
        g_ech = _map_echelon(nodes, g.matrix, g.target.relations)
        f_ech = _map_echelon(nodes, f.matrix, g.source.relations)
        group = _TRIVIAL if exact_node(f_ech, g_ech, g.source.generators) \
            else _inexact_homology(f, g, g_ech).group
        nodes[key] = group
    return group


def _map_echelon(nodes: dict, matrix: IntMatrix, relations: IntMatrix) -> Echelon:
    """map_echelon of a map's matrix with the relations of a group of
    matrix.rows generators, kept in the node table under (matrix, relations)."""
    key = (matrix, relations)
    ech = nodes.get(key)
    if ech is None:
        ech = nodes[key] = map_echelon(matrix, relations.columns())
    return ech


class ExactnessReport(_Record):
    __slots__ = _fields = ("ok", "failures")

    def __init__(self, ok: bool, failures: Optional[List[str]] = None):
        self.ok = ok
        self.failures = [] if failures is None else failures


def check_exact(M: GradedModule) -> ExactnessReport:
    """Six-term exactness for every open pair U ⊆ Y of locally closed
    subsets.

    Only connected Y need checking: a disconnected Y splits its sequence
    into the direct sum over components.  Trivial pairs (U empty or all of
    Y) are vacuous and skipped.  Each designated action and each direct
    sum of entries is built once per module (see six_term_maps), and so is
    each map's echelon and each distinct node, shared with tor (see
    _node_homology).  The pairs are checked on M.reduced(), the same
    module on pruned presentations."""
    _require_actions(M, "check_exact")
    X = M.category.space
    M = M.reduced()
    failures = []
    for U, Y, compsU, compsE in X.six_term_pairs():
        f, g, h, names = six_term_maps(M, U, Y, compsU, compsE)
        # the six nodes of the periodic cycle f, g, h[1], f[1], g[1], h
        maps = [
            (f"{names[1]} even", f.from_even, g.from_even),
            (f"{names[2]} even", g.from_even, h.from_even),
            (f"{names[0]} odd", h.from_even, f.from_odd),
            (f"{names[1]} odd", f.from_odd, g.from_odd),
            (f"{names[2]} odd", g.from_odd, h.from_odd),
            (f"{names[0]} even", h.from_odd, f.from_even),
        ]
        for node, fin, fout in maps:
            group = _node_homology(M._nodes, fin, fout)
            if not group.is_trivial():
                failures.append(
                    f"pair ({label(U)} ⊆ {label(Y)}) fails at {node}: {group}")
    return ExactnessReport(not failures, failures)


# ---------------------------------------------------------------------------
# M_ss
# ---------------------------------------------------------------------------

def m_ss(M: GradedModule) -> Dict[str, GradedGroup]:
    """M_ss = M/J·M, entry by entry: each entry's relations joined by the
    images of M under the generators (ntcat.generator_images)."""
    _require_actions(M, "m_ss")
    images = generator_images(M.category.presentation.arrows.values(), M.variance,
                              lambda a, p: M.actions[a.name].component(p).matrix.sparse_columns())
    out = {}
    for obj in M.category.objects:
        g = M.entries[obj]
        out[obj] = GradedGroup(*(
            Presentation(P.generators, IntMatrix._from_sparse_columns(
                P.relations.sparse_columns() + images.get((obj, p), []), P.generators))
            for p, P in enumerate((g.even, g.odd))))
    return out


# ---------------------------------------------------------------------------
# Free resolutions of the simple right-modules
# ---------------------------------------------------------------------------

class FreeResolution:
    """Resolution of the simple right-module on an object by free
    right-modules.  Levels hold formal (object, shift) summands; the
    differential d_n: L_n -> L_{n-1} is a matrix of Hom-table elements,
    entry parity = sum of the two shifts.  A periodicity marker (s0, p)
    means L_{n+p} = L_n[1] and d_{n+p} = d_n for n > s0."""

    def __init__(self, sc: SpaceCategory, Y: str,
                 levels: List[List[Summand]],
                 diffs: List[Blocks],
                 periodic: Optional[Tuple[int, int]] = None):
        self.sc = sc
        self.Y = Y
        self.levels = levels
        self.diffs = diffs  # diffs[n-1] = matrix of d_n, rows: L_{n-1}, cols: L_n
        self.periodic = periodic
        self._slot_tables: Dict[int, Slots] = {}  # n -> level n's sizes, on first read

    def level(self, n: int) -> List[Summand]:
        guard_int(n, ModuleError, "a resolution has no level {!r}", 0)
        return self._level(n)

    def _level(self, n: int) -> List[Summand]:
        if n < len(self.levels):
            return self.levels[n]
        if not self.periodic:
            raise CatalogueError(f"resolution of S_{self.Y} not built to level {n}")
        return [(obj, (eps + 1) % 2) for obj, eps in self._level(n - self.periodic[1])]

    def diff(self, n: int) -> List[List[Optional[Element]]]:
        guard_int(n, ModuleError, "a resolution has no d_{!r}", 1)
        return self._diff(n)

    def _diff(self, n: int) -> List[List[Optional[Element]]]:
        if n - 1 < len(self.diffs):
            return self.diffs[n - 1]
        if not self.periodic:
            raise CatalogueError(f"resolution of S_{self.Y} has no d_{n}")
        return self._diff(n - self.periodic[1])

    def dims(self, n: int, W: str, parity: int) -> List[int]:
        """Block sizes of level n's underlying group at (W, parity)."""
        return free_ranks(self.sc.table, "right", self.level(n), W, parity)

    def _slots(self, n: int) -> Slots:
        """Level n's block sizes at each slot where it is nonzero; a slot
        the table lacks is 0."""
        if n not in self._slot_tables:
            level, t, slots = self._level(n), self.sc.table, {}
            for W in self.sc.objects:
                for p in (0, 1):
                    sizes = _free_ranks(t, "right", level, W, p)
                    if any(sizes):
                        slots[(W, p)] = sizes
            self._slot_tables[n] = slots
        return self._slot_tables[n]

    def underlying_diff(self, n: int, W: str, parity: int) -> IntMatrix:
        """Matrix of d_n on the underlying groups at (W, parity)."""
        d = self.diff(n)  # refuses an n that names no differential
        return free_map(self.sc.table, "right", self.level(n - 1), self.level(n), d, W, parity)


def resolve_simple(sc: SpaceCategory, Y: str, depth: int) -> FreeResolution:
    """Generic syzygy resolution of the simple right-module S_Y.

    Covers S_Y by Q_Y, whose kernel is J·Q_Y (see _level_kernels), then
    repeatedly covers the kernel of the last differential by free modules on
    homogeneous generators chosen minimal modulo the nil ideal; no Smith
    form is taken.  End(Y) must split as Z·id ⊕ nil (ntcat.end_splits),
    checked before level 0 is read."""
    sc.table.check_object(Y, ModuleError)
    guard_int(depth, ModuleError, _DEPTH, 0)
    res = FreeResolution(sc, Y, [[(Y, 0)]], [])
    _extend(res, depth)
    return res


def extend_resolution(res: FreeResolution, depth: int) -> None:
    """Continue a resolution by syzygy steps until it has `depth` levels.

    The kernel K of the last differential is a right module.  At each
    (W, parity), in a fixed order, a kernel column becomes a generator
    exactly when it lies outside the lattice spanned by the nil part J·K
    there (see _nil_part) and the generators already chosen there; only the
    nonzero slots take a kernel (see _level_kernels).

    This needs the nil ideal J of NT* to be nilpotent (graded Nakayama).
    Every image of a generator under a nonempty word lies in J·K, so the
    submodule S the generators span satisfies K = S + J·K, hence
    K = S + J^m·K = S once J^m = 0.  A table whose J is not nilpotent
    (ntcat._nilpotency_index, kept on the table) is refused with
    HypothesisNotVerifiedError before a level is built."""
    guard_int(depth, ModuleError, _DEPTH, 0)
    _extend(res, depth)


def _extend(res: FreeResolution, depth: int) -> None:
    sc, levels, diffs = res.sc, res.levels, res.diffs
    if len(levels) <= depth and _nilpotency_index(sc.table) is None:
        raise HypothesisNotVerifiedError("the nil ideal of the Hom table is not nilpotent, so "
                                         "generators chosen modulo it need not cover a kernel")
    while len(levels) <= depth:
        n = len(diffs)  # building d_{n+1}: L_{n+1} -> L_n
        level, slots = res._level(n), res._slots(n)
        kernels = _level_kernels(res, n)
        nil = _nil_part(res, n, kernels)
        chosen: List[Tuple[str, int, dict]] = []
        for (W, parity), K in kernels.items():
            c = sum(slots[(W, parity)])
            covered = Echelon(c)
            for v in nil.get((W, parity), ()):
                covered._insert(v)
            for v in (K if K is not None else  # a whole slot: its unit vectors
                      ({j: 1} for j in range(c))):
                if covered._insert(dict(v)):
                    chosen.append((W, parity, v))
        # differential entries: the components of each chosen kernel vector,
        # a dense piece only for each block where it is nonzero
        matrix: List[List[Optional[Element]]] = [[None] * len(chosen) for _ in level]
        for col, (W, parity, vec) in enumerate(chosen):
            sizes = slots[(W, parity)]
            starts = list(accumulate(sizes, initial=0))
            pieces: Dict[int, List[int]] = {}
            for j, x in vec.items():
                i = bisect_right(starts, j) - 1  # the last block starting at j or before
                pieces.setdefault(i, [0] * sizes[i])[j - starts[i]] = x
            for i, piece in pieces.items():
                A, eA = level[i]
                matrix[i][col] = Element(W, A, (parity + eA) % 2, piece)
        levels.append([(W, parity) for W, parity, _ in chosen])
        diffs.append(matrix)


def _level_kernels(res: FreeResolution, n: int) -> Kernels:
    """Kernel lattice of d_n (of Q_Y ->> S_Y for n = 0) at each (W, parity)
    where level n is nonzero: its Hermite basis as {index: nonzero}
    columns, or None for the whole slot.

    Every morphism between distinct objects and every odd one is nil, so at
    level 0 J·Q_Y is all of Q_Y(W)_p except at (Y, 0), where it is spanned
    by the images of Q_Y under the arrows out of Y.  Under
    End(Y)_even = Z·id ⊕ nil it is the kernel of Q_Y ->> S_Y; a Y whose
    End(Y) does not split is refused with HypothesisNotVerifiedError, as
    check_hypotheses refuses it.  For n >= 1 a slot where the level below
    is 0 is whole, and only the rest take a kernel (_slot_kernel)."""
    t, slots = res.sc.table, res._slots(n)
    if n:
        below, sources, d = res._slots(n - 1), res._level(n), res._diff(n)
        return {key: _slot_kernel(t, sources, d, *key, below[key], cols)
                if key in below else None for key, cols in slots.items()}
    Y = res.Y
    if not end_splits(t, Y):
        raise HypothesisNotVerifiedError(f"End({Y}) does not split as Z·id + nil")
    kernels = dict.fromkeys(slots)
    nil = generator_images(res.sc.presentation.by_src.get(Y, ()), "right",
                           lambda a, p: _columns(t.pre.get((a.dst, Y, p, a.name))))
    kernels[(Y, 0)] = hermite_basis(nil.get((Y, 0), ()), sum(slots[(Y, 0)]))
    return kernels


def _slot_kernel(t: HomTable, sources: Sequence[Summand], d: Blocks, W: str, parity: int,
                 rows: List[int], cols: List[int]) -> List[dict]:
    """Hermite basis, as {index: nonzero} columns, of the kernel of the map
    of free right modules from `sources` given by d at (W, parity), on the
    block sizes `rows` of its targets and `cols` of its sources:
    zexact.kernel_columns of the layout's sparse columns (_map_columns),
    with no dense matrix laid out."""
    return kernel_columns(_map_columns(t, "right", sources, d, W, parity, rows, cols),
                          sum(rows), sum(cols))


def _nil_part(res: FreeResolution, n: int, kernels: Kernels) -> Dict[Tuple[str, int], List[dict]]:
    """J·K per (W, parity), K the submodule of level n that `kernels` span
    (see _level_kernels).  Each generator acts by its layout's sparse
    columns (_action_columns), so a kernel vector meets only the blocks
    where it is nonzero, and none are built where the level is 0 at the
    image's slot."""
    t, level, slots = res.sc.table, res._level(n), res._slots(n)

    def act(a: Arrow, p: int) -> Optional[List[dict]]:
        rows = slots.get((a.src, p ^ a.parity))
        return None if rows is None else \
            _action_columns(t, "right", level, a, p, rows, slots[(a.dst, p)])

    return generator_images(res.sc.presentation.arrows.values(), "right", act,
                            {key: K for key, K in kernels.items() if K is None or K})


def _composite_problems(res: FreeResolution, n: int) -> List[str]:
    """Blocks where d_n∘d_{n+1} is nonzero in the Hom table."""
    t = res.sc.table
    dn, dn1 = res._diff(n), res._diff(n + 1)
    problems = []
    for i in range(len(res._level(n - 1))):
        for j in range(len(res._level(n + 1))):
            total = None
            for k in range(len(res._level(n))):
                a, b = dn[i][k], dn1[k][j]
                if a is None or b is None:
                    continue
                term = t.compose(b, a)
                total = term if total is None else t.add(total, term)
            if total is not None and not total.is_zero():
                problems.append(f"d_{n}∘d_{n + 1} nonzero at block ({i},{j})")
    return problems


def _exact_at(d_in: IntMatrix, d_out: IntMatrix) -> bool:
    """ker(d_out) = im(d_in) for maps of free groups."""
    A = Presentation.free(d_in.cols)
    B = Presentation.free(d_in.rows)
    C = Presentation.free(d_out.rows)
    return subquotient_homology(GroupHom(A, B, d_in),
                                GroupHom(B, C, d_out)).group.is_trivial()


def validate_resolution(res: FreeResolution, depth: int) -> List[str]:
    """d∘d = 0 and exactness on underlying groups through the given depth.
    At level 0 the Hermite basis of im d_1 must be the kernel of Q_Y ->> S_Y
    (see _level_kernels, which first checks the split of End(Y) that makes
    Q_Y ->> S_Y onto) at every (W, parity).  A slot where d_n∘d_{n+1} is
    nonzero on the underlying groups reports that instead of exactness.
    Each underlying differential is built once per (W, parity)."""
    guard_int(depth, ModuleError, _DEPTH, 0)
    level0 = _level_kernels(res, 0)
    problems = []
    for n in range(1, depth):
        problems += _composite_problems(res, n)
    for W, parity in ((W, p) for W in res.sc.objects for p in (0, 1)):
        c, K = sum(res._slots(0).get((W, parity), ())), level0.get((W, parity))
        d = [None] + [res.underlying_diff(n, W, parity) for n in range(1, max(depth, 1) + 1)]
        if hnf_columns(d[1]) != (IntMatrix.identity(c) if K is None
                                 else IntMatrix._from_sparse_columns(K, c)):
            problems.append(f"not exact under the augmentation at ({W},{parity})")
        for n in range(1, depth):
            if not (d[n] * d[n + 1]).is_zero():
                problems.append(f"d_{n}∘d_{n + 1} nonzero on the underlying groups at "
                                f"({W},{parity})")
            elif not _exact_at(d[n + 1], d[n]):
                problems.append(f"not exact at level {n}, ({W},{parity})")
    return problems


# ---------------------------------------------------------------------------
# Shipped resolutions and the engine switch
# ---------------------------------------------------------------------------

_RESOLUTIONS_PATH = os.path.join(os.path.dirname(__file__), "data", "resolutions.json")
_SHIPPED: Dict[str, Dict[str, dict]] = {}
_BUILTIN_CACHE: Dict[Tuple[str, str], FreeResolution] = {}


def builtin_resolution(space_name: str, Y: str) -> FreeResolution:
    """The shipped resolution of S_Y from data/resolutions.json.

    The file is trusted data, like the table caches: it is generated from
    the hand catalogue in tests/catalogue.py, which validates every entry,
    and a test requires the shipped file to equal a fresh generation.  Its
    periodic marker is present only where the resolution validated through
    the wrap-around differential the marker implies."""
    key = (space_name, Y)
    res = _BUILTIN_CACHE.get(key)
    if res is not None:
        return res
    if not _SHIPPED:
        with open(_RESOLUTIONS_PATH) as fh:
            _SHIPPED.update(json.load(fh))
    entry = _SHIPPED.get(space_name, {}).get(Y)
    if entry is None:
        raise CatalogueError(f"no catalogued resolution for ({space_name}, {Y})")
    levels = [[(obj, eps) for obj, eps in lvl] for lvl in entry["levels"]]
    diffs = [[[None if e is None else Element(*e) for e in row] for row in d]
             for d in entry["diffs"]]
    periodic = tuple(entry["periodic"]) if entry["periodic"] else None
    res = _BUILTIN_CACHE[key] = FreeResolution(builtin_category(space_name), Y,
                                                levels, diffs, periodic)
    return res


def resolution_for(sc: SpaceCategory, Y: str, depth: int,
                   engine: str = "auto") -> FreeResolution:
    """A resolution of S_Y with at least `depth` levels.  "auto" and
    "generic" run the syzygy engine and share one entry of the category's
    `resolutions`, so a resolution, which is tied to its table's basis
    choices, lives as long as its category; "builtin" reads the shipped
    resolution and raises CatalogueError where none is shipped."""
    sc.table.check_object(Y, ModuleError)
    guard_int(depth, ModuleError, _DEPTH, 0)
    guard_name(engine, ("auto", "generic", "builtin"), ModuleError,
               "unknown resolution engine {!r}; expected auto, builtin or generic")
    if engine == "builtin":
        res = builtin_resolution(builtin_name(sc.space), Y)
        if res.periodic is None:
            _extend(res, depth)
        return res
    res = sc.resolutions.get(Y) or FreeResolution(sc, Y, [[(Y, 0)]], [])
    _extend(res, depth)
    sc.resolutions[Y] = res  # once built: a refused Y caches nothing
    return res


# ---------------------------------------------------------------------------
# Tor
# ---------------------------------------------------------------------------

class TorReport(_Record):
    """Per object and degree: the graded Tor group in normal form."""
    __slots__ = _fields = ("space", "groups")

    def __init__(self, space: str, groups: Dict[str, Dict[int, Tuple[AbGroupNF, AbGroupNF]]]):
        self.space = space
        self.groups = groups

    def _reach(self, n: int, what: str) -> None:
        """Refuse a degree the report does not hold, which would read as 0."""
        guard_int(n, ModuleError, _DEGREE, 0)
        reached = min(map(max, self.groups.values()))
        if n > reached:
            raise ModuleError(f"{what} needs Tor_{n}; the report stops at degree {reached}")

    def aggregate(self, n: int) -> Tuple[AbGroupNF, AbGroupNF]:
        self._reach(n, "the aggregate")
        pairs = [degs[n] for degs in self.groups.values()]
        return tuple(_nf_from_parts(sum(g[p].rank for g in pairs),
                                    [d for g in pairs for d in g[p].torsion]) for p in (0, 1))

    def is_zero(self, n: int) -> bool:
        return all(g.is_trivial() for g in self.aggregate(n))

    def is_free(self, n: int) -> bool:
        return all(g.is_free() for g in self.aggregate(n))

    def projective_dimension(self, max_n: int) -> Optional[int]:
        """Smallest n <= max_n with Tor_n free and Tor_{n+1} = 0, or None.
        The report must reach degree max_n + 1: a missing degree would read
        as 0."""
        guard_int(max_n, ModuleError, _MAX_N, 0)
        self._reach(max_n + 1, f"pd up to {max_n}")
        return next((n for n in range(max_n + 1) if self.is_free(n) and self.is_zero(n + 1)),
                    None)

    def to_json(self) -> dict:
        return {obj: {str(n): {"even": str(g[0]), "odd": str(g[1])}
                      for n, g in sorted(degs.items())}
                for obj, degs in sorted(self.groups.items())}


def _nf_from_parts(rank: int, torsions: List[int]) -> AbGroupNF:
    if not torsions:
        return AbGroupNF(rank, ())
    # merge torsion coefficients into a divisibility chain via a diagonal SNF
    n = len(torsions)
    mat = IntMatrix._of(tuple((0,) * i + (d,) + (0,) * (n - 1 - i)
                              for i, d in enumerate(torsions)), n, n)
    P = Presentation(n, mat)
    nf = P.normal_form()
    return AbGroupNF(rank + nf.rank, nf.torsion)


def _tensor_diff(res: FreeResolution, M: GradedModule, k: int) -> GradedHom:
    """The differential d_k⊗M from level k to level k-1."""
    return M.sum_map(0, res._level(k), res._level(k - 1), [
        [None if el is None else M.action_element(el) for el in row]
        for row in res._diff(k)])


def tensor_complex_maps(res: FreeResolution, M: GradedModule, n: int) -> list:
    """The tensored complex [None, d_1⊗M, ..., d_{n+1}⊗M], enough for Tor
    through degree n; entry k is the map out of level k.  The sum of a
    level's entries is built once per module (see GradedModule.sum_map)."""
    guard_int(n, ModuleError, _DEGREE, 0)
    return [None] + [_tensor_diff(res, M, k) for k in range(1, n + 2)]


def _homology_at(nodes: dict, d_in: GradedHom,
                 d_out: Optional[GradedHom]) -> Tuple[AbGroupNF, AbGroupNF]:
    """ker(d_out)/im(d_in) per parity; no d_out means the zero map.  `nodes`
    is the node table (see _node_homology)."""
    parts = []
    for parity in (0, 1):
        f = d_in.component(parity)
        if d_out is None:
            g = GroupHom.zero(f.target, Presentation.zero())
        else:
            g = d_out.component(parity)
        parts.append(_node_homology(nodes, f, g))
    return parts[0], parts[1]


def tor_single(res: FreeResolution, M: GradedModule, n: int) -> Tuple[AbGroupNF, AbGroupNF]:
    """Tor_n(S_Y, M) from a resolution of S_Y."""
    d = tensor_complex_maps(res, M, n)
    return _homology_at({}, d[n + 1], d[n])


def tor(M: GradedModule, n: int, engine: str = "auto") -> TorReport:
    """Tor_k(S_Y, M) for all Y and k = 0..n; aggregate = Tor(NT_ss, M).

    Each tensored differential d_k⊗M is built once per Y and serves as the
    outgoing map at level k and the incoming map at level k-1; each direct
    sum of a level's entries is built once per module, and so is each
    map's echelon and each distinct node, shared with check_exact (see
    _node_homology).  M must be a left module with an action for every
    generator arrow: it is tensored with resolutions of right modules.
    The complexes are tensored with M.reduced(), the same module on
    pruned presentations; tor_single tensors with the module it is given."""
    guard_int(n, ModuleError, _DEGREE, 0)
    if M.variance != "left":
        raise ModuleError("Tor(S_Y, M) needs a left module M, "
                          f"not a {M.variance} module")
    _require_actions(M, "Tor(S_Y, M)")
    sc = M.category
    M = M.reduced()
    groups: Dict[str, Dict[int, Tuple[AbGroupNF, AbGroupNF]]] = {}
    for Y in sc.objects:
        d = tensor_complex_maps(resolution_for(sc, Y, n + 1, engine), M, n)
        groups[Y] = {k: _homology_at(M._nodes, d[k + 1], d[k]) for k in range(n + 1)}
    return TorReport(sc.space.name, groups)


def rational_tor(M: GradedModule, n: int, engine: str = "auto") -> Tuple[int, int]:
    """Ranks of the rational Tor: Q is flat, so this is the rank of the
    integral Tor."""
    rep = tor(M, n, engine)
    ev, od = rep.aggregate(n)
    return ev.rank, od.rank


def check_hypotheses(sc: SpaceCategory) -> None:
    """Raise HypothesisNotVerifiedError unless the nil ideal of the space's
    category is nilpotent and NT* = NT_nil ⋊ NT_ss, the hypotheses under
    which Tor decides the projective dimension."""
    chk = ideal_checks(sc.table)
    if not (chk.nilpotent and chk.semidirect):
        raise HypothesisNotVerifiedError(
            f"nil/ss hypotheses not verified for {sc.space.name}")


def projective_dimension(M: GradedModule, max_n: int,
                         engine: str = "auto") -> Optional[int]:
    """Smallest n with Tor_n free and Tor_{n+1} = 0, or None beyond max_n.

    Refuses (HypothesisNotVerifiedError) unless the nilpotency and
    semidirectness hypotheses hold for the space."""
    guard_int(max_n, ModuleError, _MAX_N, 0)
    check_hypotheses(M.category)
    return tor(M, max_n + 1, engine).projective_dimension(max_n)


# ---------------------------------------------------------------------------
# Left-module free complexes (for validating explicit resolutions of modules)
# ---------------------------------------------------------------------------

def left_complex_underlying(sc: SpaceCategory, levels: List[List[Summand]],
                            diffs: List[Blocks], W: str, parity: int) -> List[IntMatrix]:
    """Underlying matrices at (W, parity) of a complex of free left modules
    ... -> ⊕P_A[ε] -> ⊕P_B[ε'] (diffs[k]: levels[k+1] -> levels[k]), whose
    entries act by pre-composition (see free_map)."""
    return [free_map(sc.table, "left", levels[k], levels[k + 1], mat, W, parity)
            for k, mat in enumerate(diffs)]
