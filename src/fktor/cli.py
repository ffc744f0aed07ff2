"""Command line interface.

Verbs: space-info, cat-table, module-validate, module-exact, module-tor,
module-pd, graph-check, graph-k, graph-fk, graph-tor.  Output is
deterministic; --format json emits a machine-readable report that parses
back to the same structure.  Exit codes: 0 success, 2 parse error,
3 hypothesis not verified, 4 computation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .finspace import (SpaceError, builtin_space, is_accordion_union, label,
                       lc_subsets)
from .graphk import (BlockGraph, GraphError, fk_module, graph_checks,
                     k_groups, s_fast_tor1, tor_ck, z3_fast_tor1)
from .ntcat import (CategoryError, builtin_category, ideal_checks,
                    space_category)
from .ntmod import (GradedModule, HypothesisNotVerifiedError, ModuleError,
                    check_exact, check_hypotheses, tor, validate)
from .zexact import ZExactError, guard_int

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_COMPUTE = 4


class CliParseError(Exception):
    pass


def _data_path(name: str) -> str:
    return os.path.join(os.path.dirname(__file__), "data", name)


def _load_json_file(path: str):
    candidates = [path]
    if not os.path.sep in path:
        candidates.append(_data_path(path))
        if not path.endswith(".json"):
            candidates.append(_data_path(path + ".json"))
    for c in candidates:
        if os.path.exists(c):
            try:
                with open(c) as fh:
                    return json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                raise CliParseError(f"invalid JSON in {c}: {e}")
            except OSError as e:
                raise CliParseError(f"cannot read {c}: {e}")
    raise CliParseError(f"no such file: {path}")


def _space_name(args) -> str:
    """The --space name, or that of its alias --builtin; both may be given
    only when they name the same space."""
    space, alias = getattr(args, "space", None), getattr(args, "builtin", None)
    if space and alias and space != alias:
        raise CliParseError(f"--space {space} and --builtin {alias} name "
                            "different spaces")
    if not (space or alias):
        raise CliParseError("a --space (or --builtin) name is required")
    return space or alias


def _get_space(args):
    return builtin_space(_space_name(args))


def _get_category(args):
    return builtin_category(_space_name(args))


def _file_data(args, kind: str, space_name: str) -> dict:
    if not args.file:
        raise CliParseError("--file is required")
    data = _load_json_file(args.file)
    if not isinstance(data, dict):
        raise CliParseError(f"{kind} file must hold a JSON object")
    if data.get("space") not in (None, space_name):
        raise CliParseError(
            f"{kind} file is over {data.get('space')}, not {space_name}")
    return data


def _parse(kind: str, build):
    """build(), with malformed file data reported as a parse error."""
    try:
        return build()
    except KeyError as e:
        raise CliParseError(f"{kind} file lacks the key {e}")
    except (TypeError, ValueError, OverflowError, ZExactError, GraphError) as e:
        # OverflowError: a count too large to index, such as gens = 2**70;
        # GraphError: blocks or adjacency that do not fit the space
        raise CliParseError(f"malformed {kind} file: {e}")


def _get_module(args):
    sc = _get_category(args)
    data = _file_data(args, "module", sc.space.name)
    return _parse("module", lambda: GradedModule.from_json(data, sc))


def _get_graph(args):
    space = _get_space(args)
    data = _file_data(args, "graph", space.name)
    return _parse("graph", lambda: BlockGraph.from_json(data, space))


def _reconstruction_warnings(sc):
    if sc.presentation.reconstructed:
        return [f"relations for {sc.space.name} are reconstructed data, "
                "validated against the classical reference values"]
    return []


def _nf_pair_json(pair):
    return {"even": str(pair[0]), "odd": str(pair[1])}


# ---------------------------------------------------------------------------
# Verb implementations: each returns (report_dict, text_lines)
# ---------------------------------------------------------------------------

def cmd_space_info(args):
    space = _get_space(args)
    lcs = space.lc_star()
    all_lc = lc_subsets(space)
    accordion = is_accordion_union(space) if space.is_t0() else None
    report = {
        "space": space.name or "custom",
        "points": list(space.points),
        "t0": space.is_t0(),
        "lc_star": [lc.label for lc in lcs],
        "lc_count": len(all_lc),
        "accordion": accordion,
    }
    acc = {True: "yes", False: "no", None: "n/a (not T0)"}[accordion]
    text = [f"space: {report['space']} ({''.join(space.points)})",
            f"LC* = {len(lcs)} subsets; accordion: {acc}",
            "LC*: " + " ".join(report["lc_star"])]
    return report, text


def cmd_cat_table(args):
    sc = _get_category(args)
    t = sc.table
    chk = ideal_checks(t)
    ranks = {}
    for (a, b, p), r in sorted(t.rank.items()):
        if r:
            key = f"{a}->{b}"
            ranks.setdefault(key, [0, 0])[p] = r
    report = {
        "space": sc.space.name,
        "objects": list(t.objects),
        "hom_ranks": {k: {"even": v[0], "odd": v[1]} for k, v in ranks.items()},
        "nilpotent": chk.nilpotent,
        "nilpotency_index": chk.nilpotency_index,
        "semidirect": chk.semidirect,
        "warnings": _reconstruction_warnings(sc),
    }
    text = [f"category over {sc.space.name}: {len(t.objects)} objects",
            f"nilpotent: {chk.nilpotent} (index {chk.nilpotency_index}); "
            f"semidirect: {chk.semidirect}",
            f"total hom rank: {t.total_rank()}"]
    text += [f"warning: {w}" for w in report["warnings"]]
    return report, text


def cmd_module_validate(args):
    M = _get_module(args)
    rep = validate(M)
    report = {"space": M.category.space.name, "valid": rep.ok,
              "problems": rep.problems,
              "warnings": _reconstruction_warnings(M.category)}
    text = [f"valid: {'yes' if rep.ok else 'no'}"] + \
        [f"problem: {p}" for p in rep.problems]
    return report, text


def cmd_module_exact(args):
    M = _get_module(args)
    rep = validate(M)
    if not rep.ok:
        raise ModuleError("module does not validate: " + "; ".join(rep.problems[:3]))
    ex = check_exact(M)
    report = {"space": M.category.space.name, "exact": ex.ok,
              "failures": ex.failures,
              "warnings": _reconstruction_warnings(M.category)}
    text = [f"exact: {'yes' if ex.ok else 'no'}"] + \
        [f"failure: {f}" for f in ex.failures]
    return report, text


def _tor_report(rep, n):
    """The report (space, degree, the nonzero Tor groups per object and the
    aggregates through degree n) and its Tor_k text lines."""
    tor_json = {}
    for obj, degs in sorted(rep.groups.items()):
        entry = {}
        for k, pair in sorted(degs.items()):
            if not (pair[0].is_trivial() and pair[1].is_trivial()):
                entry[str(k)] = _nf_pair_json(pair)
        if entry:
            tor_json[obj] = entry
    aggregates = {str(k): _nf_pair_json(rep.aggregate(k)) for k in range(n + 1)}
    report = {"space": rep.space, "degree": n, "tor": tor_json,
              "aggregate": aggregates}
    text = []
    for k in range(n + 1):
        ev, od = rep.aggregate(k)
        text.append(f"Tor_{k} even: {ev}")
        text.append(f"Tor_{k} odd: {od}")
    return report, text


def cmd_module_tor(args):
    M = _get_module(args)
    report, text = _tor_report(tor(M, args.degree, engine=args.engine), args.degree)
    report["warnings"] = _reconstruction_warnings(M.category)
    return report, text


def cmd_module_pd(args):
    M = _get_module(args)
    rep = validate(M)
    if not rep.ok:
        raise ModuleError("module does not validate: " + "; ".join(rep.problems[:3]))
    check_hypotheses(M.category)
    tor_rep = tor(M, args.max + 1, engine=args.engine)
    pd = tor_rep.projective_dimension(args.max)
    # Q is flat, so the rational Tor_1 has the ranks of the integral one
    ev, od = tor_rep.aggregate(1)
    report = {"space": M.category.space.name,
              "pd": pd if pd is not None else f"> {args.max}",
              "max": args.max,
              "rational_tor1_rank": {"even": ev.rank, "odd": od.rank},
              "warnings": _reconstruction_warnings(M.category)}
    text = [f"pd = {pd}" if pd is not None else f"pd > {args.max}"]
    return report, text


def cmd_graph_check(args):
    G = _get_graph(args)
    rep = graph_checks(G)
    report = {"space": G.space.name, "triangular": rep.triangular,
              "no_sinks": rep.no_sinks, "no_sources": rep.no_sources,
              "condition_K": rep.condition_k,
              "condition_K_checked": rep.condition_k_checked,
              "problems": rep.problems}
    text = [f"triangular: {_yn(rep.triangular)}",
            f"sinks: {_yn(not rep.no_sinks)}",
            f"sources: {_yn(not rep.no_sources)}",
            f"condition (K): {_yn(rep.condition_k)}"]
    text += [f"problem: {p}" for p in rep.problems]
    return report, text


def cmd_graph_k(args):
    G = _get_graph(args)
    if args.subset is not None:
        if not args.subset or not set(args.subset) <= set(G.space.points):
            raise CliParseError(
                f"--subset {args.subset!r} is not a label of points of {G.space.name}")
        if not G.space.is_locally_closed(frozenset(args.subset)):
            raise CliParseError(
                f"--subset {args.subset!r} is not locally closed in {G.space.name}")
    sc = space_category(G.space)
    subsets = [label(set(args.subset))] if args.subset else sc.objects
    groups = {}
    text = []
    for s in subsets:
        sub = k_groups(G, frozenset(s))
        groups[s] = {"K0": str(sub.k0_nf()), "K1": str(sub.k1_nf()),
                     "K1_basis": sub.k1_basis.to_lists()}
        text.append(f"{s}: K0 = {sub.k0_nf()}, K1 = {sub.k1_nf()}")
    report = {"space": G.space.name, "k_groups": groups}
    return report, text


def cmd_graph_fk(args):
    G = _get_graph(args)
    M = fk_module(G)
    rep = validate(M)
    report = {"space": G.space.name, "valid": rep.ok,
              "module": M.to_json(),
              "warnings": _reconstruction_warnings(M.category)}
    text = [f"module over {G.space.name}: valid: {_yn(rep.ok)}"]
    for obj in M.category.objects:
        g = M.entries[obj]
        text.append(f"{obj}: even {g.even.normal_form()}, "
                    f"odd {g.odd.normal_form()}")
    return report, text


def cmd_graph_tor(args):
    G = _get_graph(args)
    rep = tor_ck(G, args.degree, engine=args.engine)
    fast_fn = {"Z3": z3_fast_tor1, "S": s_fast_tor1}.get(G.space.name)
    # the fast paths compute Tor_1, which a Tor_0-only report does not hold
    fast = fast_fn(G) if fast_fn is not None and args.degree >= 1 else None
    if fast is not None:
        agg1 = rep.aggregate(1)
        if agg1 != (fast.group_even, fast.group_odd):
            raise ModuleError("fast path and resolution engine disagree")
    report, text = _tor_report(rep, args.degree)
    if fast is not None and fast.witnesses:
        report["witnesses"] = {k: list(v) for k, v in fast.witnesses.items()}
        for k in sorted(fast.witnesses):
            text.append(f"witness {k}: {tuple(fast.witnesses[k])}")
    return report, text


def _yn(b):
    return "yes" if b else "no"


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------

def _nonnegative(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = None
    guard_int(n, argparse.ArgumentTypeError, "must be a nonnegative integer, not {!r}", 0,
              shown=text)
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fktor",
        description="Exact filtrated K-theory invariants over finite spaces")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, space=True, file=False, engine=False):
        if space:
            sp.add_argument("--space", help="builtin space name (Z1..Z4, S, C2, pt)")
            sp.add_argument("--builtin", help="alias for --space")
        if file:
            sp.add_argument("--file", help="input JSON (path or bundled name)")
        if engine:
            sp.add_argument("--engine", choices=["auto", "builtin", "generic"],
                            default="auto")
        sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("space-info", help="points, LC(X)*, accordion verdict")
    common(sp)
    sp = sub.add_parser("cat-table", help="Hom ranks and the nil/ss ring data")
    common(sp)
    sp = sub.add_parser("module-validate", help="check a module file")
    common(sp, file=True)
    sp = sub.add_parser("module-exact", help="six-term exactness of a module")
    common(sp, file=True)
    sp = sub.add_parser("module-tor", help="Tor groups of a module")
    common(sp, file=True, engine=True)
    sp.add_argument("--degree", type=_nonnegative, default=1)
    sp = sub.add_parser("module-pd", help="projective dimension of a module")
    common(sp, file=True, engine=True)
    sp.add_argument("--max", type=_nonnegative, default=3)
    sp = sub.add_parser("graph-check", help="structural checks of a block graph")
    common(sp, file=True)
    sp = sub.add_parser("graph-k", help="subquotient K-groups of a block graph")
    common(sp, file=True)
    sp.add_argument("--subset", help="single locally closed subset label")
    sp = sub.add_parser("graph-fk", help="the module of subquotient K-groups")
    common(sp, file=True)
    sp = sub.add_parser("graph-tor", help="Tor pipeline for a block graph")
    common(sp, file=True, engine=True)
    sp.add_argument("--degree", type=_nonnegative, default=1)
    return p


_DISPATCH = {
    "space-info": cmd_space_info,
    "cat-table": cmd_cat_table,
    "module-validate": cmd_module_validate,
    "module-exact": cmd_module_exact,
    "module-tor": cmd_module_tor,
    "module-pd": cmd_module_pd,
    "graph-check": cmd_graph_check,
    "graph-k": cmd_graph_k,
    "graph-fk": cmd_graph_fk,
    "graph-tor": cmd_graph_tor,
}


def run(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code else EXIT_OK
    try:
        report, text = _DISPATCH[args.verb](args)
    except (CliParseError, SpaceError, json.JSONDecodeError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisNotVerifiedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (GraphError, CategoryError, ModuleError, ZExactError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
    if args.format == "json":
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        for line in text:
            print(line, file=out)
    return EXIT_OK


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
