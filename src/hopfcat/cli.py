"""Command line front end.

Subcommands: group info, chartab, double irreps|smatrix|fusion,
coideals list|integral, subcats list|lattice, centralizer, verify
(--suite smoke|full), cache purge.  Exit codes: 0 success, 1 failed
check, 2 usage error, 3 size bound exceeded: every command on the
double, verify included, refuses a double larger than --max-dim.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# A call answered from the cache needs only parsing, the cache and
# rendering, so only those modules are imported here; the algebra
# modules (chartab, hopf, coideal, fusion, verify) are imported by the
# code that computes a payload, and cyclo by the text renderers, so a
# warm JSON call never compiles them.
from .cache import ResultCache, cache_key, fits
from .errors import (BoundExceeded, HopfcatError, ParseError,
                     PreconditionViolated, MethodPreconditionViolated)
from .groups import (DOUBLE_DIM_BOUND, Group, center_subgroup,
                     check_double_dim, double_name, normal_subgroups,
                     parse_group_spec, subgroup_generated)


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", required=False, default="",
                        help="group spec: a catalog name, perm:..., or cayley:...")
    common.add_argument("--format", default="text",
                        choices=("text", "json", "dot"))
    common.add_argument("--max-dim", type=int, default=DOUBLE_DIM_BOUND,
                        metavar="N", help="largest algebra dimension to "
                        f"build, at most {DOUBLE_DIM_BOUND}")
    common.add_argument("--cache", default=None, metavar="DIR",
                        help="cache directory (HOPFCAT_CACHE overrides the default)")

    p = argparse.ArgumentParser(prog="hopfcat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("group", parents=[common], help="group catalog data")
    sp.add_argument("action", choices=("info",))

    sub.add_parser("chartab", parents=[common],
                   help="exact character table of the group")

    sp = sub.add_parser("double", parents=[common],
                        help="data of the double: irreps, smatrix, fusion")
    sp.add_argument("action", choices=("irreps", "smatrix", "fusion"))

    sp = sub.add_parser("coideals", parents=[common],
                        help="coideal subalgebras of the double")
    sp.add_argument("action", choices=("list", "integral"))
    sp.add_argument("--triple", default=None, metavar="M=..,H=..,B=..",
                    help="restrict to one coideal, e.g. M=1+2,H=0,B=triv "
                         "(generators joined by '+')")

    sp = sub.add_parser("subcats", parents=[common],
                        help="fusion subcategory lattice of the double")
    sp.add_argument("action", choices=("list", "lattice"))

    sp = sub.add_parser("centralizer", parents=[common],
                        help="centralizer of a subcategory, by one or all methods")
    sp.add_argument("--triple", default=None, metavar="M=..,H=..,B=..")
    sp.add_argument("--all", action="store_true", dest="all_subcats",
                    help="run over every subcategory in the lattice")
    sp.add_argument("--method", default="all",
                    choices=("smatrix", "phi", "classes", "all"))

    sp = sub.add_parser("verify", parents=[common],
                        help="run the identity suite on the double")
    sp.add_argument("--suite", default="full", choices=("smoke", "full"))

    sp = sub.add_parser("cache", parents=[common], help="cache maintenance")
    sp.add_argument("action", choices=("purge",))
    return p


def _double(G: Group):
    """D(kG), from hopf imported here: a warm call never loads it."""
    from .hopf import build_double
    return build_double(G)


def parse_triple(G: Group, text: str):
    """M=<gens>,H=<gens>,B=<index|triv>, generators joined by '+'."""
    from .coideal import coideal_triples
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"triple needs three comma-separated clauses: {text!r}")
    vals = {}
    for part, want in zip(parts, ("M", "H", "B")):
        if "=" not in part:
            raise ParseError(f"clause {part!r} is not {want}=...")
        key, _, val = part.partition("=")
        if key.strip() != want:
            raise ParseError(f"expected {want}=..., got {part!r}")
        vals[want] = val.strip()
    def gens(text: str) -> list[int]:
        if not text:
            return []
        try:
            out = [int(tok) for tok in text.split("+")]
        except ValueError:
            raise ParseError(f"bad generator list {text!r}") from None
        if any(g < 0 or g >= G.n for g in out):
            raise ParseError(f"generator out of range in {text!r}")
        return out
    M = subgroup_generated(G, gens(vals["M"]))
    H = subgroup_generated(G, gens(vals["H"]))
    # empty unless M and H are normal and commute elementwise
    bichars = [bc for N, K, bc in coideal_triples(G)
               if (N.members, K.members) == (M.members, H.members)]
    if vals["B"] == "triv":
        index = 0
    else:
        try:
            index = int(vals["B"])
        except ValueError:
            raise ParseError(f"B must be an index or 'triv': {vals['B']!r}") \
                from None
    if not 0 <= index < len(bichars):
        raise ParseError(
            f"B={index} out of range; {len(bichars)} invariant bicharacters")
    return M, H, bichars[index]


# --- payload builders -----------------------------------------------------


def _group_info_payload(G: Group) -> dict:
    classes = G.conjugacy_classes()
    return {
        "name": G.name,
        "order": G.n,
        "exponent": G.exponent(),
        "abelian": all(G.mul(a, b) == G.mul(b, a)
                       for a in range(G.n) for b in range(a)),
        "center": list(center_subgroup(G).members),
        "classes": [{"representative": c.representative,
                     "members": list(c.members)} for c in classes],
        "normal_subgroups": [list(S.members) for S in normal_subgroups(G)],
    }


def _chartab_payload(G: Group) -> dict:
    from .chartab import character_table
    t = character_table(G)
    return {
        "group": G.name,
        "class_representatives": [c.representative for c in t.classes],
        "class_sizes": [len(c.members) for c in t.classes],
        "degrees": list(t.degrees),
        "rows": [[v.to_json() for v in row] for row in t.rows],
    }


def _irreps_payload(A) -> list[dict]:
    from .fusion import simple_objects
    return [{
        "label": s.label(),
        "class_index": s.class_index,
        "rep_index": s.rep_index,
        "class_representative": s.a,
        "dim": s.dim,
        "character": {str(k): v.to_json()
                      for k, v in sorted(s.character.items())},
    } for s in simple_objects(A)]


def _smatrix_payload(A) -> dict:
    from .fusion import smatrix
    sm = smatrix(A)
    return {
        "algebra": A.name,
        "dims": [s.dim for s in sm.simples],
        "rank": sm.rank,
        "phi_relation": sm.phi_relation,
        "entries": [[v.to_json() for v in row] for row in sm.entries],
    }


def _fusion_payload(A) -> dict:
    from .fusion import fusion_table
    table = fusion_table(A)
    r = len(table)
    triples = [[i, j, k, table[i][j][k]]
               for i in range(r) for j in range(r) for k in range(r)
               if table[i][j][k]]
    return {"algebra": A.name, "rank": r, "nonzero": triples}


def _coideal_payload(L, with_integral: bool) -> dict:
    out = {"label": L.label(), "dim": L.dim}
    if with_integral:
        out["integral"] = {str(k): v.to_json()
                           for k, v in sorted(L.integral.items())}
    return out


def _subcat_payload(D) -> dict:
    return {"label": D.label(), "indices": list(D.indices),
            "fpdim": D.fpdim}


def _lattice_payload(A) -> dict:
    from .fusion import centralizer, subcat_mask, subcat_table
    table = subcat_table(A)
    subs = list(table.values())
    pos = {m: i for i, m in enumerate(table)}

    def below(a: int, b: int) -> bool:
        return a != b and a | b == b

    covers = [[i, j] for i, a in enumerate(table) for j, b in enumerate(table)
              if below(a, b) and not any(below(a, c) and below(c, b)
                                         for c in table)]
    inv = []
    for i, D in enumerate(subs):
        j = pos[subcat_mask(centralizer(A, D, "smatrix").indices)]
        if i <= j:
            inv.append([i, j])
    return {
        "algebra": A.name,
        "nodes": [_subcat_payload(D) for D in subs],
        "covers": sorted(covers),
        "centralizer_pairs": sorted(inv),
    }


# --- cached payload shapes ------------------------------------------------


def _cell_shape(G: Group):
    """A cyclotomic value of G's tables: its order n is positive and
    divides the exponent of G, as every value in Q(zeta_exp(G)) does,
    and each term [e, a, b] has 0 <= e < n and b > 0."""
    exp = G.exponent()

    def cell(v) -> bool:
        if not fits(v, {"n": int, "c": [[int]]}):
            return False
        n = v["n"]
        return n > 0 and exp % n == 0 and all(
            len(t) == 3 and 0 <= t[0] < n and t[2] > 0 for t in v["c"])
    return cell


def _chartab_fits(G: Group):
    """The chartab shape, square: as many characters (rows, degrees) as
    classes (representatives, sizes), and one cell per class in a row."""
    shape = {"group": object, "class_representatives": [int],
             "class_sizes": [int], "degrees": [int],
             "rows": [[_cell_shape(G)]]}

    def square(p) -> bool:
        if not fits(p, shape):
            return False
        r = len(p["class_representatives"])
        return (len(p["class_sizes"]) == len(p["degrees"]) == len(p["rows"])
                == r and all(len(row) == r for row in p["rows"]))
    return square


def _smatrix_fits(G: Group):
    """The smatrix shape, square: one row of entries per simple, one
    entry per simple in a row, and at least one simple."""
    shape = {"algebra": str, "dims": [int], "rank": int,
             "phi_relation": str, "entries": [[_cell_shape(G)]]}

    def square(p) -> bool:
        if not fits(p, shape):
            return False
        r = len(p["dims"])
        return r >= 1 and len(p["entries"]) == r and all(
            len(row) == r for row in p["entries"])
    return square


def _lattice_fits(p) -> bool:
    """The lattice shape, with every cover and centralizer pair naming
    two of its nodes."""
    if not fits(p, {"algebra": str,
                    "nodes": [{"label": str, "indices": [int], "fpdim": int}],
                    "covers": [[int]], "centralizer_pairs": [[int]]}):
        return False
    n = len(p["nodes"])
    return all(len(pair) == 2 and all(0 <= k < n for k in pair)
               for pair in p["covers"] + p["centralizer_pairs"])


# --- renderers ------------------------------------------------------------


def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _show(args, payload, text) -> None:
    """Print payload as JSON under --format json, else as text(payload)."""
    print(_emit_json(payload) if args.format == "json" else text(payload))


def _text_cell(v: dict) -> str:
    """A cyclotomic value of a payload, as text."""
    from .cyclo import CycloNumber, fmt_cyclo
    return fmt_cyclo(CycloNumber.from_json(v))


def _text_group_info(p: dict) -> str:
    lines = [f"group {p['name']}: order {p['order']}, exponent "
             f"{p['exponent']}, {'abelian' if p['abelian'] else 'nonabelian'}",
             f"center: {p['center']}"]
    for c in p["classes"]:
        lines.append(f"class of {c['representative']}: {c['members']}")
    for members in p["normal_subgroups"]:
        lines.append(f"normal subgroup: {members}")
    return "\n".join(lines)


def _text_chartab(p: dict) -> str:
    cells = [[_text_cell(v) for v in row] for row in p["rows"]]
    head = [f"g{r}" for r in p["class_representatives"]]
    widths = [max(len(head[k]), *(len(row[k]) for row in cells))
              for k in range(len(head))]
    lines = [f"character table of {p['group']} "
             f"(class sizes {p['class_sizes']})"]
    lines.append("      " + "  ".join(h.rjust(w)
                                      for h, w in zip(head, widths)))
    for i, row in enumerate(cells):
        lines.append(f"chi{i:<3} " + "  ".join(c.rjust(w)
                                               for c, w in zip(row, widths)))
    return "\n".join(lines)


def _text_smatrix(p: dict) -> str:
    cells = [[_text_cell(v) for v in row] for row in p["entries"]]
    width = max(len(c) for row in cells for c in row)
    lines = [f"s-matrix of {p['algebra']}: rank {p['rank']}, "
             f"phi relation {p['phi_relation']}"]
    for row in cells:
        lines.append("  ".join(c.rjust(width) for c in row))
    return "\n".join(lines)


def _text_fusion(p: dict) -> str:
    lines = [f"fusion rules of {p['algebra']} ({p['rank']} simples)"]
    by_pair: dict[tuple[int, int], list[str]] = {}
    for i, j, k, n in p["nonzero"]:
        term = f"V{k}" if n == 1 else f"{n}*V{k}"
        by_pair.setdefault((i, j), []).append(term)
    for (i, j), terms in sorted(by_pair.items()):
        lines.append(f"V{i} x V{j} = " + " + ".join(terms))
    return "\n".join(lines)


def _text_irreps(name: str, recs: list) -> str:
    lines = [f"simple modules of {name}"]
    for rec in recs:
        lines.append(f"  {rec['label']}  dim {rec['dim']}  "
                     f"(class of {rec['class_representative']})")
    return "\n".join(lines)


def _text_coideals(name: str, recs: list) -> str:
    lines = [f"coideal subalgebras of {name}: {len(recs)}"]
    for rec in recs:
        lines.append(f"  {rec['label']}  dim {rec['dim']}")
        if "integral" in rec:
            terms = ", ".join(f"[{k}] {_text_cell(v)}"
                              for k, v in rec["integral"].items())
            lines.append(f"    integral: {terms}")
    return "\n".join(lines)


def _text_subcats(name: str, nodes: list) -> str:
    lines = [f"fusion subcategories of {name}: {len(nodes)}"]
    for n in nodes:
        lines.append(f"  {n['label']}  fpdim={n['fpdim']}  "
                     f"simples {n['indices']}")
    return "\n".join(lines)


def _text_centralizer(recs: list) -> str:
    lines = []
    for rec in recs:
        mark = "ok " if rec["agree"] else "FAIL"
        shown = ", ".join(f"{m}: {l}" for m, l in rec["methods"].items())
        lines.append(f"{mark} {rec['subject']}' -> {shown}")
    return "\n".join(lines)


def _text_lattice(p: dict) -> str:
    lines = [f"subcategory lattice of {p['algebra']}: "
             f"{len(p['nodes'])} nodes"]
    for n in p["nodes"]:
        lines.append(f"  {n['label']} fpdim={n['fpdim']}")
    for i, j in p["covers"]:
        lines.append(f"  {p['nodes'][i]['label']} < {p['nodes'][j]['label']}")
    for i, j in p["centralizer_pairs"]:
        lines.append(f"  {p['nodes'][i]['label']} ' = "
                     f"{p['nodes'][j]['label']}")
    return "\n".join(lines)


def _dot_lattice(p: dict) -> str:
    lines = ["digraph subcats {", "  rankdir=BT;"]
    for k, n in enumerate(p["nodes"]):
        lines.append(f'  n{k} [label="{n["label"]} fpdim={n["fpdim"]}"];')
    for i, j in p["covers"]:
        lines.append(f"  n{i} -> n{j};")
    for i, j in p["centralizer_pairs"]:
        lines.append(f"  n{i} -> n{j} [color=red, dir=none];")
    lines.append("}")
    return "\n".join(lines)


# --- command handlers -----------------------------------------------------


def _cache(args) -> ResultCache:
    """The cache at --cache, or at the default directory without it."""
    return ResultCache(args.cache or None)


def _cached(args, G: Group, topic: str, compute, shape, name: dict) -> dict:
    """The payload of topic for G: read from the cache, or computed and
    stored on a miss.  The key is G's Cayley table, which groups of other
    names share (A3 and Z3, S2 and Z2), so the name fields are set from
    name, the requested group's, not read from the entry."""
    payload = _cache(args).get_or_compute(cache_key(G, topic), compute, shape)
    return {**payload, **name}


def _cmd_group(args, G: Group) -> int:
    _show(args, _group_info_payload(G), _text_group_info)
    return 0


def _cmd_chartab(args, G: Group) -> int:
    payload = _cached(args, G, "chartab", lambda: _chartab_payload(G),
                      _chartab_fits(G), {"group": G.name})
    _show(args, payload, _text_chartab)
    return 0


def _cmd_double(args, G: Group) -> int:
    if args.action == "smatrix":
        payload = _cached(args, G, "smatrix",
                          lambda: _smatrix_payload(_double(G)),
                          _smatrix_fits(G), {"algebra": double_name(G)})
        _show(args, payload, _text_smatrix)
        return 0
    A = _double(G)
    if args.action == "irreps":
        _show(args, _irreps_payload(A), lambda p: _text_irreps(A.name, p))
    else:
        _show(args, _fusion_payload(A), _text_fusion)
    return 0


def _cmd_coideals(args, G: Group) -> int:
    from .coideal import enumerate_coideals, triple_coideal
    A = _double(G)
    if args.triple:
        chosen = [triple_coideal(A, *parse_triple(A.group, args.triple))]
    else:
        chosen = enumerate_coideals(A)
    payload = [_coideal_payload(L, args.action == "integral") for L in chosen]
    _show(args, payload, lambda p: _text_coideals(A.name, p))
    return 0


def _cmd_subcats(args, G: Group) -> int:
    payload = _cached(args, G, "lattice", lambda: _lattice_payload(_double(G)),
                      _lattice_fits, {"algebra": double_name(G)})
    if args.action == "list":
        _show(args, payload["nodes"],
              lambda nodes: _text_subcats(payload["algebra"], nodes))
    else:
        _show(args, payload,
              _dot_lattice if args.format == "dot" else _text_lattice)
    return 0


def _cmd_centralizer(args, G: Group) -> int:
    from .fusion import centralizer, enumerate_subcats, subcat_from_triple
    A = _double(G)
    if args.triple:
        targets = [subcat_from_triple(A, *parse_triple(A.group, args.triple))]
    elif args.all_subcats:
        targets = enumerate_subcats(A)
    else:
        raise ParseError("centralizer needs --triple or --all")
    methods = (("smatrix", "phi", "classes") if args.method == "all"
               else (args.method,))
    records = []
    for D in targets:
        results = {m: centralizer(A, D, m) for m in methods}
        indices = {tuple(r.indices) for r in results.values()}
        records.append({"subject": D.label(),
                        "methods": {m: r.label() for m, r in results.items()},
                        "agree": len(indices) == 1,
                        "indices": sorted(list(i) for i in indices)})
    _show(args, records, _text_centralizer)
    return 0 if all(rec["agree"] for rec in records) else 1


def _cmd_verify(args, G: Group) -> int:
    from .verify import summarize, verify_identities
    report = verify_identities(_double(G), args.suite)
    _show(args, report, summarize)
    return 0 if all(c["pass"] for c in report["checks"]) else 1


_HANDLERS = {
    "group": _cmd_group,
    "chartab": _cmd_chartab,
    "double": _cmd_double,
    "coideals": _cmd_coideals,
    "subcats": _cmd_subcats,
    "centralizer": _cmd_centralizer,
    "verify": _cmd_verify,
}

_ON_DOUBLE = ("double", "coideals", "subcats", "centralizer", "verify")
_USAGE_ERRORS = (ParseError, PreconditionViolated, MethodPreconditionViolated)


def run(argv) -> int:
    """Parse argv, check --max-dim, parse --group and bound its double,
    each once and before any cache read or build; then run the handler."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not 1 <= args.max_dim <= DOUBLE_DIM_BOUND:
            raise ParseError("max algebra dimension must be between 1 and "
                             f"{DOUBLE_DIM_BOUND}")
        if args.format == "dot" and getattr(args, "action", "") != "lattice":
            raise ParseError("--format dot is for subcats lattice only")
        if args.command == "cache":
            print(f"removed {_cache(args).purge()} cache entries")
            return 0
        if not args.group:
            raise ParseError("missing --group")
        G = parse_group_spec(args.group)
        if args.command in _ON_DOUBLE:
            check_double_dim(G, args.max_dim)
        return _HANDLERS[args.command](args, G)
    except HopfcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BoundExceeded):
            return 3
        return 2 if isinstance(exc, _USAGE_ERRORS) else 1


def main() -> int:
    try:
        rc = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): not a failure of the
        # command; stdout goes to devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    return rc


if __name__ == "__main__":
    sys.exit(main())
