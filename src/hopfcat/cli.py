"""Command line front end.

Subcommands: group info, chartab, double irreps|smatrix|fusion,
coideals list|integral, subcats list|lattice, centralizer, verify,
cache purge.  Exit codes: 0 success, 1 failed check, 2 usage error,
3 size bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

# A call answered from the cache needs only parsing, the cache and
# rendering, so only those modules are imported here; the algebra
# modules (chartab, hopf, coideal, fusion, verify) are imported by the
# code that computes a payload, and cyclo by the text renderers, so a
# warm JSON call never compiles them.
from .cache import ResultCache, cache_key, default_cache_dir, fits
from .errors import (BoundExceeded, HopfcatError, ParseError,
                     PreconditionViolated, MethodPreconditionViolated)
from .groups import (DOUBLE_DIM_BOUND, Group, center_subgroup,
                     check_double_dim, double_name, normal_subgroups,
                     parse_group_spec, subgroup_generated)


@dataclass
class RunConfig:
    group_spec: str = ""
    max_algebra_dim: int = DOUBLE_DIM_BOUND
    cache_dir: Path = field(default_factory=default_cache_dir)
    output_format: str = "text"
    suite: str = "full"

    def __post_init__(self):
        if not 1 <= self.max_algebra_dim <= DOUBLE_DIM_BOUND:
            raise ValueError("max algebra dimension must be between 1 and "
                             f"{DOUBLE_DIM_BOUND}")
        if self.suite not in ("smoke", "full"):
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.output_format not in ("text", "json", "dot"):
            raise ValueError(f"unknown format {self.output_format!r}")


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
    common.add_argument("--suite", default="full", choices=("smoke", "full"))

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

    sub.add_parser("verify", parents=[common],
                   help="run the identity suite on the double")

    sp = sub.add_parser("cache", parents=[common], help="cache maintenance")
    sp.add_argument("action", choices=("purge",))
    return p


def _config(args) -> RunConfig:
    return RunConfig(
        group_spec=args.group,
        max_algebra_dim=args.max_dim,
        cache_dir=Path(args.cache) if args.cache else default_cache_dir(),
        output_format=args.format,
        suite=args.suite)


def _need_group(cfg: RunConfig) -> Group:
    if not cfg.group_spec:
        raise ParseError("missing --group")
    return parse_group_spec(cfg.group_spec)


def _build(cfg: RunConfig, G: Group | None = None):
    from .hopf import build_double
    if G is None:
        G = _need_group(cfg)
    return build_double(G, max_dim=cfg.max_algebra_dim)


def _bounded_group(cfg: RunConfig) -> Group:
    """The group, once its double is known to fit the bound: checked
    before the cache is read, so a warm cache refuses it the same way."""
    G = _need_group(cfg)
    check_double_dim(G, cfg.max_algebra_dim)
    return G


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
    from .fusion import centralizer, enumerate_subcats
    subs = enumerate_subcats(A)
    sets = [set(D.indices) for D in subs]
    covers = []
    for i, si in enumerate(sets):
        for j, sj in enumerate(sets):
            if si < sj and not any(si < sets[k] < sj
                                   for k in range(len(sets))):
                covers.append([i, j])
    inv = []
    for i, D in enumerate(subs):
        c = centralizer(A, D, "smatrix")
        j = next(k for k, E in enumerate(subs) if E.indices == c.indices)
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


def _cmd_group(cfg: RunConfig, args) -> int:
    payload = _group_info_payload(_need_group(cfg))
    print(_emit_json(payload) if cfg.output_format == "json"
          else _text_group_info(payload))
    return 0


def _cmd_chartab(cfg: RunConfig, args) -> int:
    G = _need_group(cfg)
    cache = ResultCache(cfg.cache_dir)
    payload = cache.get_or_compute(
        cache_key(G, "chartab"), lambda: _chartab_payload(G),
        _chartab_fits(G))
    print(_emit_json(payload) if cfg.output_format == "json"
          else _text_chartab(payload))
    return 0


def _cmd_double(cfg: RunConfig, args) -> int:
    if args.action == "smatrix":
        G = _bounded_group(cfg)
        cache = ResultCache(cfg.cache_dir)
        payload = cache.get_or_compute(
            cache_key(G, "smatrix"), lambda: _smatrix_payload(_build(cfg, G)),
            _smatrix_fits(G))
        print(_emit_json(payload) if cfg.output_format == "json"
              else _text_smatrix(payload))
        return 0
    A = _build(cfg)
    if args.action == "irreps":
        payload = _irreps_payload(A)
        if cfg.output_format == "json":
            print(_emit_json(payload))
        else:
            print(f"simple modules of {A.name}")
            for rec in payload:
                print(f"  {rec['label']}  dim {rec['dim']}  "
                      f"(class of {rec['class_representative']})")
    else:
        payload = _fusion_payload(A)
        print(_emit_json(payload) if cfg.output_format == "json"
              else _text_fusion(payload))
    return 0


def _cmd_coideals(cfg: RunConfig, args) -> int:
    from .coideal import enumerate_coideals, triple_coideal
    A = _build(cfg)
    with_integral = args.action == "integral"
    if args.triple:
        M, H, bc = parse_triple(A.group, args.triple)
        chosen = [triple_coideal(A, M, H, bc)]
    else:
        chosen = enumerate_coideals(A)
    payload = [_coideal_payload(L, with_integral) for L in chosen]
    if cfg.output_format == "json":
        print(_emit_json(payload))
    else:
        print(f"coideal subalgebras of {A.name}: {len(payload)}")
        for rec in payload:
            print(f"  {rec['label']}  dim {rec['dim']}")
            if with_integral:
                terms = ", ".join(f"[{k}] {_text_cell(v)}"
                                  for k, v in rec["integral"].items())
                print(f"    integral: {terms}")
    return 0


def _cmd_subcats(cfg: RunConfig, args) -> int:
    G = _bounded_group(cfg)
    cache = ResultCache(cfg.cache_dir)
    payload = cache.get_or_compute(
        cache_key(G, "lattice"), lambda: _lattice_payload(_build(cfg, G)),
        _lattice_fits)
    if args.action == "list":
        nodes = payload["nodes"]
        if cfg.output_format == "json":
            print(_emit_json(nodes))
        else:
            print(f"fusion subcategories of {double_name(G)}: {len(nodes)}")
            for n in nodes:
                print(f"  {n['label']}  fpdim={n['fpdim']}  "
                      f"simples {n['indices']}")
    else:
        if cfg.output_format == "dot":
            print(_dot_lattice(payload))
        elif cfg.output_format == "json":
            print(_emit_json(payload))
        else:
            print(_text_lattice(payload))
    return 0


def _cmd_centralizer(cfg: RunConfig, args) -> int:
    from .fusion import centralizer, enumerate_subcats, subcat_from_triple
    A = _build(cfg)
    if args.triple:
        M, H, bc = parse_triple(A.group, args.triple)
        targets = [subcat_from_triple(A, M, H, bc)]
    elif args.all_subcats:
        targets = enumerate_subcats(A)
    else:
        raise ParseError("centralizer needs --triple or --all")
    methods = (("smatrix", "phi", "classes") if args.method == "all"
               else (args.method,))
    records = []
    agree = True
    for D in targets:
        results = {m: centralizer(A, D, m) for m in methods}
        labels = {m: r.label() for m, r in results.items()}
        indices = {tuple(r.indices) for r in results.values()}
        same = len(indices) == 1
        agree = agree and same
        records.append({"subject": D.label(),
                        "methods": labels,
                        "agree": same,
                        "indices": sorted(list(i) for i in indices)})
    if cfg.output_format == "json":
        print(_emit_json(records))
    else:
        for rec in records:
            mark = "ok " if rec["agree"] else "FAIL"
            shown = ", ".join(f"{m}: {l}" for m, l in rec["methods"].items())
            print(f"{mark} {rec['subject']}' -> {shown}")
    return 0 if agree else 1


def _cmd_verify(cfg: RunConfig, args) -> int:
    from .verify import summarize, verify_identities
    G = _need_group(cfg)
    if G.n * G.n > cfg.max_algebra_dim:
        report = {"group": G.name, "algebra": double_name(G),
                  "suite": cfg.suite,
                  "checks": [{"id": "algebra-build", "subject": G.name,
                              "pass": True, "detail": "skipped: dim bound"}]}
    else:
        report = verify_identities(_build(cfg, G), cfg.suite)
    ok = all(c["pass"] for c in report["checks"])
    print(_emit_json(report) if cfg.output_format == "json"
          else summarize(report))
    return 0 if ok else 1


def _cmd_cache(cfg: RunConfig, args) -> int:
    removed = ResultCache(cfg.cache_dir).purge()
    print(f"removed {removed} cache entries")
    return 0


_HANDLERS = {
    "group": _cmd_group,
    "chartab": _cmd_chartab,
    "double": _cmd_double,
    "coideals": _cmd_coideals,
    "subcats": _cmd_subcats,
    "centralizer": _cmd_centralizer,
    "verify": _cmd_verify,
    "cache": _cmd_cache,
}


def run(argv) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](cfg, args)
    except (ParseError, PreconditionViolated,
            MethodPreconditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HopfcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


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
