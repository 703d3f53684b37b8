"""Command line front end.

Subcommands: field, plane, cycle, wheel, gear, oracle, verify, hypj.
Artifacts (plane files, embedding files, certificate streams) go to files;
stdout carries summary lines only.  Exit codes: 0 success; 1 when a checked
file fails its check, or in ``main`` for ConstructionFailed and NoCertificate;
2 for a usage error, in ``main`` for any ValueError (refused input) or OSError
(an unusable path, such as an output file in a missing directory).  Any
other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

from .cycles import NoCertificate, ag_cycle, pg_cycle, plane_for
from .gf import (
    MAX_ORDER,
    certificate_line,
    field_for,
    first_primitive,
    hypothesis_j_search,
    is_prime,
    prime_powers_in,
)
from .graphs import (
    ConstructionFailed,
    FormatError,
    cycle_graph,
    declared_size,
    gear_graph,
    graph_from_json,
    read_embedding,
    verify_embedding,
    wheel_graph,
    write_embedding,
)
from .oracle import DEFAULT_BUDGET, STATUS_NOTFOUND, OracleResult, exists_embedding
from .plane import check_plane_axioms, line_faults, load_plane, save_plane
from .wheelgear import gear_plan, wheel_plan


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _fail(msg: str) -> int:
    print(f"fail: {msg}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# field


def _cmd_field(args) -> int:
    spec = field_for(args.q)
    doc = {
        "q": spec.q,
        "p": spec.p,
        "a": spec.a,
        "modulus": list(spec.modulus),
        "first_primitive": first_primitive(spec),
    }
    print(json.dumps(doc, separators=(",", ":")))
    return 0


# ---------------------------------------------------------------------------
# plane


def _cmd_plane(args) -> int:
    if args.mode == "export":
        if args.q is None or args.out is None:
            return _usage_error("plane export needs --q and --out")
        plane = plane_for(args.model.upper(), args.q).to_generic()
        save_plane(plane, args.out)
        print(f"{args.model}:{args.q} -> {args.out} "
              f"({plane.n_points} points, {len(plane.lines)} lines)")
        return 0
    if not args.file:  # the check mode
        return _usage_error("plane check needs a file argument")
    try:
        plane = load_plane(args.file)
    except (FormatError, OSError) as e:
        return _usage_error(f"cannot read plane: {e}")
    rep = check_plane_axioms(plane)
    status = "pass" if rep.ok else "fail"
    print(f"{status}: {rep.points} points, {rep.lines} lines, "
          f"line size {rep.line_size}, {len(rep.violations)} violations")
    for v in rep.violations[:10]:
        print(f"  {v}")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# cycle


def _cmd_cycle(args) -> int:
    field_for(args.q)  # refuses a bad order before the sweep makes its directory
    q, build = args.q, ag_cycle if args.plane == "ag" else pg_cycle
    if args.mode == "sweep":
        ks = range(3, plane_for(args.plane.upper(), q).n_points + 1)
        top = build(q, ks[-1])  # first: PG's top rung needs GF(q^3), refused for q >= 103
        out_dir = args.out_dir or f"cycle_sweep_{args.plane}_q{q}"
        os.makedirs(out_dir, exist_ok=True)
        for k in ks:  # ``emit`` has checked that C_k has k vertex images
            emb = top if k == ks[-1] else build(q, k)
            write_embedding(emb, os.path.join(out_dir, f"c{k}.json"))
        print("".join(f"{k:5d} {k:5d} verified\n" for k in ks), end="")
        print(f"{len(ks)} cycles -> {out_dir}")
        return 0
    if args.k is None:
        return _usage_error("cycle needs --k (or the sweep mode)")
    out = args.out or f"cycle_{args.plane}_q{q}_k{args.k}.json"
    write_embedding(build(q, args.k), out)  # built before the file is opened
    print(f"C_{args.k} in {args.plane}:{q} verified -> {out}")
    return 0


# ---------------------------------------------------------------------------
# wheel / gear


def _cmd_plan(args) -> int:  # ``wheel`` and ``gear``; the wheel parser has no mode
    if args.mode == "sweep":
        return _gear_sweep(args)
    if args.q is None or args.n is None:  # only gear's --q and --n are optional
        return _usage_error("gear needs --q and --n (or the sweep mode)")
    plan = (wheel_plan if args.command == "wheel" else gear_plan)(args.q, args.n)
    out = args.out or f"{args.command}_q{args.q}_n{args.n}.json"
    write_embedding(plan.embedding, out)
    print(f"{args.command[0].upper()}_{args.n} in pg:{args.q} via {plan.route} -> {out}")
    return 0


def _gear_sweep(args) -> int:
    q_max = args.q_max
    if q_max > MAX_ORDER:
        return _usage_error(f"--q-max {q_max} exceeds supported bound {MAX_ORDER}")
    with open(args.out, "w") if args.out else nullcontext() as fh:  # before the sweep
        ns = range(3, q_max + 2)
        lines = ["   q " + " ".join(f"{n:>10d}" for n in ns)]  # 10 = len("impossible")
        for q in prime_powers_in(2, q_max):
            cells = []
            for n in ns:
                if n > q + 1:
                    cells.append(".")
                    continue
                try:
                    cells.append(gear_plan(q, n).route)
                except ConstructionFailed:
                    cells.append("impossible")
            lines.append(f"{q:4d} " + " ".join(f"{c:>10s}" for c in cells))
        text = "\n".join(lines) + "\n"
        print(text, end="")
        if fh:
            fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# oracle / verify


def _parse_graph_ref(ref: str):
    """A graph reference's vertex count and a function that builds the graph,
    so that a kind:N graph, whose cost is linear in N, waits for the plane;
    so does a file's, where ``declared_size`` reads its count unbuilt."""
    if ref.endswith(".json"):
        with open(ref) as fh:
            doc = json.load(fh)
        size = declared_size(doc)
        if size is None:  # built now, or refused in the file's own words
            graph = graph_from_json(doc)
            return graph.n_vertices, lambda: graph
        return size, lambda: graph_from_json(doc)
    kind, _, param = ref.partition(":")
    if not param.isdigit():
        raise ValueError(f"bad graph reference {ref!r} (want kind:n or a .json file)")
    n = int(param)
    kinds = {"cycle": (cycle_graph, n), "wheel": (wheel_graph, n + 1),
             "gear": (gear_graph, 2 * n + 1)}
    if kind not in kinds:
        raise ValueError(f"unknown graph kind {kind!r}")
    builder, size = kinds[kind]
    if n < 3:
        builder(n)  # refuses n in the builder's words, before the plane is read
    return size, lambda: builder(n)


def _load_indexed_plane(path):
    """A plane file the search and the verifier can index, as both look up
    one line per pair: refused at the first stray id, repeated point or pair
    on two lines that ``line_faults`` meets (``plane check`` lists them).
    The projective axioms are not required: an affine plane file passes."""
    plane = load_plane(path)
    for i, kind, x in line_faults(plane):  # a stray, a repeat or a pair
        if kind == "stray":
            raise FormatError(f"plane file {path} line {i} references point {x} "
                              f"outside 0..{plane.n_points - 1}")
        if kind == "repeat":
            raise FormatError(f"plane file {path} line {i} repeats point {x}")
        raise FormatError(f"plane file {path} puts points {x[0][0]},{x[0][1]} on two lines")
    return plane


def _parse_plane_ref(ref: str):
    if ref.endswith(".json"):
        return _load_indexed_plane(ref)
    kind, _, param = ref.partition(":")
    if not param.isdigit():
        raise ValueError(f"bad plane reference {ref!r} (want model:q or a .json file)")
    if kind not in ("pg", "ag", "cyclic"):
        raise ValueError(f"unknown plane model {kind!r}")
    return plane_for(kind.upper(), int(param))


def _cmd_oracle(args) -> int:
    if args.budget < 0:
        return _usage_error(f"--budget {args.budget} is negative")
    size, build = _parse_graph_ref(args.graph)
    plane = _parse_plane_ref(args.plane)
    if size > plane.n_points:  # the search's own answer, without the graph
        res = OracleResult(STATUS_NOTFOUND, None, 0)
    else:
        res = exists_embedding(build(), plane, budget=args.budget)
    doc = {"status": res.status, "expansions": res.expansions}
    if res.status == "found":
        out = args.out or "oracle_embedding.json"
        write_embedding(res.embedding, out)
        doc["out"] = out
    print(json.dumps(doc, separators=(",", ":")))
    return 0


def _cmd_verify(args) -> int:
    try:
        emb = read_embedding(args.file)
    except (FormatError, OSError) as e:
        return _usage_error(f"cannot read embedding: {e}")
    try:
        if emb.model != "GENERIC":
            plane = plane_for(emb.model, emb.q)
        elif args.plane:
            plane = _load_indexed_plane(args.plane)
        else:
            return _usage_error("generic embeddings need --plane pointing at the plane file")
    except (ValueError, OSError) as e:
        # a malformed plane file, or an order no plane of the package has
        return _usage_error(f"cannot read plane: {e}")
    try:
        rep = verify_embedding(emb.graph, emb, plane)
    except ValueError as e:
        return _fail(f"not an embedding in this plane: {e}")
    if rep.ok:
        print(f"pass: {emb.graph.kind} on {emb.model}:{emb.q}, "
              f"{emb.graph.n_vertices} vertices, {len(emb.graph.edges)} lines")
        return 0
    print(f"fail: {len(rep.violations)} violations")
    for v in rep.violations[:10]:
        print(f"  {v}")
    return 1


# ---------------------------------------------------------------------------
# hypj


def _hypj_line(q: int) -> str:
    return certificate_line(q, hypothesis_j_search(q))


def _cmd_hypj(args) -> int:
    if args.mode == "sweep":
        if args.min < 3:
            return _usage_error("sweep needs --min >= 3")
        if args.max > MAX_ORDER:
            return _usage_error(f"--max {args.max} exceeds supported bound {MAX_ORDER}")
        if args.jobs < 1:
            return _usage_error(f"--jobs {args.jobs} is below 1")
        qs = prime_powers_in(args.min, args.max)
        if args.primes_only:
            qs = [q for q in qs if is_prime(q)]
        # the file is opened before the sweep, so that an unusable path costs nothing
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            # the pool forks all its workers at once: no more than cores or chunks
            jobs = min(args.jobs, os.cpu_count() or 1, -(-len(qs) // 64))
            if jobs > 1:
                from concurrent.futures import ProcessPoolExecutor  # no other run pays for it
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    lines = list(pool.map(_hypj_line, qs, chunksize=64))
            else:
                lines = [_hypj_line(q) for q in qs]
            fh.write("".join(line + "\n" for line in lines))
        certified = sum(1 for l in lines if '"NOT_FOUND"' not in l)
        missing = [q for q, l in zip(qs, lines) if '"NOT_FOUND"' in l]
        print(f"{len(qs)} prime powers, {certified} certificates, "
              f"not found: {missing if missing else 'none'}")
        return 0
    if args.q is None:
        return _usage_error("hypj needs --q (or the sweep mode)")
    print(_hypj_line(args.q))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache  # built on the first call, not at import; parse_args returns a new Namespace
def build_parser():
    """The top parser, and each command's parser by its name."""
    top = argparse.ArgumentParser(prog="planegraphs")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="finite field reports")
    p.add_argument("mode", choices=["info"])
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("plane", help="export or check plane files")
    p.add_argument("mode", choices=["export", "check"])
    p.add_argument("file", nargs="?", help="plane file (check mode)")
    p.add_argument("--q", type=int)
    p.add_argument("--model", choices=["pg", "ag"], default="pg")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plane)

    p = sub.add_parser("cycle", help="build cycle embeddings")
    p.add_argument("mode", nargs="?", choices=["sweep"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--plane", choices=["ag", "pg"], default="ag")
    p.add_argument("--out")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("wheel", help="build a wheel embedding")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan, mode=None)

    p = sub.add_parser("gear", help="build gear embeddings")
    p.add_argument("mode", nargs="?", choices=["sweep"])
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--q-max", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("oracle", help="exhaustive embedding search")
    p.add_argument("--graph", required=True, help="cycle:K | wheel:N | gear:N | file.json")
    p.add_argument("--plane", required=True, help="pg:Q | ag:Q | cyclic:Q | file.json")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="re-verify an embedding file")
    p.add_argument("file")
    p.add_argument("--plane", help="plane file for generic embeddings")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hypj", help="primitive-pair certificates")
    p.add_argument("mode", nargs="?", choices=["sweep"])
    p.add_argument("--q", type=int)
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--max", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--primes-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hypj)

    return top, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    top, commands = build_parser()
    if argv and argv[0] in commands:  # the command's own parser alone
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:  # --help, a missing command or an unknown one
        args = top.parse_args(argv)
    try:
        return args.func(args)
    except (NoCertificate, ConstructionFailed) as e:
        return _fail(str(e))
    except (ValueError, OSError) as e:  # FormatError and ImpossibleDegree included
        return _usage_error(str(e))


if __name__ == "__main__":
    sys.exit(main())
