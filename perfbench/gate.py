"""Correctness gate: what each cell produced, and whether it is right.

An outcome is the parsed content of a cell's result, never its bytes, so
a new key in an artifact does not count as a change:

- cycle, wheel, gear: the plane model and graph of the artifact, a digest
  of its vertex images, and for wheels and gears the route tag printed on
  stdout;
- oracle: the search status, and for a found embedding its model and
  graph.  The vertex images of a found embedding are not pinned, because
  the order in which the search tries candidates is not part of its
  contract;
- hypj sweep: the number of certificate rows, a digest of the parsed rows
  and the summary line.

``reverify`` reads an embedding artifact back and checks it against a
freshly built plane with the package's own verifier.
"""

from __future__ import annotations

import hashlib
import json
import re

_ROUTE = re.compile(r" via (\S+) -> ")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()).hexdigest()[:20]


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:20]


def _embedding_outcome(doc: dict) -> dict:
    return {"model": doc["plane"]["model"], "q": doc["plane"]["q"], "graph": doc["graph"]}


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def outcome(key: str, rc, stdout: str, out_path: str) -> dict:
    """The parsed outcome of one cell; ``key`` is its argv without the output path."""
    cmd = key.split()[0]
    res = {"rc": rc}
    if rc != 0:
        return res
    if cmd in ("cycle", "wheel", "gear"):
        doc = _load(out_path)
        res.update(_embedding_outcome(doc), images=digest(sorted(doc["vertices"])))
        if cmd != "cycle":
            m = _ROUTE.search(stdout)
            res["route"] = m.group(1) if m else None
    elif cmd == "oracle":
        res["status"] = json.loads(stdout.strip().splitlines()[-1])["status"]
        if res["status"] == "found":
            res.update(_embedding_outcome(_load(out_path)))
    elif cmd == "hypj":
        with open(out_path) as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        res.update(certs=len(rows), rows=digest(rows), summary=stdout.strip().splitlines()[-1])
    return res


def requested_graph(key: str) -> tuple:
    """(kind, parameter, q) of the embedding a cell asks for."""
    argv = key.split()
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "cycle":
        return "CYCLE", int(opts["--k"]), int(opts["--q"])
    if argv[0] in ("wheel", "gear"):
        return argv[0].upper(), int(opts["--n"]), int(opts["--q"])
    kind, n = opts["--graph"].split(":")
    return kind.upper(), int(n), int(opts["--plane"].split(":")[1])


def reverify(key: str, path: str):
    """None when the artifact re-verifies as the embedding the cell asked for, else why not."""
    from planegraphs.cycles import cyclic_plane
    from planegraphs.graphs import read_embedding, verify_embedding
    from planegraphs.plane import ag_from_field, pg_from_field

    emb = read_embedding(path)
    kind, n, q = requested_graph(key)
    if (emb.graph.kind, emb.graph.param, emb.q) != (kind, n, q):
        return f"artifact holds {emb.graph.kind} {emb.graph.param} over q={emb.q}"
    plane = {"AG": ag_from_field, "PG": pg_from_field, "CYCLIC": cyclic_plane}[emb.model](emb.q)
    rep = verify_embedding(emb.graph, emb, plane)
    return None if rep.ok else f"verifier: {rep.violations[:3]}"
