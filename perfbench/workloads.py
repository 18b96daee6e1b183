"""Instance documents for the benchmark, generated here as plain JSON.

The generators use only the public document format (the one
``gglab builtin NAME --emit`` prints), never gglab's own builders, so a
refactor of ``gglab.instances`` cannot change what the benchmark feeds
the program.  The ``builtins`` workload rebuilds the five shipped
builtins this way, and the benchmark checks that each one matches
``gglab builtin NAME --emit`` byte for byte before it measures anything.

Each workload is a fixed list of documents.  The seed sets the order in
which every pass visits them, so any two seeds do the same work and their
timings can be compared.
"""

from __future__ import annotations

import json

KLEIN = ["e", "a", "b", "c"]
KLEIN_TABLE = {
    ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b", ("e", "c"): "c",
    ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "c", ("a", "c"): "b",
    ("b", "e"): "b", ("b", "a"): "c", ("b", "b"): "e", ("b", "c"): "a",
    ("c", "e"): "c", ("c", "a"): "b", ("c", "b"): "a", ("c", "c"): "e",
}


def emit(doc: dict) -> str:
    """The canonical text of a document, as ``gglab builtin --emit`` prints it."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# -- M_2(F_p) with the Klein four group acting by conjugation -----------------


def _m2_structure() -> list:
    """Structure constants of M_2 in the basis E11, E12, E21, E22."""
    return [
        [2 * a + b, 2 * c + d, 2 * a + d, 1]
        for a in range(2)
        for b in range(2)
        for c in range(2)
        for d in range(2)
        if b == c
    ]


def _mat2_mul(x, y, p):
    return [
        (x[0] * y[0] + x[1] * y[2]) % p,
        (x[0] * y[1] + x[1] * y[3]) % p,
        (x[2] * y[0] + x[3] * y[2]) % p,
        (x[2] * y[1] + x[3] * y[3]) % p,
    ]


def _conjugation(u, p) -> list:
    """Matrix of x -> u x u^-1 on column vectors in the basis E11..E22."""
    det = (u[0] * u[3] - u[1] * u[2]) % p
    dinv = pow(det, p - 2, p)
    uinv = [u[3] * dinv % p, -u[1] * dinv % p, -u[2] * dinv % p, u[0] * dinv % p]
    cols = []
    for j in range(4):
        unit = [0, 0, 0, 0]
        unit[j] = 1
        cols.append(_mat2_mul(_mat2_mul(u, unit, p), uinv, p))
    return [[cols[j][i] for j in range(4)] for i in range(4)]


def klein_m2(p: int) -> dict:
    """Klein four group acting on M_2(F_p), p odd, by conjugation with
    diag(1,-1), the swap and their product."""
    reps = {"e": [1, 0, 0, 1], "a": [1, 0, 0, p - 1], "b": [0, 1, 1, 0], "c": [0, 1, p - 1, 0]}
    return {
        "meta": {
            "name": f"klein_m2f{p}",
            "flags": {
                "galois_expected": True,
                "central_galois_expected": True,
                "hirata_expected": True,
            },
        },
        "field": {"kind": "Fp", "p": p},
        "groupoid": {
            "arrows": list(KLEIN),
            "compose": [[KLEIN_TABLE[(a, b)] for b in KLEIN] for a in KLEIN],
            "inverse": list(KLEIN),
            "identities": ["e"],
        },
        "algebra": {
            "basis": ["E11", "E12", "E21", "E22"],
            "structure": _m2_structure(),
            "unit": [1, 0, 0, 1],
        },
        "action": {
            "idempotents": {"e": [1, 0, 0, 1]},
            "maps": {nm: _conjugation(reps[nm], p) for nm in KLEIN},
        },
    }


def trivial() -> dict:
    return {
        "meta": {
            "name": "trivial",
            "flags": {"galois_expected": True, "central_galois_expected": True},
        },
        "field": {"kind": "Fp", "p": 5},
        "groupoid": {"arrows": ["e"], "compose": [["e"]], "inverse": ["e"], "identities": ["e"]},
        "algebra": {"basis": ["1"], "structure": [[0, 0, 0, 1]], "unit": [1]},
        "action": {"idempotents": {"e": [1]}, "maps": {"e": [[1]]}},
        "coordinates": [[[1], [1]]],
    }


# -- two small Galois actions and their disjoint unions -----------------------


def pair(field: dict) -> dict:
    """The pair groupoid on two objects swapping the two idempotents of F x F."""
    und = None
    return {
        "meta": {"name": "pair", "flags": {"galois_expected": True}},
        "field": field,
        "groupoid": {
            "arrows": ["e1", "e2", "t", "s"],
            "compose": [
                ["e1", und, und, "s"],
                [und, "e2", "t", und],
                ["t", und, und, "e2"],
                [und, "s", "e1", und],
            ],
            "inverse": ["e1", "e2", "s", "t"],
            "identities": ["e1", "e2"],
        },
        "algebra": {
            "basis": ["u1", "u2"],
            "structure": [[0, 0, 0, 1], [1, 1, 1, 1]],
            "unit": [1, 1],
        },
        "action": {
            "idempotents": {"e1": [1, 0], "e2": [0, 1]},
            "maps": {
                "e1": [[1, 0], [0, 0]],
                "e2": [[0, 0], [0, 1]],
                "t": [[0, 0], [1, 0]],
                "s": [[0, 1], [0, 0]],
            },
        },
        "coordinates": [[[1, 0], [1, 0]], [[0, 1], [0, 1]]],
    }


def cyclic_shift(field: dict) -> dict:
    """C_3 cyclically permuting the idempotents of F^3."""
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return {
        "meta": {"name": "cyclic_shift", "flags": {"galois_expected": True}},
        "field": field,
        "groupoid": {
            "arrows": ["e", "g", "g2"],
            "compose": [["e", "g", "g2"], ["g", "g2", "e"], ["g2", "e", "g"]],
            "inverse": ["e", "g2", "g"],
            "identities": ["e"],
        },
        "algebra": {
            "basis": ["d0", "d1", "d2"],
            "structure": [[0, 0, 0, 1], [1, 1, 1, 1], [2, 2, 2, 1]],
            "unit": [1, 1, 1],
        },
        "action": {
            "idempotents": {"e": [1, 1, 1]},
            "maps": {
                "e": eye,
                "g": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                "g2": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            },
        },
        "coordinates": [[row, row] for row in eye],
    }


def disjoint_union(parts: list[dict], name: str) -> dict:
    """The instances in ``parts`` side by side, each acting on its own block.

    Part i (from 1) renames arrow ``a`` to ``a{i}`` and basis label ``x``
    to ``x.{i}``; a single part keeps its names.  Galois coordinates, when
    every part has them, are carried over block by block.
    """
    if len(parts) == 1:
        out = json.loads(json.dumps(parts[0]))
        out["meta"]["name"] = name
        return out
    sizes = [len(d["algebra"]["basis"]) for d in parts]
    offsets = [sum(sizes[:i]) for i in range(len(parts))]
    total = sum(sizes)

    def arrow(a, i):
        return None if a is None else f"{a}{i + 1}"

    def block(vec, i):
        return [0] * offsets[i] + list(vec) + [0] * (total - offsets[i] - sizes[i])

    def each(section, key):
        return [(i, v) for i, d in enumerate(parts) for v in d[section][key]]

    compose = []
    for i, d in enumerate(parts):
        for row in d["groupoid"]["compose"]:
            cells = []
            for j, e in enumerate(parts):
                cells += [arrow(v, i) for v in row] if i == j else [None] * len(e["groupoid"]["arrows"])
            compose.append(cells)
    entries = [d["algebra"]["structure"] for d in parts]
    if all(e == entries[0] for e in entries):
        # copies of one instance: entry by entry, as the shipped klein_disjoint2 lists them
        order = [(i, e) for e in entries[0] for i in range(len(parts))]
    else:
        order = [(i, e) for i in range(len(parts)) for e in entries[i]]
    structure = [[a + offsets[i], b + offsets[i], c + offsets[i], coeff] for i, (a, b, c, coeff) in order]
    maps = {}
    for i, d in enumerate(parts):
        n, o = sizes[i], offsets[i]
        for nm, mat in d["action"]["maps"].items():
            rows = [[0] * total for _ in range(total)]
            for r in range(n):
                rows[o + r] = block(mat[r], i)
            maps[arrow(nm, i)] = rows
    flags = [d["meta"]["flags"] for d in parts]
    out = {
        "meta": {"name": name, "flags": {k: v for k, v in flags[0].items() if all(f.get(k) == v for f in flags)}},
        "field": dict(parts[0]["field"]),
        "groupoid": {
            "arrows": [arrow(a, i) for i, a in each("groupoid", "arrows")],
            "compose": compose,
            "inverse": [arrow(a, i) for i, a in each("groupoid", "inverse")],
            "identities": [arrow(a, i) for i, a in each("groupoid", "identities")],
        },
        "algebra": {
            "basis": [f"{lbl}.{i + 1}" for i, lbl in each("algebra", "basis")],
            "structure": structure,
            "unit": [v for _, v in each("algebra", "unit")],
        },
        "action": {
            "idempotents": {
                arrow(nm, i): block(vec, i) for i, d in enumerate(parts) for nm, vec in d["action"]["idempotents"].items()
            },
            "maps": maps,
        },
    }
    if all("coordinates" in d for d in parts):
        out["coordinates"] = [
            [block(x, i), block(y, i)] for i, d in enumerate(parts) for x, y in d["coordinates"]
        ]
    if len(set(out["groupoid"]["arrows"])) != len(out["groupoid"]["arrows"]):
        raise ValueError(f"{name}: renamed arrows collide")
    return out


# -- workloads -----------------------------------------------------------------

FP5 = {"kind": "Fp", "p": 5}
Q = {"kind": "Q"}
# The subalgebra walk grows as p^2.  On a 2-vCPU Xeon (2.1 GHz) an op takes
# about 0.13 s at p = 5, 0.47 s at 11, 1.0 s at 17 and 2.1 s at 23; larger p,
# or more primes, would make the eleven passes a run needs too long.
KLEIN_PRIMES = (5, 11, 17)


def _builtins() -> list[dict]:
    return [
        trivial(),
        disjoint_union([pair(FP5)], "pair_f5"),
        klein_m2(3),
        disjoint_union([klein_m2(3)] * 2, "klein_disjoint2"),
        disjoint_union([cyclic_shift(FP5)], "cyclic_shift_c3"),
    ]


def _klein_p() -> list[dict]:
    return [klein_m2(p) for p in KLEIN_PRIMES]


def _objects() -> list[dict]:
    # four copies of pair_f5 take 8 s an op on the host named above
    return [
        disjoint_union([pair(FP5)] * 2, "pair_f5x2"),
        disjoint_union([pair(FP5)] * 3, "pair_f5x3"),
        disjoint_union([cyclic_shift(FP5)] * 2, "cyclic_shift_c3x2"),
        disjoint_union([cyclic_shift(FP5)] * 3, "cyclic_shift_c3x3"),
        disjoint_union([pair(FP5), cyclic_shift(FP5)], "pair_f5+cyclic_shift_c3"),
    ]


def _rational() -> list[dict]:
    # two copies of cyclic_shift_c3 over Q take 23 s an op on the host named above
    return [
        disjoint_union([pair(Q)], "pair_q"),
        disjoint_union([cyclic_shift(Q)], "cyclic_shift_c3_q"),
        disjoint_union([pair(Q)] * 2, "pair_qx2"),
    ]


WORKLOADS = {
    "builtins": _builtins,
    "klein_p": _klein_p,
    "objects": _objects,
    "rational": _rational,
}

def documents(workload: str) -> dict[str, str]:
    """Document name -> canonical JSON text."""
    return {doc["meta"]["name"]: emit(doc) for doc in WORKLOADS[workload]()}
