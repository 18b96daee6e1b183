"""Instance file I/O and the builtin example generators.

An instance is one JSON document with sections field / groupoid /
algebra / action plus optional coordinates, subalgebra seeds and meta
flags.  Field elements serialize as integers (F_p, canonical 0..p-1) or
"num/den" strings (rationals).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import linalg
from .action import Action, validate_action
from .algebra import Algebra, validate_algebra
from .fields import Field, FieldError
from .galois import GaloisCoordinates
from .groupoid import Groupoid, validate_groupoid
from .linalg import Subspace


class InstanceError(ValueError):
    pass


@dataclass
class Instance:
    name: str
    field: Field
    groupoid: Groupoid
    algebra: Algebra
    action: Action
    coordinates: GaloisCoordinates | None = None
    subalgebra_seeds: list[tuple[str, list[np.ndarray]]] = dc_field(default_factory=list)
    flags: dict = dc_field(default_factory=dict)


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise InstanceError(f"missing {key!r} in {where}")
    return doc[key]


def load_instance_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    meta = doc.get("meta", {})
    name = meta.get("name", "unnamed")
    flags = dict(meta.get("flags", {}))

    try:
        f = Field.from_json(_need(doc, "field", "instance"))
    except FieldError as e:
        raise InstanceError(f"field: {e}") from e

    gsec = _need(doc, "groupoid", "instance")
    arrows = _need(gsec, "arrows", "groupoid")
    idx = {a: i for i, a in enumerate(arrows)}

    def arrow_index(nm, where):
        if nm not in idx:
            raise InstanceError(f"{where}: unknown arrow {nm!r}")
        return idx[nm]

    rawcomp = _need(gsec, "compose", "groupoid")
    comp = [
        [(-1 if v is None else arrow_index(v, "compose")) for v in row] for row in rawcomp
    ]
    inv = [arrow_index(v, "inverse") for v in _need(gsec, "inverse", "groupoid")]
    g = validate_groupoid(arrows, comp, inv)
    listed = sorted(arrow_index(v, "identities") for v in _need(gsec, "identities", "groupoid"))
    if listed != list(g.identities):
        raise InstanceError(
            f"identity list {sorted(gsec['identities'])} disagrees with the derived "
            f"identities {[arrows[e] for e in g.identities]}"
        )

    asec = _need(doc, "algebra", "instance")
    labels = _need(asec, "basis", "algebra")
    n = len(labels)
    _certify_headroom(f, n, "the algebra")
    table = f.zeros((n, n, n))
    for entry in _need(asec, "structure", "algebra"):
        if len(entry) != 4:
            raise InstanceError(f"structure entry {entry!r} is not [i, j, k, coeff]")
        i, j, k, c = entry
        if not all(0 <= v < n for v in (i, j, k)):
            raise InstanceError(f"structure entry {entry!r} indexes outside the basis")
        table[i, j, k] = f.parse_scalar(c)
    unit = f.vector([f.parse_scalar(v) for v in _need(asec, "unit", "algebra")])
    alg = validate_algebra(f, labels, table, unit)

    actsec = _need(doc, "action", "instance")
    idem = {}
    for nm, vec in _need(actsec, "idempotents", "action").items():
        idem[arrow_index(nm, "idempotents")] = f.vector([f.parse_scalar(v) for v in vec])
    beta = {}
    for nm, mat in _need(actsec, "maps", "action").items():
        beta[arrow_index(nm, "maps")] = f.array(
            [[f.parse_scalar(v) for v in row] for row in mat]
        )
    act = validate_action(g, alg, idem, beta)
    # the skew groupoid ring, sum of E_{r(g)} over all arrows g, is the
    # largest algebra the suite builds (it contains every E_e, so R)
    _certify_headroom(f, sum(act.ideal(a).dim for a in g.arrows()), "the skew groupoid ring")

    coords = None
    if "coordinates" in doc:
        pairs = []
        for xy in doc["coordinates"]:
            if len(xy) != 2:
                raise InstanceError("coordinates entries must be [x, y] vector pairs")
            if len(xy[0]) != alg.dim or len(xy[1]) != alg.dim:
                raise InstanceError(
                    f"coordinates vectors must have length {alg.dim}"
                )
            x = f.vector([f.parse_scalar(v) for v in xy[0]])
            y = f.vector([f.parse_scalar(v) for v in xy[1]])
            pairs.append((x, y))
        coords = GaloisCoordinates(pairs)

    seeds = []
    for i, ssec in enumerate(doc.get("subalgebras", [])):
        label = ssec.get("label", f"seed{i}")
        gens = [f.vector([f.parse_scalar(v) for v in vec]) for vec in _need(ssec, "generators", "subalgebras")]
        seeds.append((label, gens))

    return Instance(
        name=name,
        field=f,
        groupoid=g,
        algebra=alg,
        action=act,
        coordinates=coords,
        subalgebra_seeds=seeds,
        flags=flags,
    )


def _certify_headroom(f: Field, dim: int, what: str) -> None:
    """Refuse F_p unless every int64 accumulation on algebras up to ``dim`` fits.

    The longest accumulations sum dim^2 products of two canonical residues
    before reducing: coordinates in R (x) R (relations, coset
    representatives) and in End(R).  Each product is at most (p-1)^2.
    """
    if f.modular and dim * dim * (f.p - 1) ** 2 >= 2**63:
        raise InstanceError(
            f"field: F_{f.p} is too large for {what} (dim {dim}): "
            f"{dim}^2 * ({f.p}-1)^2 >= 2^63 overflows int64 arithmetic"
        )


def load_instance(path) -> Instance:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise InstanceError(f"{p}: invalid JSON at line {e.lineno}: {e.msg}") from e
    return load_instance_dict(doc)


def emit_instance(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# builtin generators
# ---------------------------------------------------------------------------

BUILTIN_NAMES = (
    "trivial",
    "pair_f5",
    "klein_m2f3",
    "klein_disjoint2",
    "cyclic_shift_c3",
)


def builtin(name: str) -> dict:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise InstanceError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None


def load_builtin(name: str) -> Instance:
    return load_instance_dict(builtin(name))


def _structure_entries(table: np.ndarray) -> list:
    n = table.shape[0]
    return [
        [i, j, k, int(table[i, j, k])]
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if table[i, j, k] != 0
    ]


def _trivial() -> dict:
    return {
        "meta": {
            "name": "trivial",
            "flags": {"galois_expected": True, "central_galois_expected": True},
        },
        "field": {"kind": "Fp", "p": 5},
        "groupoid": {
            "arrows": ["e"],
            "compose": [["e"]],
            "inverse": ["e"],
            "identities": ["e"],
        },
        "algebra": {
            "basis": ["1"],
            "structure": [[0, 0, 0, 1]],
            "unit": [1],
        },
        "action": {"idempotents": {"e": [1]}, "maps": {"e": [[1]]}},
        "coordinates": [[[1], [1]]],
    }


def _pair_f5() -> dict:
    arrows = ["e1", "e2", "t", "s"]  # s = t^-1; t: e1 -> e2
    und = None
    compose = [
        ["e1", und, und, "s"],
        [und, "e2", "t", und],
        ["t", und, und, "e2"],
        [und, "s", "e1", und],
    ]
    return {
        "meta": {"name": "pair_f5", "flags": {"galois_expected": True}},
        "field": {"kind": "Fp", "p": 5},
        "groupoid": {
            "arrows": arrows,
            "compose": compose,
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


def _m2_table(p: int) -> np.ndarray:
    """Structure constants of M_2 over F_p in the matrix-unit basis
    E11, E12, E21, E22 (index (a,b) -> 2(a-1)+(b-1))."""
    t = np.zeros((4, 4, 4), dtype=np.int64)
    def unit_index(a, b):
        return 2 * a + b
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if b == c:
                        t[unit_index(a, b), unit_index(c, d), unit_index(a, d)] = 1
    return t


def _conj_matrix(f: Field, table: np.ndarray, u: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """Matrix of x -> u x u^-1 built from the structure constants."""
    alg = Algebra(field=f, labels=tuple(str(i) for i in range(len(unit))), table=table, unit=unit)
    uinv = linalg.solve(f, alg.left_mult(u), unit)
    if uinv is None:
        raise InstanceError("conjugating element is not invertible")
    return linalg.matmul(f, alg.left_mult(u), alg.right_mult(uinv))


_KLEIN_TABLE = {
    # Klein four group: e, a, b, c with a*b = c etc.
    ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b", ("e", "c"): "c",
    ("a", "e"): "a", ("a", "a"): "e", ("a", "b"): "c", ("a", "c"): "b",
    ("b", "e"): "b", ("b", "a"): "c", ("b", "b"): "e", ("b", "c"): "a",
    ("c", "e"): "c", ("c", "a"): "b", ("c", "b"): "a", ("c", "c"): "e",
}


def _klein_m2f3() -> dict:
    f = Field("Fp", 3)
    table = _m2_table(3)
    unit = np.array([1, 0, 0, 1], dtype=np.int64)
    reps = {
        "e": np.array([1, 0, 0, 1], dtype=np.int64),
        "a": np.array([1, 0, 0, 2], dtype=np.int64),  # diag(1,-1)
        "b": np.array([0, 1, 1, 0], dtype=np.int64),  # swap
        "c": np.array([0, 1, 2, 0], dtype=np.int64),  # product of the two
    }
    names = ["e", "a", "b", "c"]
    maps = {
        nm: [[int(v) for v in row] for row in _conj_matrix(f, table, reps[nm], unit)]
        for nm in names
    }
    return {
        "meta": {
            "name": "klein_m2f3",
            "flags": {
                "galois_expected": True,
                "central_galois_expected": True,
                "hirata_expected": True,
            },
        },
        "field": {"kind": "Fp", "p": 3},
        "groupoid": {
            "arrows": names,
            "compose": [[_KLEIN_TABLE[(a, b)] for b in names] for a in names],
            "inverse": names,  # every element is an involution
            "identities": ["e"],
        },
        "algebra": {
            "basis": ["E11", "E12", "E21", "E22"],
            "structure": _structure_entries(table),
            "unit": [1, 0, 0, 1],
        },
        "action": {"idempotents": {"e": [1, 0, 0, 1]}, "maps": maps},
    }


def _disjoint_copies(doc: dict, k: int, name: str) -> dict:
    """k copies of the instance ``doc`` side by side, each acting on its own
    block of R^k.

    Copy i (from 1) renames arrow ``a`` to ``a{i}`` and basis label ``x``
    to ``x.{i}``.  Galois coordinates are not carried over.
    """
    gsec, asec, act = doc["groupoid"], doc["algebra"], doc["action"]
    n = len(asec["basis"])
    copies = range(1, k + 1)

    def rename(a, i):
        return None if a is None else f"{a}{i}"

    def block(vec, i):
        return [0] * (n * (i - 1)) + list(vec) + [0] * (n * (k - i))

    def block_matrix(mat, i):
        rows = [[0] * (n * k) for _ in range(n * k)]
        for r, row in enumerate(mat):
            rows[n * (i - 1) + r] = block(row, i)
        return rows

    compose = [
        [rename(v, i) if i == j else None for j in copies for v in row]
        for i in copies
        for row in gsec["compose"]
    ]
    return {
        "meta": {"name": name, "flags": dict(doc["meta"]["flags"])},
        "field": dict(doc["field"]),
        "groupoid": {
            "arrows": [rename(a, i) for i in copies for a in gsec["arrows"]],
            "compose": compose,
            "inverse": [rename(a, i) for i in copies for a in gsec["inverse"]],
            "identities": [rename(a, i) for i in copies for a in gsec["identities"]],
        },
        "algebra": {
            "basis": [f"{lbl}.{i}" for i in copies for lbl in asec["basis"]],
            # each entry once per copy, in this order, so klein_disjoint2's emitted JSON stays fixed
            "structure": [[a + n * c, b + n * c, e + n * c, v] for a, b, e, v in asec["structure"] for c in range(k)],
            "unit": list(asec["unit"]) * k,
        },
        "action": {
            "idempotents": {rename(nm, i): block(vec, i) for i in copies for nm, vec in act["idempotents"].items()},
            "maps": {rename(nm, i): block_matrix(mat, i) for nm, mat in act["maps"].items() for i in copies},
        },
    }


def _cyclic_shift_c3() -> dict:
    names = ["e", "g", "g2"]
    compose = [
        ["e", "g", "g2"],
        ["g", "g2", "e"],
        ["g2", "e", "g"],
    ]
    shift = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]  # d_i -> d_{i+1}
    shift2 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    return {
        "meta": {"name": "cyclic_shift_c3", "flags": {"galois_expected": True}},
        "field": {"kind": "Fp", "p": 5},
        "groupoid": {
            "arrows": names,
            "compose": compose,
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
                "e": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "g": shift,
                "g2": shift2,
            },
        },
        "coordinates": [
            [[1, 0, 0], [1, 0, 0]],
            [[0, 1, 0], [0, 1, 0]],
            [[0, 0, 1], [0, 0, 1]],
        ],
    }


_BUILDERS = {
    "trivial": _trivial,
    "pair_f5": _pair_f5,
    "klein_m2f3": _klein_m2f3,
    "klein_disjoint2": lambda: _disjoint_copies(_klein_m2f3(), 2, "klein_disjoint2"),
    "cyclic_shift_c3": _cyclic_shift_c3,
}
