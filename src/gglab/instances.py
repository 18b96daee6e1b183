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

from .action import Action, validate_action
from .algebra import Algebra, validate_algebra
from .fields import Field, FieldError
from .galois import GaloisCoordinates
from .groupoid import Groupoid, validate_groupoid


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
    subalgebra_seeds: list[list[np.ndarray]] = dc_field(default_factory=list)
    flags: dict = dc_field(default_factory=dict)


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean"}


def _typed(value, kind: type, where: str, index: int | None = None):
    """``value`` if it has the JSON type ``kind``, else an InstanceError
    located at ``where``, or at ``where[index]`` for an array item."""
    if not isinstance(value, kind):
        loc = where if index is None else f"{where}[{index}]"
        raise InstanceError(f"{loc} must be a JSON {_JSON_TYPES[kind]}, not {value!r:.40}")
    return value


def _need(doc: dict, key: str, where: str, kind: type):
    """doc[key], present and of JSON type ``kind``; ``where`` is the path of
    doc in the instance, "" for the instance itself."""
    if key not in doc:
        raise InstanceError(f"missing {key!r} in {where or 'instance'}")
    return _typed(doc[key], kind, f"{where}.{key}" if where else key)


def _names(doc: dict, key: str, where: str) -> list:
    names = _need(doc, key, where, list)
    for i, nm in enumerate(names):
        _typed(nm, str, f"{where}.{key}", i)
    return names


def _scalar(f: Field, v, where: str):
    """``f.parse_scalar(v)``, its error located at ``where``."""
    try:
        return f.parse_scalar(v)
    except FieldError as e:
        raise InstanceError(f"{where}: {e}") from None


def _scalars(f: Field, row: list, where: str) -> list:
    """The scalars of the JSON array ``row`` at ``where``.  A row of plain
    ints that fit int64 is returned as it is, for ``Field.vector`` or
    ``Field.array`` to reduce in one numpy call."""
    if set(map(type, row)) <= {int} and (not row or -(2**63) <= min(row) and max(row) < 2**63):
        return row
    return [_scalar(f, v, f"{where}[{j}]") for j, v in enumerate(row)]


def _vector(f: Field, vec, where: str) -> np.ndarray:
    return f.vector(_scalars(f, _typed(vec, list, where), where))


def _matrix(f: Field, mat, where: str) -> np.ndarray:
    rows = [_scalars(f, _typed(row, list, where, i), f"{where}[{i}]") for i, row in enumerate(_typed(mat, list, where))]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise InstanceError(f"{where}[{i}] has {len(row)} entries, but {where}[0] has {len(rows[0])}")
    return f.array(rows)


def load_instance_dict(doc: dict) -> Instance:
    """Load and certify one instance document; every malformed section
    raises an InstanceError (or another ValueError) that names it."""
    _typed(doc, dict, "instance document")
    meta = _typed(doc.get("meta", {}), dict, "meta")
    name = _typed(meta.get("name", "unnamed"), str, "meta.name")
    flags = dict(_typed(meta.get("flags", {}), dict, "meta.flags"))
    # the one flag the suite reads (remark_2_3 compares it with its verdict)
    if "central_galois_expected" in flags:
        _typed(flags["central_galois_expected"], bool, "meta.flags.central_galois_expected")

    try:
        f = Field.from_json(_need(doc, "field", "", dict))
    except FieldError as e:
        raise InstanceError(f"field: {e}") from e

    gsec = _need(doc, "groupoid", "", dict)
    arrows = _names(gsec, "arrows", "groupoid")
    idx = {a: i for i, a in enumerate(arrows)}

    def arrow_index(nm, where):
        if not (isinstance(nm, str) and nm in idx):
            raise InstanceError(f"{where}: unknown arrow {nm!r}")
        return idx[nm]

    comp = [
        [(-1 if v is None else arrow_index(v, "compose")) for v in _typed(row, list, "groupoid.compose", i)]
        for i, row in enumerate(_need(gsec, "compose", "groupoid", list))
    ]
    inv = [arrow_index(v, "inverse") for v in _need(gsec, "inverse", "groupoid", list)]
    g = validate_groupoid(arrows, comp, inv)
    listed = sorted(arrow_index(v, "identities") for v in _need(gsec, "identities", "groupoid", list))
    if listed != list(g.identities):
        raise InstanceError(
            f"identity list {sorted(gsec['identities'])} disagrees with the derived "
            f"identities {[arrows[e] for e in g.identities]}"
        )

    asec = _need(doc, "algebra", "", dict)
    labels = _names(asec, "basis", "algebra")
    n = len(labels)
    _certify_headroom(f, n, "the algebra")
    table = f.zeros((n, n, n))
    seen = {}
    for pos, entry in enumerate(_need(asec, "structure", "algebra", list)):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise InstanceError(f"structure entry {entry!r} is not [i, j, k, coeff]")
        i, j, k, c = entry
        if not all(type(v) is int and 0 <= v < n for v in (i, j, k)):
            raise InstanceError(f"structure entry {entry!r} indexes outside the basis")
        key = (i * n + j) * n + k
        if key in seen:
            raise InstanceError(
                f"algebra.structure[{pos}]: entry {entry!r} repeats (i, j, k) of "
                f"algebra.structure[{seen[key]}]"
            )
        seen[key] = pos
        table[i, j, k] = _scalar(f, c, f"algebra.structure[{pos}]")
    unit = _vector(f, _need(asec, "unit", "algebra", list), "algebra.unit")
    alg = validate_algebra(f, labels, table, unit)

    actsec = _need(doc, "action", "", dict)
    idem = {}
    for nm, vec in _need(actsec, "idempotents", "action", dict).items():
        idem[arrow_index(nm, "idempotents")] = _vector(f, vec, f"action.idempotents.{nm}")
    beta = {}
    for nm, mat in _need(actsec, "maps", "action", dict).items():
        beta[arrow_index(nm, "maps")] = _matrix(f, mat, f"action.maps.{nm}")
    act = validate_action(g, alg, idem, beta)
    # the skew groupoid ring, sum of E_{r(g)} over all arrows g, is the
    # largest algebra the suite builds (it contains every E_e, so R)
    _certify_headroom(f, sum(act.ideal(a).dim for a in g.arrows()), "the skew groupoid ring")

    coords = None
    if "coordinates" in doc:
        pairs = []
        for i, xy in enumerate(_need(doc, "coordinates", "", list)):
            if not (isinstance(xy, list) and len(xy) == 2):
                raise InstanceError("coordinates entries must be [x, y] vector pairs")
            x, y = (_vector(f, v, f"coordinates[{i}][{k}]") for k, v in enumerate(xy))
            if x.shape != (alg.dim,) or y.shape != (alg.dim,):
                raise InstanceError(f"coordinates vectors must have length {alg.dim}")
            pairs.append((x, y))
        coords = GaloisCoordinates(pairs)

    seeds = []
    for i, ssec in enumerate(_typed(doc.get("subalgebras", []), list, "subalgebras")):
        where = f"subalgebras[{i}]"
        _typed(_typed(ssec, dict, where).get("label", ""), str, f"{where}.label")  # optional and unread
        gens = [
            _vector(f, vec, f"{where}.generators[{k}]") for k, vec in enumerate(_need(ssec, "generators", where, list))
        ]
        if not gens:
            raise InstanceError(f"{where}.generators must hold at least one vector")
        if any(v.shape != (alg.dim,) for v in gens):
            raise InstanceError(f"{where} generators must have length {alg.dim}")
        seeds.append(gens)

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
    except OSError as e:
        raise InstanceError(f"{p}: cannot read: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise InstanceError(f"{p}: not UTF-8 text: {e.reason}") from e
    except json.JSONDecodeError as e:
        raise InstanceError(f"{p}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except RecursionError:
        raise InstanceError(f"{p}: JSON nested too deeply to decode") from None
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


def _klein_m2f3() -> dict:
    # clock_shift(2, 3) with the arrows named as the Klein four group
    doc = _conjugation_action(2, 3, [(0, 0), (1, 0), (0, 1), (1, 1)], lambda a, b: "eabc"[a % 2 + 2 * (b % 2)])
    doc["meta"] = {
        "name": "klein_m2f3",
        "flags": {"galois_expected": True, "central_galois_expected": True, "hirata_expected": True},
    }
    return doc


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


def clock_shift(n: int, p: int) -> dict:
    """(Z/n)^2 acting on M_n(F_p), for n | p - 1, by conjugation.

    Arrow ``c{a}s{b}`` conjugates by C^a S^b, where C is the clock
    diag(1, w, ..., w^(n-1)) for the least primitive n-th root of unity w
    and S is the cyclic shift e_i -> e_(i+1).  Since SC = w CS these
    conjugations commute.  M_n(F_p) is a central Galois extension of F_p
    under this action, a symbol algebra (Chase, Harrison & Rosenberg,
    Mem. AMS 52, 1965); n = 2 is the Klein action of ``klein_m2f3``.  The
    document gives no coordinates, so the suite solves for them.  The
    basis is the matrix units E_ij, row-major.
    """
    try:
        Field("Fp", p)
    except FieldError as e:
        raise InstanceError(f"field: {e}") from e
    if n < 1 or (p - 1) % n:
        raise InstanceError(f"clock_shift needs n | p - 1, not n = {n}, p = {p}")
    doc = _conjugation_action(n, p, [(a, b) for a in range(n) for b in range(n)], lambda a, b: f"c{a % n}s{b % n}")
    doc["meta"] = {"name": f"clock_shift_m{n}f{p}"}
    return doc


def _conjugation_action(n: int, p: int, group: list, name) -> dict:
    """The conjugation action of ``clock_shift`` with its arrows listed as
    the exponents (a, b) of ``group`` and named ``name(a, b)``, which must
    read a and b mod n.  The document has no meta section."""
    w = next(x for x in range(1, p) if pow(x, n, p) == 1 and all(pow(x, k, p) != 1 for k in range(1, n)))
    shift = np.roll(np.eye(n, dtype=np.int64), 1, axis=0)  # column i is e_(i+1)

    def conjugation(a, b):
        # x -> u x u^-1 on row-major M_n is kron(u, u^-T); u^-1 = S^-b C^-a
        u = np.diag([pow(w, a * i, p) for i in range(n)]) @ np.linalg.matrix_power(shift, b)
        u_inv = np.linalg.matrix_power(shift.T, b) @ np.diag([pow(w, -a * i % n, p) for i in range(n)])
        return (np.kron(u, u_inv.T) % p).tolist()

    return {
        "field": {"kind": "Fp", "p": p},
        "groupoid": {
            "arrows": [name(a, b) for a, b in group],
            "compose": [[name(a + c, b + d) for c, d in group] for a, b in group],
            "inverse": [name(-a, -b) for a, b in group],
            "identities": [name(0, 0)],
        },
        "algebra": {
            "basis": [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)],
            "structure": [[i * n + j, j * n + k, i * n + k, 1] for i in range(n) for j in range(n) for k in range(n)],
            "unit": np.eye(n, dtype=np.int64).ravel().tolist(),
        },
        "action": {
            "idempotents": {name(0, 0): np.eye(n, dtype=np.int64).ravel().tolist()},
            "maps": {name(a, b): conjugation(a, b) for a, b in group},
        },
    }


_BUILDERS = {
    "trivial": _trivial,
    "pair_f5": _pair_f5,
    "klein_m2f3": _klein_m2f3,
    "klein_disjoint2": lambda: _disjoint_copies(_klein_m2f3(), 2, "klein_disjoint2"),
    "cyclic_shift_c3": _cyclic_shift_c3,
}
