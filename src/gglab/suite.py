"""End-to-end verification suite: runs every anchored check on a loaded
instance in dependency order and assembles the report.

Hypothesis gating discipline: every statement check certifies its
hypotheses first and records pass/skip/violation per instance; a failed
hypothesis always yields "skip" with the failed hypothesis named, never
a silent omission and never a spurious violation.

Each check is one function, declared by ``@check`` with its id, the
anchor it is read against and its scope; the declarations fill MANIFEST,
and run order is registration order.  A check reads the facts it shares
with other checks off ``SuiteState``, where each is computed once, on
first use, and returns an ``Outcome``.  ``run_suite`` walks MANIFEST,
times each call and records the result, with the hypothesis "unmet"
exactly when the verdict is "skip".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property, partial
from itertools import chain, combinations
from math import prod
from typing import Callable, NamedTuple

import numpy as np

from .action import Action, ActionError, fixer_subgroupoid, restrict
from .algebra import Algebra, AlgebraError, center, product_space, subspace_algebra
from .galois import (
    GaloisContext,
    GaloisCoordinates,
    GaloisError,
    SkewGroupoidRing,
    build_skew_groupoid_ring,
    check_galois_coordinates,
    j_isomorphism_check,
    solve_galois_coordinates,
)
from .groupoid import SUBGROUPOID_ARROWS, GroupoidError, Subgroupoid, join, pair_star
from .instances import Instance
from .linalg import Subspace
from .report import CheckRecord, VerificationReport
from .separability import (
    EXHAUSTIVE_DIM,
    SeparableEnumeration,
    SubalgebraFacts,
    double_centralizer_sweep,
    enumerate_separable_subalgebras,
    walkable,
)

# A construction that certifies its result raises one of these when the
# certificate fails, which falsifies the statement being checked.  Any
# other exception is a bug and propagates instead of becoming a violation.
CERTIFICATE_ERRORS = (GroupoidError, ActionError, AlgebraError, GaloisError)


class Outcome(NamedTuple):
    """What a check returns; ``run_suite`` adds the id, anchor, hypothesis
    and seconds."""

    verdict: str
    detail: str = ""
    witnesses: dict | None = None


def _skip(detail: str, witnesses: dict | None = None) -> Outcome:
    return Outcome("skip", detail, witnesses)


@dataclass
class Block:
    """Where Theorem 3.9 and Section 4 are read (``SuiteState.blocks``): R
    itself, or one object's E_e = 1_e R as an algebra on the RREF basis of
    E_e, with unit 1_e.  Subspaces of a block are in its own coordinates."""

    ring: Algebra  # R
    name: str | None  # the object e; None for R itself
    alg: Algebra
    space: Subspace  # the block inside R
    center: Subspace
    facts: SubalgebraFacts
    enum: SeparableEnumeration  # the separable subalgebras over the center
    arrows: frozenset[int]  # the arrows acting on the block
    parts: list[Subgroupoid]  # the wide parts whose theta the block reads

    def lift(self, s: Subspace) -> Subspace:
        """A subspace of the block, in R's coordinates."""
        return s if self.name is None else self.space.from_coords(s.basis)

    def cut(self, t: Subspace) -> Subspace:
        """1_e T for a subspace T of R, in the block's coordinates."""
        if self.name is None:
            return t
        one = self.ring.field.reduce(self.alg.unit @ self.space.basis)
        rows = self.space.coords_rows(self.ring.products(t.basis, one[None])[:, 0])
        return Subspace(self.ring.field, self.alg.dim, rows)

    def fixer(self, act: Action, t: Subspace) -> Subgroupoid:
        """The arrows of the block that fix a subspace T of R."""
        h = fixer_subgroupoid(act, t)
        return h if self.name is None else Subgroupoid(h.parent, h.members & self.arrows)

    def witness(self, s: Subspace) -> dict:
        """A member as a failure lists it: in R's coordinates, with its
        object where R is split."""
        return {"subalgebra": self.lift(s).to_json(), **({} if self.name is None else {"object": self.name})}


@dataclass
class SuiteState:
    """The facts checks share, each computed once, on first use."""

    inst: Instance
    identity_results: dict[tuple, tuple[bool, bool]] = dc_field(default_factory=dict, init=False)

    # No check calls this: Proposition 2.2 is decided by inheritance.  It
    # stays because perfbench's tracer binds it (span suite.restriction),
    # and goes when the benchmark drops that span.
    def restriction(self, h: Subgroupoid) -> Action:
        """The restriction of the action to H, built afresh."""
        return restrict(self.inst.action, h)

    @cached_property
    def coordinate_failures(self) -> list[tuple[int, np.ndarray]]:
        """(arrow, residual) where the instance's own coordinates fail."""
        given = self.inst.coordinates
        return [] if given is None else check_galois_coordinates(self.inst.action, given)[1]

    @cached_property
    def coords(self) -> GaloisCoordinates | None:
        """Certified coordinates: the instance's own where they certify, else
        solved for.  None only if the solve proves that none exist."""
        if self.inst.coordinates is not None and not self.coordinate_failures:
            return self.inst.coordinates
        return solve_galois_coordinates(self.inst.action)

    @cached_property
    def ctx(self) -> GaloisContext:
        return GaloisContext(self.inst.action)

    @property
    def galois(self) -> bool:
        """The Galois gate: a certified coordinate system exists."""
        return self.coords is not None

    @cached_property
    def skew(self) -> SkewGroupoidRing:
        return build_skew_groupoid_ring(self.inst.action)

    @cached_property
    def theta_keys(self) -> list[tuple]:
        """``ctx.theta_key`` of every H of ``ctx.all_subgroupoids``, in
        order.  Two keys are equal exactly when the theta values are, so
        every theta-coincidence is read off this one list (``_classes``)."""
        return [self.ctx.theta_key(h) for h in self.ctx.all_subgroupoids]

    @cached_property
    def gamma_keys(self) -> list[tuple]:
        """``ctx.gamma_key`` of every H, as ``theta_keys`` holds theta's."""
        return [self.ctx.gamma_key(h) for h in self.ctx.all_subgroupoids]

    def _wide(self, i: int) -> bool:
        return self.ctx.all_subgroupoids[i].wide

    @cached_property
    def theta_wide(self) -> tuple[bool, list[str] | None]:
        """Whether theta is injective on the wide subgroupoids; else the
        first coinciding pair an in-order scan of the wide H meets: the two
        first members of the wide class whose second member comes first."""
        classes = _classes(self.theta_keys, self._wide)
        if not classes:
            return True, None
        subs = self.ctx.all_subgroupoids
        return False, [subs[i].label() for i in min(classes, key=lambda c: c[1])[:2]]

    @cached_property
    def gamma_wide_inj(self) -> bool:
        """Whether gamma is injective on the wide subgroupoids: no
        gamma-class has two wide members."""
        return not _classes(self.gamma_keys, self._wide)

    @cached_property
    def facts(self) -> SubalgebraFacts:
        """Commutants V_R(S) and separability verdicts, shared by every check.
        V_R(R) is the center, so it is solved once."""
        return SubalgebraFacts(self.inst.algebra, self.ctx.center)

    def bicommutant_failure(self, h: Subgroupoid) -> dict | None:
        """Where theta(H) differs from V_R(V_R(theta(H))), or None."""
        th = self.ctx.theta(h)
        vv = self.facts.commutant(self.facts.commutant(th))
        if vv != th:
            return {"subgroupoid": h.label(), "invariants_dim": th.dim, "bicommutant_dim": vv.dim}
        return None

    @cached_property
    def dcp_fail(self) -> dict | None:
        """The first subgroupoid whose invariant ring is not its own
        bicommutant, decided one connected component at a time.

        By the facts in ``GaloisContext.component_subgroupoids``,
        V_R(V_R(theta(H))) = sum_c V_{R_c}(V_{R_c}(1_c theta(H))), and
        theta(H) = sum_c 1_c theta(H).  So theta(H) is its bicommutant iff
        each 1_c theta(H) is its bicommutant in R_c.  Where H_c is empty
        that is V_{R_c}(C(R_c)) = R_c, which always holds; otherwise it is
        the same condition for H_c.  So the hypothesis holds on every H iff
        it holds on every H inside one component, and a failure is named by
        the first of those that fails, in enumeration order."""
        return next((fail for h in self.ctx.component_subgroupoids if (fail := self.bicommutant_failure(h))), None)

    @cached_property
    def azu(self) -> bool:
        """R is Azumaya: separable over its center C(R).

        Where the Galois gate holds and R^beta <= C(R), this is proved, not
        solved.  z = sum_i x_i (x) y_i is a separability idempotent of R
        over R^beta (``_lemma_4_2`` with H = G), and R^beta <= C(R) makes
        R (x)_{R^beta} R -> R (x)_{C(R)} R a well-defined map of
        R-bimodules that keeps mu, so the image of z is one over C(R).
        True is recorded under the (R, center) key that the Theorem 3.9
        sweep and ``center_enum`` read.  The central gate is the case
        R^beta = C(R).  Otherwise the tensor-square solve decides."""
        full, center = self.inst.algebra.full_space, self.ctx.center
        if self.galois and center.contains_space(self.ctx.invariant_ring):
            self.facts.separable[(full.key(), center.key())] = True
        return self.facts.separable_over(full, center)

    @cached_property
    def central(self) -> bool:
        """The central-Galois gate: the Galois gate and C(R) = R^beta.  It is
        the hypothesis of Lemma 3.4, Theorem 3.5 and Section 4, so under it
        the base R^beta of the correspondence is the center."""
        return self.galois and self.ctx.center == self.ctx.invariant_ring

    @cached_property
    def center_enum(self) -> SeparableEnumeration:
        """The separable subalgebras of R over its center.  The seed pool is
        built only where the enumeration reads it: not by the exhaustive
        walk, and not when the center is R itself.  A suite reads this
        only where R is its own block (``blocks``)."""
        return enumerate_separable_subalgebras(self.inst.algebra, self.ctx.center, partial(_pool, self), self.facts)

    @cached_property
    def blocks(self) -> list[Block]:
        """The blocks on which Theorem 3.9 and Section 4 are read: one per
        object with 1_e != 0 where the central gate holds, there are two
        or more such objects and every block is walked
        (``separability.walkable``); otherwise R alone, with
        ``center_enum``, the facts and the wide subgroupoids of R.

        Under the central gate the groupoid acts within objects.  Each 1_e
        is central, so it lies in C(R) = R^beta, and for an arrow
        g: e -> e' the fixed-point condition at g reads
        beta_g(1_e 1_{g^-1}) = 1_e 1_{e'}: the left side is
        beta_g(1_e) = 1_{e'}, the right side 0 when e != e'.  So 1_{e'} = 0,
        and so is E_e, which beta_g carries onto E_{e'}.  An arrow between
        two objects thus joins only objects with 1_e = 0, and a component
        with 1_c != 0 is the group of one object.  Hence R = (+)_e E_e over
        the objects with 1_e != 0, and:

        - C(R) = (+)_e C(E_e): z commutes with R iff each 1_e z commutes
          with E_e, as products across blocks vanish.
        - A unital subalgebra S >= C(R) holds every 1_e, so
          S = (+)_e 1_e S, and each 1_e S is a unital subalgebra of E_e,
          with unit 1_e, holding C(E_e) = 1_e C(R); every such sum is one.
          S is separable over C(R) iff each 1_e S is over C(E_e): a cross
          term x 1_e (x) 1_e' y = x (x) 1_e 1_e' y of S (x)_C(R) S
          vanishes, so S (x)_C(R) S = (+)_e 1_e S (x)_C(E_e) 1_e S.  A
          separability element of S is then the sum of one of each block
          1_e S over C(E_e), and (1_e (x) 1_e) z is one of the block when
          z is one of S.  So the separable subalgebras over the center are
          the sums of one member of each block's list, Pi_e N_e of them.
        - R is Azumaya under the gate (``azu``), so by the item above each
          E_e is separable over C(E_e), and each list holds E_e itself.

        Each block is walked over its own center with its own facts;
        objects with 1_e = 0 add the factor 0 and are left out.  The
        readings of the blocks, and their proofs, are in ``theta_image``,
        ``identities`` and ``_theorem_3_9``."""
        act, ctx, alg = self.inst.action, self.ctx, self.inst.algebra
        g = act.groupoid
        if self.central:
            # (component, its wide parts, its object) where 1_e != 0
            objs = [
                (c, parts, e)
                for c, parts in zip(ctx.components, ctx.wide_parts)
                for e in g.identities
                if e in c and act.idempotents[e].any()
            ]
            if len(objs) > 1 and all(walkable(alg.field, act.ideals[e].dim) for _, _, e in objs):
                return self._object_blocks(objs)
        return [
            Block(
                alg, None, alg, alg.full_space, ctx.center, self.facts, self.center_enum,
                frozenset(g.arrows()), ctx.wide_subgroupoids,
            )
        ]

    def _object_blocks(self, objs: list[tuple[frozenset[int], list[Subgroupoid], int]]) -> list[Block]:
        """The block E_e of each object, walked over its center.  Blocks
        with equal structure constants and unit are one algebra, so they
        share one center, one walk and one set of facts."""
        act, alg = self.inst.action, self.inst.algebra
        walked: dict[tuple, tuple] = {}
        blocks = []
        for c, parts, e in objs:
            space = act.ideals[e]
            block = subspace_algebra(alg, space, act.idempotents[e])
            key = (block.dim, block.table.tobytes(), block.unit.tobytes())
            if key not in walked:
                base = center(block)
                facts = SubalgebraFacts(block, base)
                walked[key] = (block, base, facts, enumerate_separable_subalgebras(block, base, None, facts))
            block, base, facts, enum = walked[key]
            blocks.append(Block(alg, act.groupoid.names[e], block, space, base, facts, enum, c, parts))
        return blocks

    @property
    def separable_count(self) -> int:
        """The number of separable subalgebras over the center: the product
        of the blocks' counts (``blocks``)."""
        return prod(len(b.enum.subalgebras) for b in self.blocks)

    @property
    def enum_note(self) -> str:
        return "exhaustive" if self.ft_decided else "pool-restricted"

    @cached_property
    def theta_image(self) -> tuple[bool, bool]:
        """Whether theta's wide image lies in, and covers, the separable
        subalgebras over the center, read one block at a time: in each
        block, 1_e theta of every wide part against the block's list.

        Split into objects (``blocks``), the wide H are the unions of one
        wide part H_c per component (``ctx.wide_parts``), and
        theta(H) = (+)_c 1_c theta(H_c) (``GaloisContext.theta``), which is
        (+)_e 1_e theta(H_e) over the objects with 1_e != 0.  So theta's
        image is the product of the block images {1_e theta(H_e)}, and the
        separable list the product of the block lists, none of them empty.
        One product of nonempty sets lies in another iff each factor lies
        in the other's factor, so the image lies in (covers) the list iff
        every block image lies in (covers) its list: theta_e is a bijection
        onto the block list for every e iff theta is, theta being injective
        iff each theta_e is (``theta_wide``).  R alone is its own block,
        with the wide H as its parts."""
        inside = onto = True
        for b in self.blocks:
            sep = {s.key() for s in b.enum.subalgebras}
            image = {b.cut(self.ctx.theta(h)).key() for h in b.parts}
            inside &= image <= sep
            onto &= sep <= image
        return inside, onto

    @property
    def ft_holds(self) -> bool:
        """theta is a bijection onto the separable subalgebras over the center."""
        return self.theta_wide[0] and all(self.theta_image)

    @property
    def ft_decided(self) -> bool:
        return all(b.enum.exhaustive for b in self.blocks)

    def identities(self, b: Block, s: Subspace) -> tuple[bool, bool]:
        """Theorem 4.1 on a separable S over the center of block b:
        V(S) = sum of J_g over H_S, and S = sum of J_g over H_{V(S)}, with
        V the commutant in the block and H_T the arrows of the block that
        fix T.

        On R's separable S = (+)_e S_e, split into objects (``blocks``),
        both identities hold iff they hold on every S_e in its block.
        V_R(S) = (+)_e V_{E_e}(S_e), as S holds every 1_e
        (``GaloisContext.component_subgroupoids``).  An arrow of e's group
        fixes S iff it fixes S_e, since its fixed-point condition reads only
        s 1_e, and an arrow between objects with 1_e = 0 fixes every T and
        has J_g = 0.  So the sum of the J_g over H_S is the direct sum over
        e of those over the fixer of S_e in e's group, direct iff each is,
        and likewise for H_{V_R(S)}.  Both sides of each identity are
        direct sums over the E_e, so they are equal iff they are in every
        block."""
        key = (b.name, s.key())
        if key not in self.identity_results:
            act, ctx = self.inst.action, self.ctx
            t, vrs = b.lift(s), b.lift(b.facts.commutant(s))
            sum1, direct1 = ctx.gamma(b.fixer(act, t))
            sum2, direct2 = ctx.gamma(b.fixer(act, vrs))
            self.identity_results[key] = (direct1 and sum1 == vrs, direct2 and sum2 == t)
        return self.identity_results[key]

    @cached_property
    def identity_all(self) -> bool:
        """The first identity holds on every separable S over the center:
        on every member of every block (``identities``)."""
        return all(self.identities(b, s)[0] for b in self.blocks for s in b.enum.subalgebras)


# (check id, anchor, scope), one per ``@check``, in registration order,
# which is the run order of a full-scope suite
MANIFEST: list[tuple[str, str, str]] = []
CHECKS: dict[str, Callable[[SuiteState], Outcome]] = {}


def check(cid: str, anchor: str, scope: str = "s3"):
    """Declare the decorated function as check ``cid``, read against the
    paper's ``anchor`` and run in ``scope``: append it to MANIFEST."""

    def register(fn):
        if cid in CHECKS:
            raise ValueError(f"check {cid!r} registered twice")
        MANIFEST.append((cid, anchor, scope))
        CHECKS[cid] = fn
        return fn

    return register


def run_suite(inst: Instance, scope: str = "all") -> VerificationReport:
    if scope not in ("s3", "all"):
        raise ValueError(f"unknown scope {scope!r}")
    report = VerificationReport(instance=inst.name, scope=scope, provenance=provenance(inst))
    state = SuiteState(inst)
    for cid, anchor, check_scope in MANIFEST:
        if scope != "all" and check_scope != scope:
            continue
        start = time.perf_counter()
        out = CHECKS[cid](state)
        seconds = time.perf_counter() - start
        report.add(
            CheckRecord(
                check_id=cid,
                anchor=anchor,
                hypothesis="unmet" if out.verdict == "skip" else "met",
                verdict=out.verdict,
                detail=out.detail,
                witnesses=out.witnesses or {},
                seconds=seconds,
            )
        )
    return report


def provenance(inst: Instance) -> dict:
    """What a report was computed over besides the checks: the field and
    the caps in effect.  Deterministic, so it keeps reports byte-identical."""
    return {
        "field": inst.field.to_json(),
        "caps": {"subgroupoid_arrows": SUBGROUPOID_ARROWS, "exhaustive_dim": EXHAUSTIVE_DIM},
    }


# --- validators (already certified during load; record the facts) ----------


@check("validate_groupoid", "plumbing")
def _validate_groupoid(state: SuiteState) -> Outcome:
    g = state.inst.groupoid
    return Outcome("pass", f"{g.size} arrows, {len(g.identities)} identities", {"arrows": list(g.names)})


@check("validate_algebra", "plumbing")
def _validate_algebra(state: SuiteState) -> Outcome:
    inst = state.inst
    return Outcome(
        "pass",
        f"dim {inst.algebra.dim} over {inst.field.kind}" + (f"({inst.field.p})" if inst.field.modular else ""),
        {"basis": list(inst.algebra.labels)},
    )


@check("validate_action", "definition_action")
def _validate_action(state: SuiteState) -> Outcome:
    g, act = state.inst.groupoid, state.inst.action
    return Outcome(
        "pass",
        "all action axioms certified; R is the direct sum of the E_e",
        {"ideal_dims": {g.names[e]: act.ideals[e].dim for e in g.identities}},
    )


# --- Galois coordinates, J modules and the connecting-arrow observation -----


@check("galois_coordinates", "definition_galois_extension")
def _galois_coordinates(state: SuiteState) -> Outcome:
    inst = state.inst
    if state.coordinate_failures:
        a, res = state.coordinate_failures[0]
        name = inst.groupoid.names[a]
        return Outcome(
            "violation",
            f"instance coordinates fail at arrow {name}",
            {"arrow": name, "residual": inst.field.vector_json(res)},
        )
    if state.coords is None:  # the basis-pinned solve is complete
        return Outcome("pass", "no coordinate system exists: R is not a Galois extension", {"galois": False})
    n = len(state.coords.pairs)
    if inst.coordinates is None:
        return Outcome("pass", f"solver found and certified {n} pairs", {"pairs": n})
    return Outcome("pass", f"instance coordinates certified ({n} pairs)", {"pairs": n})


@check("jmodules", "definition_j_modules")
def _jmodules(state: SuiteState) -> Outcome:
    g, jm = state.inst.groupoid, state.ctx.jmodules
    return Outcome("pass", "J modules computed", {"dims": {g.names[a]: jm[a].dim for a in g.arrows()}})


@check("connecting_arrows", "observation")
def _connecting_arrows(state: SuiteState) -> Outcome:
    """J_g = 0 on every arrow with d(g) != r(g), by the action axioms
    certified at load (proof in ``j_module``), and the detail says so."""
    g = state.inst.groupoid
    conn = [a for a in g.arrows() if g.source[a] != g.target[a]]
    return Outcome(
        "pass",
        "J_g = 0 on every connecting arrow (forced by R = direct sum of E_e); observation only"
        if conn
        else "no connecting arrows",
        {"connecting_arrows": [g.names[a] for a in conn]},
    )


# --- Section 2 ----------------------------------------------------------------


@check("lemma_2_1", "lemma_2_1")
def _lemma_2_1(state: SuiteState) -> Outcome:
    """Fixers are subgroupoids.

    The fixer of each wide theta(H) is assembled from the parts of H, one
    fixer per part H_c (``ctx.wide_parts``), not one per H.  For an arrow a
    of a component c, D_a r = beta_a(r 1_{d(a)}) - r 1_{r(a)} reads only
    1_c r.  With the facts in ``GaloisContext.component_subgroupoids``,
    theta(H) = sum_c 1_c theta(H_c) and
    theta(H_c) = 1_c theta(H_c) + (1 - 1_c)R; so a fixes theta(H) iff it
    fixes 1_c theta(H_c), iff it fixes theta(H_c), as D_a vanishes on
    (1 - 1_c)R.  Hence the fixer of theta(H) is the union over c of
    fixer(theta(H_c)) & c.  Products and inverses never leave a
    component, so a set of arrows is closed iff its part in each component
    is, and every wide fixer is closed iff every part fixer is.  So the
    part fixers are probed with the others, and the first probe whose
    fixer is not closed is the violation; with one component the parts
    are the wide H themselves."""
    inst, ctx = state.inst, state.ctx
    parts = [(c, h) for c, hs in zip(ctx.components, ctx.wide_parts) for h in hs]
    probes = [
        ("span(1)", Subspace.span(inst.field, inst.algebra.unit)),
        ("center", ctx.center),
        ("invariants", ctx.invariant_ring),
        *((f"theta{h.label()}", ctx.theta(h)) for _, h in parts),
    ]
    fixed = {}
    for label, t in probes:
        try:
            fixed[label] = fixer_subgroupoid(inst.action, t).members
        except CERTIFICATE_ERRORS as e:  # closure failure is a theorem violation
            return Outcome(
                "violation",
                f"fixer of {label} is not a subgroupoid",
                {"subalgebra": label, "error": str(e)},
            )
    piece = {h.members: fixed.pop(f"theta{h.label()}") & c for c, h in parts}
    for h in ctx.wide_subgroupoids:
        fixed[f"theta{h.label()}"] = frozenset().union(*(piece[h.members & c] for c in ctx.components))
    return Outcome(
        "pass",
        f"{len(fixed)} fixer sets certified closed",
        {"fixers": {label: inst.groupoid.label(members) for label, members in sorted(fixed.items())}},
    )


@check("prop_2_2", "prop_2_2")
def _prop_2_2(state: SuiteState) -> Outcome:
    """Restrictions are actions and stay Galois, by inheritance: no
    restriction is built and no coordinate system re-certified.  The
    detail says both halves are proved, and names this docstring.

    Action.  Let H be a subgroupoid (the enumeration returns closed,
    nonempty sets) and R_H = 1_H R with 1_H = sum of the 1_e over the
    identities e of H.  The 1_e are central orthogonal idempotents,
    certified at load, so R_H is an ideal and a ring with unit 1_H, and
    each 1_e lies in it.  For a in H, beta_a carries E_{d(a)} onto
    E_{r(a)} <= R_H and vanishes off E_{d(a)}, so it maps R_H into R_H.
    These are the only facts new to the restriction: every other axiom
    is the parent's at the same arrows, read through the embedding
    R_H -> R (proof in ``restrict``).

    Galois.  Let (x_i, y_i) be the certified coordinates of R.  For g in
    H, 1_H 1_{g^-1} = 1_{g^-1}, and 1_H, being central, fixes
    beta_g(r 1_{g^-1}) in E_{r(g)} <= R_H, so
    sum_i x_i 1_H beta_g(y_i 1_H 1_{g^-1}) = sum_i x_i beta_g(y_i 1_{g^-1}),
    which is 1_g at an identity g and 0 otherwise.  So the truncated
    pairs (x_i 1_H, y_i 1_H) are coordinates of R_H over H."""
    galois = state.galois
    n = len(state.ctx.all_subgroupoids)
    if not galois:
        return _skip(
            f"{n} restrictions are actions, proved from the action axioms (proof in _prop_2_2); Galois gate unmet"
        )
    return Outcome(
        "pass",
        f"{n} restrictions are actions and Galois, proved from the action axioms "
        "and the certified coordinates (proof in _prop_2_2)",
    )


# --- skew groupoid ring and the j isomorphism ----------------------------------


@check("skew_ring", "definition_skew_groupoid_ring")
def _skew_ring(state: SuiteState) -> Outcome:
    """R*G is associative and unital by the action axioms certified at load
    (proof in ``build_skew_groupoid_ring``), and the detail says so."""
    dim = state.skew.dim
    return Outcome(
        "pass",
        f"dim {dim}; associative and unital, proved from the action axioms (proof in build_skew_groupoid_ring)",
        {"dim": dim},
    )


@check("j_isomorphism", "lemma_3_1")
def _j_isomorphism(state: SuiteState) -> Outcome:
    """j is decided bijective by ranks; that it is multiplicative and
    unital is proved from the action axioms (see
    ``build_skew_groupoid_ring``), and the record states it."""
    if not state.galois:
        return _skip("needs a certified Galois coordinate system")
    jrep = j_isomorphism_check(state.inst.action, state.skew, state.ctx.invariant_ring)
    return Outcome(
        "pass" if jrep.ok else "violation",
        f"dim skew ring {jrep.dim_skew} vs dim End {jrep.dim_end}; "
        f"injective={jrep.injective} surjective={jrep.surjective} "
        "multiplicative=True unital=True",
        {
            "dim_skew": jrep.dim_skew,
            "dim_end": jrep.dim_end,
            "injective": jrep.injective,
            "surjective": jrep.surjective,
            "multiplicative": True,
            "unital": True,
        },
    )


# --- Section 3 ----------------------------------------------------------------


@check("lemma_3_1", "lemma_3_1")
def _lemma_3_1(state: SuiteState) -> Outcome:
    """V_R(R^beta) is the direct sum of the J_g, on every subgroupoid's
    restriction, decided in R's own coordinates from the parent's facts.

    Both sides of the lemma on the restriction (H, R_H) are read off R
    through the embedding R_H = 1_H R, with 1_H central:

    - The restriction's J_g is the parent's J_g, for g in H.  Both lie in
      E_{r(g)} <= R_H, and for r there an element x of R and x 1_H impose
      the same condition: beta_g(x 1_H 1_{g^-1}) = beta_g(x 1_{g^-1})
      since 1_{g^-1} <= 1_H, and x 1_H r = x r since r = 1_H r.  So the
      sum over H is ``ctx.gamma(H)``, with its directness certificate.
    - R = R_H + (1 - 1_H)R, and theta(H) = R_H^beta + (1 - 1_H)R, since
      the condition beta_h(r 1_{h^-1}) = r 1_h reads only r 1_H.  So
      V_{R_H}(R_H^beta) = 1_H V_R(theta(H)): an element w = 1_H w of R_H
      commuting with R_H^beta also commutes with (1 - 1_H)R, where both
      products vanish, so it lies in V_R(theta(H)); and 1_H v lies in R_H
      and commutes with R_H^beta <= theta(H) for v in V_R(theta(H)).
      For a wide H, 1_H = 1 and no cut is needed.

    It is decided one connected component at a time.  With the facts in
    ``GaloisContext.component_subgroupoids`` and 1_H = sum_c 1_{H_c},
    1_H V_R(theta(H)) = sum_c 1_{H_c} V_{R_c}(1_c theta(H_c)), which is
    the sum of the cut commutants of the nonempty H_c; and the sum of the
    J_g over H is the direct sum of those over the H_c.  So the two sides
    agree on H, with a direct sum, iff they do on each nonempty H_c, and
    the lemma holds on every H iff it holds on every H inside one
    component.  The failures listed are those H inside one component; the
    passing record counts every H."""
    if not state.galois:
        return _skip("Galois gate unmet")
    act, ctx = state.inst.action, state.ctx
    failures = []
    for h in ctx.component_subgroupoids:
        vr = state.facts.commutant(ctx.theta(h))
        if not h.wide:
            vr = Subspace(act.field, act.algebra.dim, act.algebra.products(vr.basis, act.unit_of(h)[None])[:, 0])
        total, direct = ctx.gamma(h)
        equal = total == vr
        if not (equal and direct):
            failures.append(
                {
                    "subgroupoid": h.label(),
                    "equal": equal,
                    "direct": direct,
                    "commutant_dim": vr.dim,
                    "sum_dim": total.dim,
                }
            )
    checks, wide = len(ctx.all_subgroupoids), len(ctx.wide_subgroupoids)
    return Outcome(
        "violation" if failures else "pass",
        f"{checks} restriction checks ({wide} wide); decomposition "
        + ("violated" if failures else "exact and direct everywhere"),
        {"failures": failures} if failures else {"checks": checks, "wide": wide},
    )


@check("lemma_3_2", "lemma_3_2")
def _lemma_3_2(state: SuiteState) -> Outcome:
    """theta(H) = theta(L) forces H = L on the wide subgroupoids with
    J != 0 throughout; the all-subgroupoid reading is reported as data
    alongside but never judged.

    The gated subgroupoids are grouped by ``state.theta_keys``, whose
    keys are equal for two subgroupoids exactly when their theta values
    are, so a pair coincides iff it lies in one class (``_classes``), and
    no theta(H) is formed.  A wide pair in a class is a violation, listed
    as a pair, in the order of the all-pairs sweep over the gated list.
    The non-wide data is listed once per theta-class: a class of k >= 2
    members, w < k of them wide, as its labels in enumeration order.  The
    non-wide coinciding pairs (H, L), H before L in the gated list, are
    then exactly the pairs of a class, read in enumeration order, that are
    not both wide: a class of wide members only has no pair that is not
    wide.  So there are sum C(k, 2) - C(w, 2) of them over the classes,
    the count recorded beside the classes.  The pair counts are tallies:
    with W of the G gated subgroupoids wide, W(W - 1)/2 pairs are wide
    and the other G(G - 1)/2 - W(W - 1)/2 are not."""
    if not state.galois:
        return _skip("Galois gate unmet")
    subs = state.ctx.all_subgroupoids
    # the hypothesis J != 0 on H and L: keep only the subgroupoids that
    # hold no zero-J arrow
    zero_j = {a for a, j in state.ctx.jmodules.items() if j.dim == 0}
    gated = [not h.members & zero_j for h in subs]
    wide = sum(h.wide for keep, h in zip(gated, subs) if keep)
    checked = wide * (wide - 1) // 2
    non_wide = sum(gated) * (sum(gated) - 1) // 2 - checked
    wide_pairs, classes, coincidences = [], [], 0
    for members in _classes(state.theta_keys, gated.__getitem__):
        in_wide = [i for i in members if subs[i].wide]
        wide_pairs += combinations(in_wide, 2)
        k, w = len(members), len(in_wide)
        if w < k:
            classes.append([subs[i].label() for i in members])
            coincidences += k * (k - 1) // 2 - w * (w - 1) // 2
    bad_pairs = [[subs[i].label(), subs[j].label()] for i, j in sorted(wide_pairs)]
    witnesses = {
        "non_wide_pairs_reported": non_wide,
        "non_wide_theta_classes": classes,
        "non_wide_coincidences": coincidences,
    }
    witnesses.update({"pairs": bad_pairs} if bad_pairs else {"checked": checked})
    return Outcome(
        "violation" if bad_pairs else "pass",
        f"{checked} gated wide pairs; theta(H)=theta(L) forces H=L",
        witnesses,
    )


def _theta_wide_witness(state: SuiteState) -> dict:
    injective, coincidence = state.theta_wide
    return {"wide_subgroupoids": len(state.ctx.wide_subgroupoids)} if injective else {"coincidence": coincidence}


@check("theorem_3_3", "theorem_3_3")
def _theorem_3_3(state: SuiteState) -> Outcome:
    ctx = state.ctx
    injective = state.theta_wide[0]
    if not state.galois or not all(ctx.jmodules[a].dim > 0 for a in state.inst.groupoid.arrows()):
        why = "Galois gate unmet" if not state.galois else "some J_g = 0"
        return _skip(
            f"{why}; theta injective on wide subgroupoids anyway: {injective}",
            {"theta_injective_wide": injective},
        )
    return Outcome(
        "pass" if injective else "violation",
        f"all J_g nonzero; theta injective on {len(ctx.wide_subgroupoids)} wide subgroupoids: {injective}",
        _theta_wide_witness(state),
    )


# --- flags: Azumaya / central Galois / Hirata chain ------------------------------


@check("azumaya", "definition_azumaya")
def _azumaya(state: SuiteState) -> Outcome:
    return Outcome("pass", f"separable over its center: {state.azu}", {"azumaya": state.azu})


@check("central_galois", "definition_central_galois")
def _central_galois(state: SuiteState) -> Outcome:
    ctx = state.ctx
    return Outcome(
        "pass",
        f"C(R) = R^beta with certified coordinates: {state.central}",
        {
            "central_galois": state.central,
            "center_dim": ctx.center.dim,
            "invariants_dim": ctx.invariant_ring.dim,
        },
    )


@check("remark_2_3", "remark_2_3")
def _remark_2_3(state: SuiteState) -> Outcome:
    expected = state.inst.flags.get("central_galois_expected")
    if expected is not None and expected != state.central:
        return Outcome(
            "violation",
            "instance flag central_galois_expected disagrees with the computed flag",
            {"expected": expected, "computed": state.central},
        )
    if not state.central:
        return _skip("not a central Galois algebra; chain not applicable")
    # under the central gate R is Azumaya by proof (``SuiteState.azu``)
    return Outcome(
        "pass",
        "central Galois algebra is Azumaya, proved from the certified coordinates (proof in SuiteState.azu)",
        {"azumaya": True},
    )


@check("lemma_3_4", "lemma_3_4")
def _lemma_3_4(state: SuiteState) -> Outcome:
    """The product rule; the table is reported whether or not the gate is met.

    Each product J_x J_y is formed once per ordered arrow pair (x, y): the
    forward, reversed and particular products repeat.  Two facts of the
    action axioms certified at load spare most of them.

    - J_x J_y = 0 unless r(x) = r(y): J_x lies in E_{r(x)} and J_y in
      E_{r(y)}, and E_e E_f = 0 for e != f, as the 1_e are central
      orthogonal idempotents.  So a product is formed only where both
      modules are nonzero and share their object, and a zero product is
      included in every J_gh.
    - V_{E_e}(R) = J_e at an identity e: beta_e is the identity on E_e and
      1_{e^-1} = 1_e, so the condition on r in E_e reads r x 1_e = x r for
      all x in R, and r x 1_e = r 1_e x = r x, as 1_e is central."""
    act, ctx, g = state.inst.action, state.ctx, state.inst.groupoid
    jm = ctx.jmodules
    zero = Subspace.zero(act.field, act.algebra.dim)

    @cache
    def prod(x: int, y: int) -> Subspace:  # J_x J_y
        if jm[x].dim and jm[y].dim and g.target[x] == g.target[y]:
            return product_space(act.algebra, jm[x], jm[y])
        return zero

    pair_rows = []
    for a, b in pair_star(g):  # (g,h) with d(g) = r(h)
        forward, target = prod(b, a), jm[g.comp[a][b]]
        pair_rows.append(
            {
                "g": g.names[a],
                "h": g.names[b],
                "gh": g.names[g.comp[a][b]],
                "equal": forward == target,
                "included": forward.dim == 0 or target.contains_space(forward),
                "reversed_equal": prod(a, b) == target,
            }
        )
    particular = [{"g": g.names[a], "equal": prod(g.inv[a], a) == jm[g.target[a]]} for a in g.arrows()]
    witnesses = {"pairs": pair_rows, "particular": particular}
    if not state.central:
        return _skip(
            "Hirata separability not expected; product table reported, inclusions not upgraded to failures",
            witnesses,
        )
    ok = all(row["equal"] for row in pair_rows + particular)
    return Outcome(
        "pass" if ok else "violation",
        f"{len(pair_rows)} composable pairs; J_h J_g = J_gh and J_g^-1 J_g = V_Eg(R)",
        witnesses,
    )


@check("theorem_3_5", "theorem_3_5")
def _theorem_3_5(state: SuiteState) -> Outcome:
    if not state.central:
        return _skip("hypothesis (Hirata/central) unmet")
    injective = state.theta_wide[0]
    return Outcome(
        "pass" if injective else "violation",
        f"Hirata-separable/central Galois instance; theta injective: {injective}",
        _theta_wide_witness(state),
    )


@check("lemma_3_6", "lemma_3_6")
def _lemma_3_6(state: SuiteState) -> Outcome:
    """sigma is injective on the support.

    The support of H is H's arrows with J != 0, and whether J_a = J_b
    depends on the arrows alone, not on H.  So sigma fails on the support
    of some H iff two arrows with J != 0 have equal J: a clash of H is
    such a pair, and conversely any such pair lies in the support of G,
    which is a subgroupoid.  The equal pairs a < b are the pairs of the
    classes of ``J.key()`` over the arrows with J != 0 (``_classes``), and
    each is one clash; the H that fail are those holding both arrows of a
    clash."""
    if not state.galois:
        return _skip("Galois gate unmet")
    ctx, g = state.ctx, state.inst.groupoid
    jm = ctx.jmodules
    classes = _classes([jm[a].key() for a in g.arrows()], lambda a: jm[a].dim > 0)
    clashes = [{"g": g.names[a], "h": g.names[b]} for a, b in sorted(p for c in classes for p in combinations(c, 2))]
    if clashes:
        detail = f"sigma not injective on the support of G: {len(clashes)} pairs of arrows with equal nonzero J"
        return Outcome("violation", detail, {"clashes": clashes})
    detail = "sigma restricted to each support set is injective"
    return Outcome("pass", detail, {"subgroupoids": len(ctx.all_subgroupoids)})


@check("lemma_3_7", "lemma_3_7")
def _lemma_3_7(state: SuiteState) -> Outcome:
    """gamma(H) = V_R(R^(beta_S)) on every wide H, with S = S_H the arrows
    of H whose J is not 0; decided on the parts H_c of the wide H in each
    component (``ctx.wide_parts``).

    Let X = R^(beta_S) for an arrow set S.  Each 1_c lies in X: for h in
    c, beta_h(1_c 1_{d(h)}) = beta_h(1_{d(h)}) = 1_{r(h)} = 1_c 1_{r(h)};
    for h outside c both sides are 0.  So, with the facts in
    ``GaloisContext.component_subgroupoids``, V_R(X) is the sum over c of
    V_{R_c}(1_c X).  The condition at h reads only r 1_{d(h)} and
    r 1_{r(h)}, so 1_c X = 1_c R^(beta_{S_c}), S_c = S & c; and as
    R^(beta_{S_c}) also holds every 1_c, 1_c V_R(R^(beta_{S_c})) is
    V_{R_c}(1_c X).  The support of H_c is S_H & c.  So
    V_R(R^(beta_{S_H})) is the sum over c of 1_c V_R(R^(beta_{S_{H_c}})),
    and gamma(H) is the sum of the gamma(H_c), each inside R_c.  Both
    sides are direct sums over the R_c, so they are equal iff
    gamma(H_c) = 1_c V_R(R^(beta_{S_{H_c}})) on every c, and the lemma
    holds on every wide H iff it holds on every part.  1_c is the unit
    1_{H_c} of the part, and a part is wide only when c is the only
    component, where no cut is needed.  The failures listed are the
    failing parts."""
    if not state.galois:
        return _skip("Galois gate unmet")
    act, ctx = state.inst.action, state.ctx
    fails = []
    for h in chain.from_iterable(ctx.wide_parts):
        gam, _ = ctx.gamma(h)
        vs = state.facts.commutant(ctx.invariants(ctx.support(h)))
        if not h.wide:
            vs = Subspace(act.field, act.algebra.dim, act.algebra.products(vs.basis, act.unit_of(h)[None])[:, 0])
        if gam != vs:
            fails.append({"subgroupoid": h.label(), "gamma_dim": gam.dim, "commutant_dim": vs.dim})
    return Outcome(
        "violation" if fails else "pass",
        f"gamma(H) = V_R(R^(beta_S_H)) on {len(ctx.wide_subgroupoids)} wide subgroupoids",
        {"failures": fails} if fails else {"checked": len(ctx.wide_subgroupoids)},
    )


@check("lemma_3_8", "lemma_3_8")
def _lemma_3_8(state: SuiteState) -> Outcome:
    if not state.galois:
        return _skip("Galois gate unmet")
    if not state.gamma_wide_inj:
        return _skip("gamma not injective on wide subgroupoids")
    ctx = state.ctx
    squeezed = []
    for h in ctx.wide_subgroupoids:
        sup = set(ctx.support(h))
        for hp in ctx.all_subgroupoids:
            if sup < hp.members < h.members:
                squeezed.append({"subgroupoid": h.label(), "between": hp.label()})
    if squeezed:
        detail = f"{len(squeezed)} (H, subgroupoid) pairs with the subgroupoid strictly between S_H and H"
        return Outcome("violation", detail, {"violations": squeezed})
    return Outcome("pass", "no proper subgroupoid strictly between S_H and H", {"wide": len(ctx.wide_subgroupoids)})


@check("theorem_3_9", "theorem_3_9")
def _theorem_3_9(state: SuiteState) -> Outcome:
    """The double-centralizer sweep over the separable subalgebras
    containing the center, one block at a time (``SuiteState.blocks``).

    A member fails when V(V(A)) != A, when V(A) is not separable over the
    center, or when A is central (A cap V(A) is the center) and
    mu: A (x)_C V(A) -> R is not an isomorphism.  Split into objects, the
    statement holds on every sum S = (+)_e S_e iff it holds on every block
    member S_e in its block.  S holds every 1_e, so V_R(S) = (+)_e V(S_e)
    and V_R(V_R(S)) = (+)_e V(V(S_e)); V_R(S) is separable over C(R) iff
    each V(S_e) is over C(E_e) (``SuiteState.blocks``); S cap V_R(S) is
    (+)_e S_e cap V(S_e), so S is central iff each S_e is; and
    A (x)_C V(A) and the span of the products are direct sums over the
    blocks (a cross term x 1_e (x) 1_e' y vanishes), so mu is an
    isomorphism iff each block's is.  A failing S therefore has a failing
    S_e: a failed double centralizer or separability fails in some block,
    and a failed tensor clause means every S_e is central and some
    block's mu is not an isomorphism.  Conversely a failing S_e fails in
    the sum of S_e with E_e' in every other block, since E_e' is in each
    list (``SuiteState.blocks``), is central, and passes every clause:
    V(E_e') = C(E_e'), whose commutant is E_e', is separable over itself,
    and E_e' (x)_C C(E_e') = E_e'.  So the count swept is the product of
    the blocks' counts, and the failures are the failing block members,
    each named by its object, in R's coordinates."""
    if not state.azu:
        return _skip("R is not Azumaya (hypothesis not met)")
    fails = [
        {
            **b.witness(res.subalgebra),
            "result": {
                "dim": res.subalgebra.dim,
                "double_centralizer": res.double_centralizer_holds,
                "commutant_separable": res.commutant_separable,
                "tensor_clause": res.tensor_clause,
            },
        }
        for b in state.blocks
        for res in double_centralizer_sweep(b.alg, b.enum.subalgebras, b.center, b.facts)
    ]
    n, note = state.separable_count, state.enum_note
    return Outcome(
        "violation" if fails else "pass",
        f"{n} separable subalgebras containing the center swept ({note})",
        {"failures": fails} if fails else {"swept": n, "mode": note},
    )


def _dcp_unmet(state: SuiteState) -> str | None:
    """Why the hypotheses of Theorems 3.10 and 3.11 fail, or None."""
    if not state.galois:
        return "Galois gate unmet"
    if state.dcp_fail is not None:
        return "double-centralizer hypothesis unmet for an invariant ring"
    return None


@check("theorem_3_10", "theorem_3_10")
def _theorem_3_10(state: SuiteState) -> Outcome:
    """theta is injective on the wide subgroupoids iff gamma is, under the
    double-centralizer hypothesis; the all-subgroupoid readings are
    reported alongside.  theta (gamma) is injective on every H iff
    ``state.theta_keys`` (``state.gamma_keys``) has no class of equal
    keys, since keys are equal exactly when the values are; so no
    theta(H) or gamma(H) is formed."""
    both = {
        "theta_injective": {"wide": state.theta_wide[0], "all": not _classes(state.theta_keys)},
        "gamma_injective": {"wide": state.gamma_wide_inj, "all": not _classes(state.gamma_keys)},
    }
    why = _dcp_unmet(state)
    if why:
        fail = state.dcp_fail
        return _skip(why, both if fail is None else {**both, "double_centralizer_failure": fail})
    # judged on theta's fixed wide domain; all-subgroupoid reading reported
    ok = state.theta_wide[0] == state.gamma_wide_inj
    return Outcome(
        "pass" if ok else "violation",
        "double centralizer holds for every invariant ring; theta and gamma injectivity coincide",
        both if ok else {"table": both, "note": "equivalence failed on wide domain"},
    )


@check("theorem_3_11", "theorem_3_11")
def _theorem_3_11(state: SuiteState) -> Outcome:
    """gamma(H) = gamma(L), theta(H) = theta(L) and "J = 0 on
    join(H, L) outside H & L" coincide; a pair is reported where they
    disagree.

    The pairs are swept by class, not all N(N - 1)/2 of them.  Three
    booleans that disagree are not all false, so a reported pair has
    eq_gamma, eq_theta or j_zero true.  The first two are equalities of
    subspaces, that is, of keys, so such a pair lies in one class of
    ``state.gamma_keys`` or of ``state.theta_keys``.  For j_zero, let Z
    be the set of arrows with J = 0.  H and L lie in join(H, L), so
    H - L and L - H lie outside H & L, and j_zero puts both inside Z.
    Then H - Z lies in H & L, hence in L - Z, and by symmetry
    H - Z = L - Z.  gamma(H) is the sum of the J_a over H - Z, so then
    gamma(H) = gamma(L), and the pair lies in a gamma class too.  Only
    the pairs of the two sets of classes are decided, in the all-pairs
    order, and only those with H - Z = L - Z form a join; the pair counts
    are tallies, as in ``_lemma_3_2``.  Both equalities are read off the
    per-component keys ``ctx.gamma_key`` and ``ctx.theta_key``, which are
    equal exactly when the subspaces are, so no theta(H) or gamma(H) is
    formed.

    The non-wide discrepancies stay pairs, not classes as in
    ``_lemma_3_2``: a discrepancy is a disagreement of three relations, and
    j_zero is not transitive, so the discrepant pairs need not make up the
    pairs of any partition.  The list is small: at most 1.3 KB of the
    report on every benchmark document (``klein_disjoint2``)."""
    why = _dcp_unmet(state)
    if why:
        return _skip(why)
    ctx = state.ctx
    subs = ctx.all_subgroupoids
    zero_j = frozenset(a for a, j in ctx.jmodules.items() if j.dim == 0)
    gamma_keys, theta_keys = state.gamma_keys, state.theta_keys
    nonzero = [h.members - zero_j for h in subs]
    wide = sum(h.wide for h in subs)
    pairs = wide * (wide - 1) // 2
    non_wide_pairs = len(subs) * (len(subs) - 1) // 2 - pairs
    bad = []
    non_wide_discrepancies = []
    classes = _classes(gamma_keys) + _classes(theta_keys)
    for i, j in sorted({p for c in classes for p in combinations(c, 2)}):
        h, l = subs[i], subs[j]
        eq_gamma = gamma_keys[i] == gamma_keys[j]
        eq_theta = theta_keys[i] == theta_keys[j]
        j_zero = nonzero[i] == nonzero[j] and join(h, l).members - (h.members & l.members) <= zero_j
        if eq_gamma == eq_theta == j_zero:
            continue
        row = {
            "H": h.label(),
            "L": l.label(),
            "gamma_equal": eq_gamma,
            "theta_equal": eq_theta,
            "j_zero_outside_intersection": j_zero,
        }
        (bad if h.wide and l.wide else non_wide_discrepancies).append(row)
    witnesses = {"non_wide_pairs_reported": non_wide_pairs, "non_wide_discrepancies": non_wide_discrepancies}
    witnesses.update({"failures": bad} if bad else {"pairs": pairs})
    return Outcome(
        "violation" if bad else "pass",
        f"three-way equivalence checked on {pairs} wide subgroupoid pairs",
        witnesses,
    )


# --- Section 4: gated on R being a certified central Galois algebra ------------

_S4_UNMET = _skip("standing hypothesis unmet: R is not a certified central Galois algebra")


@check("fundamental_theorem", "section_4_preamble", "s4")
def _fundamental_theorem(state: SuiteState) -> Outcome:
    if not state.central:
        return _S4_UNMET
    n = state.separable_count
    injective = state.theta_wide[0]
    image_separable, onto = state.theta_image
    if state.ft_decided:
        detail = (
            f"theta {'is' if state.ft_holds else 'is NOT'} a bijection onto the "
            f"{n} separable subalgebras (exhaustive)"
        )
    else:
        detail = (
            f"injective={injective}, image separable={image_separable}; "
            f"surjectivity onto {n} pool candidates: "
            + ("no counterexample found" if onto else "counterexample found")
        )
    return Outcome(
        "pass" if state.ft_decided else "inconclusive",
        detail,
        {
            "wide_subgroupoids": len(state.ctx.wide_subgroupoids),
            "separable_subalgebras": n,
            "mode": state.enum_note,
            "injective": injective,
            "image_separable": image_separable,
            "surjective": onto,
            "holds": state.ft_holds,
        },
    )


@check("theorem_4_1", "theorem_4_1", "s4")
def _theorem_4_1(state: SuiteState) -> Outcome:
    """Both identities on every separable subalgebra over the center, read
    one block member at a time (proof in ``SuiteState.identities``); a
    failure is a block member, named by its object where R is split."""
    if not state.central:
        return _S4_UNMET
    if not (state.ft_holds and state.ft_decided):
        return _skip("R does not (decidably) satisfy the fundamental theorem")
    fails = []
    for b in state.blocks:
        for s in b.enum.subalgebras:
            ok1, ok2 = state.identities(b, s)
            if not (ok1 and ok2):
                fails.append({**b.witness(s), "v_r": ok1, "s_sum": ok2})
    n = state.separable_count
    return Outcome(
        "violation" if fails else "pass",
        f"both displayed identities on {n} separable subalgebras",
        {"failures": fails} if fails else {"checked": n},
    )


@check("lemma_4_2", "lemma_4_2", "s4")
def _lemma_4_2(state: SuiteState) -> Outcome:
    """R is separable over theta(H) for every wide H, by proof from the
    certified coordinates: no tensor square is built.  The detail says so
    and names this docstring.

    Let (x_i, y_i) be the certified coordinates, so that
    sum_i x_i beta_g(y_i 1_{g^-1}) = delta_g 1_{r(g)} for every arrow g.
    Dual condition: at g = h^-1, multiply by 1_{d(h)} and apply the ring
    isomorphism beta_h: E_{d(h)} -> E_{r(h)}; since
    beta_h beta_{h^-1} is the identity on E_{r(h)},
    sum_i beta_h(x_i 1_{h^-1}) y_i = delta_h 1_{r(h)}.

    Let H be wide, z = sum_i x_i (x) y_i in R (x)_{theta(H)} R and
    t_H(a) = sum_{g in H} beta_g(a 1_{g^-1}).

    - mu(z) = sum_i x_i y_i = sum_e 1_e = 1, the condition at the
      identities e, where beta_e is the identity on E_e.
    - t_H(R) <= theta(H): for h in H, beta_h(t_H(a) 1_{h^-1}) is the sum
      of beta_{hg}(a 1_{(hg)^-1}) over the g in H with r(g) = d(h), and
      hg runs over the k in H with r(k) = r(h), which gives t_H(a) 1_{r(h)}.
    - (I) a = sum_j x_j t_H(y_j a): beta_g is multiplicative on E_{g^-1},
      so the right side is sum_{g in H} delta_g 1_{r(g)} beta_g(a 1_{g^-1})
      = sum of a 1_e over the identities e of H, which is a as H is wide.
    - (II) a = sum_i t_H(a x_i) y_i, in the same way from the dual.

    Then r z = z r.  By (I) with a = r x_i,
    r z = sum_i r x_i (x) y_i = sum_{i,j} x_j t_H(y_j r x_i) (x) y_i.
    Each t_H(...) lies in theta(H), so it moves across the tensor sign:
    r z = sum_j x_j (x) sum_i t_H(y_j r x_i) y_i, and (II) with a = y_j r
    makes the right factor y_j r, so r z = sum_j x_j (x) y_j r = z r.
    With mu(z) = 1, z is a separability idempotent.  The tests keep the
    substitution check of these clauses and the tensor-square solve on
    every wide H as the oracle."""
    if not state.central:
        return _S4_UNMET
    n = len(state.ctx.wide_subgroupoids)
    return Outcome(
        "pass",
        f"separable over all {n} invariant rings, proved from the certified coordinates (proof in _lemma_4_2)",
        {"checked": n},
    )


# Theorems 4.3 and 4.4: the two directions of the characterization


@check("theorem_4_3", "theorem_4_3", "s4")
def _theorem_4_3(state: SuiteState) -> Outcome:
    if not state.central:
        return _S4_UNMET
    if not state.identity_all:
        return _skip("hypothesis unmet: decomposition fails for some separable S")
    if not state.ft_decided:
        return Outcome("inconclusive", "hypothesis met on the pool, but the enumeration is pool-restricted")
    holds = state.ft_holds
    return Outcome(
        "pass" if holds else "violation",
        "V_R(S) decomposition holds for every separable S; fundamental theorem follows",
        {"holds": holds} if holds else {"holds": holds, "mode": state.enum_note},
    )


@check("theorem_4_4", "theorem_4_4", "s4")
def _theorem_4_4(state: SuiteState) -> Outcome:
    if not state.central:
        return _S4_UNMET
    holds, identity_all = state.ft_holds, state.identity_all
    if not state.ft_decided:
        return Outcome(
            "inconclusive",
            "pool-restricted enumeration; biconditional checked only on the pool",
            {"fundamental_theorem_so_far": holds, "decomposition_on_pool": identity_all},
        )
    biconditional = holds == identity_all
    return Outcome(
        "pass" if biconditional else "violation",
        f"fundamental theorem {'holds' if holds else 'fails'} and the V_R(S) "
        f"decomposition {'holds' if identity_all else 'fails'} -- biconditional "
        + ("respected" if biconditional else "VIOLATED"),
        {"fundamental_theorem": holds, "decomposition_for_all_separable": identity_all},
    )


def _classes(keys: list, keep: Callable[[int], bool] = lambda i: True) -> list[list[int]]:
    """The classes of equal keys among the indices i that ``keep`` admits,
    those of two or more members only: each in increasing order, the
    classes ordered by their first index."""
    classes: dict = {}
    for i, key in enumerate(keys):
        if keep(i):
            classes.setdefault(key, []).append(i)
    return [c for c in classes.values() if len(c) > 1]


def _pool(state: SuiteState) -> list[Subspace]:
    """Seed pool: subalgebras from <=2 basis elements, theta images, user seeds."""
    inst = state.inst
    pool = []
    n = inst.algebra.dim
    basis = inst.algebra.basis_vectors()
    for i in range(n):
        pool.append(Subspace.span(inst.field, basis[i]))
        for j in range(i + 1, n):
            pool.append(Subspace.span(inst.field, np.vstack([basis[i], basis[j]])))
    for h in state.ctx.wide_subgroupoids:
        pool.append(state.ctx.theta(h))
    for gens in inst.subalgebra_seeds:
        pool.append(Subspace.span(inst.field, np.vstack(gens)))
    return pool
