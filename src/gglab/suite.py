"""End-to-end verification suite: runs every anchored check on a loaded
instance in dependency order and assembles the report.

Hypothesis gating discipline: every statement check certifies its
hypotheses first and records pass/skip/violation per instance; a failed
hypothesis always yields "skip" with the failed hypothesis named, never
a silent omission and never a spurious violation.

Each check is one function, registered with ``@check`` under its MANIFEST
id.  It reads the facts it shares with other checks off ``SuiteState``,
where each is computed once, on first use, and returns an ``Outcome``.
``run_suite`` walks MANIFEST, times each call and records the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .action import Action, ActionError, fixer_subgroupoid, invariants, restrict
from .algebra import AlgebraError, commutant, product_space
from .galois import (
    GaloisContext,
    GaloisCoordinates,
    GaloisError,
    SkewGroupoidRing,
    build_skew_groupoid_ring,
    check_galois_coordinates,
    gamma,
    j_isomorphism_check,
    solve_galois_coordinates,
    v_in_ideal,
)
from .groupoid import GroupoidError, Subgroupoid, join, subgroupoid_pairs
from .instances import Instance
from .linalg import Subspace
from .report import CheckRecord, VerificationReport
from .separability import (
    SeparableEnumeration,
    double_centralizer_check,
    enumerate_separable_subalgebras,
    is_central_galois,
    separability_idempotent,
)

# (check id, anchor, scope); order is the run order of a full-scope suite
MANIFEST: list[tuple[str, str, str]] = [
    ("validate_groupoid", "plumbing", "s3"),
    ("validate_algebra", "plumbing", "s3"),
    ("validate_action", "definition_action", "s3"),
    ("galois_coordinates", "definition_galois_extension", "s3"),
    ("jmodules", "definition_j_modules", "s3"),
    ("connecting_arrows", "observation", "s3"),
    ("lemma_2_1", "lemma_2_1", "s3"),
    ("prop_2_2", "prop_2_2", "s3"),
    ("skew_ring", "definition_skew_groupoid_ring", "s3"),
    ("j_isomorphism", "lemma_3_1", "s3"),
    ("lemma_3_1", "lemma_3_1", "s3"),
    ("lemma_3_2", "lemma_3_2", "s3"),
    ("theorem_3_3", "theorem_3_3", "s3"),
    ("azumaya", "definition_azumaya", "s3"),
    ("central_galois", "definition_central_galois", "s3"),
    ("remark_2_3", "remark_2_3", "s3"),
    ("lemma_3_4", "lemma_3_4", "s3"),
    ("theorem_3_5", "theorem_3_5", "s3"),
    ("lemma_3_6", "lemma_3_6", "s3"),
    ("lemma_3_7", "lemma_3_7", "s3"),
    ("lemma_3_8", "lemma_3_8", "s3"),
    ("theorem_3_9", "theorem_3_9", "s3"),
    ("theorem_3_10", "theorem_3_10", "s3"),
    ("theorem_3_11", "theorem_3_11", "s3"),
    ("fundamental_theorem", "section_4_preamble", "s4"),
    ("theorem_4_1", "theorem_4_1", "s4"),
    ("lemma_4_2", "lemma_4_2", "s4"),
    ("theorem_4_3", "theorem_4_3", "s4"),
    ("theorem_4_4", "theorem_4_4", "s4"),
]

# A construction that certifies its result raises one of these when the
# certificate fails, which falsifies the statement being checked.  Any
# other exception is a bug and propagates instead of becoming a violation.
CERTIFICATE_ERRORS = (GroupoidError, ActionError, AlgebraError, GaloisError)


class Outcome(NamedTuple):
    """What a check returns; ``run_suite`` adds the id, anchor and seconds."""

    verdict: str
    detail: str = ""
    witnesses: dict | None = None
    hypothesis: str = "met"


def _skip(detail: str, witnesses: dict | None = None) -> Outcome:
    return Outcome("skip", detail, witnesses, "unmet")


@dataclass
class SuiteState:
    """The facts checks share, each computed once, on first use."""

    inst: Instance
    restrictions: dict[frozenset, tuple[Action, np.ndarray]] = dc_field(default_factory=dict)
    identity_results: dict[tuple, tuple[bool, bool]] = dc_field(default_factory=dict)

    def restriction(self, h: Subgroupoid):
        key = frozenset(h.members)
        if key not in self.restrictions:
            self.restrictions[key] = restrict(self.inst.action, h)
        return self.restrictions[key]

    @cached_property
    def coordinate_failures(self) -> list[tuple[int, np.ndarray]]:
        """(arrow, residual) where the instance's own coordinates fail."""
        given = self.inst.coordinates
        return [] if given is None else check_galois_coordinates(self.inst.action, given)[1]

    @cached_property
    def coords(self) -> GaloisCoordinates | None:
        """Certified coordinates: the instance's own, else solved for."""
        if self.inst.coordinates is None:
            return solve_galois_coordinates(self.inst.action)
        return None if self.coordinate_failures else self.inst.coordinates

    @cached_property
    def ctx(self) -> GaloisContext:
        return GaloisContext(self.inst.action, self.coords)

    @property
    def galois(self) -> bool:
        """The Galois gate: a certified coordinate system exists."""
        return self.ctx.galois_certified

    @cached_property
    def skew(self) -> tuple[SkewGroupoidRing | None, str]:
        """The skew groupoid ring, or None and why its certificate failed."""
        try:
            return build_skew_groupoid_ring(self.inst.action), ""
        except CERTIFICATE_ERRORS as e:
            return None, str(e)

    @cached_property
    def theta_wide(self) -> tuple[bool, list[str] | None]:
        """Whether theta is injective on the wide subgroupoids; else a coinciding pair."""
        return _injective([(h, self.ctx.theta(h)) for h in self.ctx.wide_subgroupoids])

    @cached_property
    def gamma_wide_inj(self) -> bool:
        return _injective([(h, self.ctx.gamma(h)[0]) for h in self.ctx.wide_subgroupoids])[0]

    @cached_property
    def dcp_fail(self) -> dict | None:
        """The first subgroupoid whose invariant ring is not its own bicommutant."""
        alg = self.inst.algebra
        for h in self.ctx.all_subgroupoids:
            th = self.ctx.theta(h)
            vv = commutant(alg, commutant(alg, th, alg.full_space), alg.full_space)
            if vv != th:
                return {"subgroupoid": h.label(), "invariants_dim": th.dim, "bicommutant_dim": vv.dim}
        return None

    @cached_property
    def azu(self) -> bool:
        """R is Azumaya: separable over its center."""
        return separability_idempotent(self.inst.algebra, self.ctx.center) is not None

    @cached_property
    def central(self) -> bool:
        return is_central_galois(self.ctx.center, self.ctx.invariant_ring, self.galois)

    @property
    def hirata(self) -> bool:
        """The Hirata gate: Hirata separability expected (flagged, or central
        Galois) and the Galois gate met."""
        return (bool(self.inst.flags.get("hirata_expected", False)) or self.central) and self.galois

    @property
    def s4(self) -> bool:
        """Section 4's standing hypothesis: a certified central Galois algebra."""
        return self.central and self.galois

    @cached_property
    def center_enum(self) -> SeparableEnumeration:
        return enumerate_separable_subalgebras(self.inst.algebra, self.ctx.center, pool=_pool(self))

    @cached_property
    def base_enum(self) -> SeparableEnumeration:
        # for central Galois instances the base R^beta equals the center
        if self.ctx.invariant_ring == self.ctx.center:
            return self.center_enum
        return enumerate_separable_subalgebras(self.inst.algebra, self.ctx.invariant_ring, pool=_pool(self))

    @cached_property
    def theta_image(self) -> tuple[bool, bool]:
        """Whether theta's wide image lies in, and covers, the separable
        subalgebras over the base."""
        sep = {s.key() for s in self.base_enum.subalgebras}
        image = {self.ctx.theta(h).key() for h in self.ctx.wide_subgroupoids}
        return image <= sep, sep <= image

    @property
    def ft_holds(self) -> bool:
        """theta is a bijection onto the separable subalgebras over the base."""
        return self.theta_wide[0] and all(self.theta_image)

    @property
    def ft_decided(self) -> bool:
        return self.base_enum.exhaustive

    def identities(self, s: Subspace) -> tuple[bool, bool]:
        """Theorem 4.1 on a separable S over the base: V_R(S) = sum of J_g
        over H_S, and S = sum of J_g over H_{V_R(S)}."""
        key = s.key()
        if key not in self.identity_results:
            act, alg, ctx = self.inst.action, self.inst.algebra, self.ctx
            vrs = commutant(alg, s, alg.full_space)
            sum1, direct1 = ctx.gamma(fixer_subgroupoid(act, s))
            sum2, direct2 = ctx.gamma(fixer_subgroupoid(act, vrs))
            self.identity_results[key] = (direct1 and sum1 == vrs, direct2 and sum2 == s)
        return self.identity_results[key]

    @cached_property
    def identity_all(self) -> bool:
        """The first identity holds on every separable S over the base."""
        return all(self.identities(s)[0] for s in self.base_enum.subalgebras)


CHECKS: dict[str, Callable[[SuiteState], Outcome]] = {}


def check(cid: str):
    """Register the decorated function as the MANIFEST check ``cid``."""

    def register(fn):
        if cid in CHECKS:
            raise ValueError(f"check {cid!r} registered twice")
        CHECKS[cid] = fn
        return fn

    return register


def run_suite(inst: Instance, scope: str = "all") -> VerificationReport:
    if scope not in ("s3", "all"):
        raise ValueError(f"unknown scope {scope!r}")
    report = VerificationReport(instance=inst.name, scope=scope)
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
                hypothesis=out.hypothesis,
                verdict=out.verdict,
                detail=out.detail,
                witnesses=out.witnesses or {},
                seconds=seconds,
            )
        )
    return report


# --- validators (already certified during load; record the facts) ----------


@check("validate_groupoid")
def _validate_groupoid(state: SuiteState) -> Outcome:
    g = state.inst.groupoid
    return Outcome("pass", f"{g.size} arrows, {len(g.identities)} identities", {"arrows": list(g.names)})


@check("validate_algebra")
def _validate_algebra(state: SuiteState) -> Outcome:
    inst = state.inst
    return Outcome(
        "pass",
        f"dim {inst.algebra.dim} over {inst.field.kind}" + (f"({inst.field.p})" if inst.field.modular else ""),
        {"basis": list(inst.algebra.labels)},
    )


@check("validate_action")
def _validate_action(state: SuiteState) -> Outcome:
    g, act = state.inst.groupoid, state.inst.action
    return Outcome(
        "pass",
        "all action axioms certified; R is the direct sum of the E_e",
        {"ideal_dims": {g.names[e]: act.ideals[e].dim for e in g.identities}},
    )


# --- Galois coordinates, J modules and the connecting-arrow observation -----


@check("galois_coordinates")
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
    if state.coords is None:
        return Outcome("inconclusive", "no coordinates with basis-pinned x side; not a proof of non-Galois")
    n = len(state.coords.pairs)
    if inst.coordinates is None:
        return Outcome("pass", f"solver found and certified {n} pairs", {"pairs": n})
    return Outcome("pass", f"instance coordinates certified ({n} pairs)", {"pairs": n})


@check("jmodules")
def _jmodules(state: SuiteState) -> Outcome:
    g, jm = state.inst.groupoid, state.ctx.jmodules
    return Outcome("pass", "J modules computed", {"dims": {g.names[a]: jm[a].dim for a in g.arrows()}})


@check("connecting_arrows")
def _connecting_arrows(state: SuiteState) -> Outcome:
    g, jm = state.inst.groupoid, state.ctx.jmodules
    conn = [a for a in g.arrows() if g.source[a] != g.target[a]]
    bad = [g.names[a] for a in conn if jm[a].dim > 0]
    if bad:
        return Outcome("violation", "nonzero J module on an arrow with d(g) != r(g)", {"arrows": bad})
    return Outcome(
        "pass",
        "J_g = 0 on every connecting arrow (forced by R = direct sum of E_e); observation only"
        if conn
        else "no connecting arrows",
        {"connecting_arrows": [g.names[a] for a in conn]},
    )


# --- Section 2 ----------------------------------------------------------------


@check("lemma_2_1")
def _lemma_2_1(state: SuiteState) -> Outcome:
    """Fixers are subgroupoids."""
    inst, ctx = state.inst, state.ctx
    probes = [
        ("span(1)", Subspace.span(inst.field, inst.algebra.unit)),
        ("center", ctx.center),
        ("invariants", ctx.invariant_ring),
    ]
    probes += [(f"theta{h.label()}", ctx.theta(h)) for h in ctx.wide_subgroupoids]
    fixers = {}
    for label, t in probes:
        try:
            fixers[label] = fixer_subgroupoid(inst.action, t)
        except CERTIFICATE_ERRORS as e:  # closure failure is a theorem violation
            return Outcome(
                "violation",
                f"fixer of {label} is not a subgroupoid",
                {"subalgebra": label, "error": str(e)},
            )
    return Outcome(
        "pass",
        f"{len(probes)} fixer sets certified closed",
        {"fixers": {k: v.label() for k, v in sorted(fixers.items())}},
    )


@check("prop_2_2")
def _prop_2_2(state: SuiteState) -> Outcome:
    """Restrictions are actions and stay Galois."""
    act, ctx, galois = state.inst.action, state.ctx, state.galois
    gate = "met" if galois else "unmet"
    notes = []
    restr_ok = True
    for h in ctx.all_subgroupoids:
        try:
            sub_act, _ = state.restriction(h)
        except CERTIFICATE_ERRORS as e:
            restr_ok = False
            notes.append(f"{h.label()}: {e}")
            continue
        if galois:
            sub_coords = _truncated_coordinates(act, state.coords, h, sub_act)
            if sub_coords is None:
                sub_coords = solve_galois_coordinates(sub_act)
            if sub_coords is None:
                notes.append(f"{h.label()}: restricted coordinates not found")
    if not restr_ok:
        return Outcome("violation", "a restriction failed action validation", {"failures": notes}, gate)
    if notes:
        return Outcome(
            "inconclusive",
            "restrictions validate; some restricted coordinate solves inconclusive",
            {"notes": notes},
            gate,
        )
    return Outcome(
        "pass" if galois else "skip",
        f"{len(ctx.all_subgroupoids)} restrictions validated"
        + (" and re-certified Galois" if galois else "; Galois gate unmet"),
        hypothesis=gate,
    )


# --- skew groupoid ring and the j isomorphism ----------------------------------


@check("skew_ring")
def _skew_ring(state: SuiteState) -> Outcome:
    skew, error = state.skew
    if skew is None:
        return Outcome("violation", "skew groupoid ring failed re-certification", {"error": error})
    return Outcome("pass", f"dim {skew.dim}; associativity and unit re-certified", {"dim": skew.dim})


@check("j_isomorphism")
def _j_isomorphism(state: SuiteState) -> Outcome:
    skew, _ = state.skew
    if skew is None or not state.galois:
        return _skip("needs a certified Galois coordinate system")
    jrep = j_isomorphism_check(state.inst.action, skew, state.ctx.invariant_ring)
    return Outcome(
        "pass" if jrep.ok else "violation",
        f"dim skew ring {jrep.dim_skew} vs dim End {jrep.dim_end}; "
        f"injective={jrep.injective} surjective={jrep.surjective} "
        f"multiplicative={jrep.multiplicative} unital={jrep.unital}",
        {
            "dim_skew": jrep.dim_skew,
            "dim_end": jrep.dim_end,
            "injective": jrep.injective,
            "surjective": jrep.surjective,
            "multiplicative": jrep.multiplicative,
            "unital": jrep.unital,
        },
    )


# --- Section 3 ----------------------------------------------------------------


@check("lemma_3_1")
def _lemma_3_1(state: SuiteState) -> Outcome:
    """V_R(R^beta) is the direct sum of the J_g, on every subgroupoid's restriction."""
    if not state.galois:
        return _skip("Galois gate unmet")
    subs = state.ctx.all_subgroupoids
    failures = []
    for h in subs:
        sub_act, _ = state.restriction(h)
        sub_ctx = GaloisContext(sub_act)
        alg = sub_act.algebra
        vr = commutant(alg, sub_ctx.invariant_ring, alg.full_space)
        total, direct = gamma(sub_act, sub_act.groupoid.arrows(), sub_ctx.jmodules)
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
    wide = sum(h.wide for h in subs)
    return Outcome(
        "violation" if failures else "pass",
        f"{len(subs)} restriction checks ({wide} wide); decomposition "
        + ("violated" if failures else "exact and direct everywhere"),
        {"failures": failures} if failures else {"checks": len(subs), "wide": wide},
    )


@check("lemma_3_2")
def _lemma_3_2(state: SuiteState) -> Outcome:
    # theta's fixed domain is the wide subgroupoids; the all-subgroupoid
    # reading is reported as data alongside but never judged
    if not state.galois:
        return _skip("Galois gate unmet")
    ctx = state.ctx
    checked = 0
    bad_pairs = []
    non_wide = 0
    non_wide_coincidences = []
    for h, l in subgroupoid_pairs(ctx.all_subgroupoids):
        if any(ctx.jmodules[a].dim == 0 for a in h.members | l.members):
            continue  # hypothesis J != 0 on H and L unmet for this pair
        coincide = ctx.theta(h) == ctx.theta(l) and h.members != l.members
        if h.wide and l.wide:
            checked += 1
            if coincide:
                bad_pairs.append([h.label(), l.label()])
        else:
            non_wide += 1
            if coincide:
                non_wide_coincidences.append([h.label(), l.label()])
    witnesses = {"non_wide_pairs_reported": non_wide, "non_wide_coincidences": non_wide_coincidences}
    witnesses.update({"pairs": bad_pairs} if bad_pairs else {"checked": checked})
    return Outcome(
        "violation" if bad_pairs else "pass",
        f"{checked} gated wide pairs; theta(H)=theta(L) forces H=L",
        witnesses,
    )


def _theta_wide_witness(state: SuiteState) -> dict:
    injective, coincidence = state.theta_wide
    return {"wide_subgroupoids": len(state.ctx.wide_subgroupoids)} if injective else {"coincidence": coincidence}


@check("theorem_3_3")
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


@check("azumaya")
def _azumaya(state: SuiteState) -> Outcome:
    return Outcome("pass", f"separable over its center: {state.azu}", {"azumaya": state.azu})


@check("central_galois")
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


@check("remark_2_3")
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
    return Outcome(
        "pass" if state.azu else "violation",
        "central Galois algebra is Azumaya (checked in that order); Hirata flag derived",
        {"azumaya": state.azu},
    )


@check("lemma_3_4")
def _lemma_3_4(state: SuiteState) -> Outcome:
    """The product rule; the table is reported whether or not the gate is met."""
    alg, ctx, g = state.inst.algebra, state.ctx, state.inst.groupoid
    jm = ctx.jmodules
    pair_rows = []
    for a, b in ctx.composable_pairs():  # (g,h) with d(g) = r(h)
        jh, jg = jm[b].space, jm[a].space
        prod = product_space(alg, jh, jg)  # J_h J_g
        target = jm[g.comp[a][b]].space
        pair_rows.append(
            {
                "g": g.names[a],
                "h": g.names[b],
                "gh": g.names[g.comp[a][b]],
                "equal": prod == target,
                "included": target.contains_space(prod),
                "reversed_equal": product_space(alg, jg, jh) == target,
            }
        )
    particular = [
        {
            "g": g.names[a],
            "equal": product_space(alg, jm[g.inv[a]].space, jm[a].space) == v_in_ideal(state.inst.action, a),
        }
        for a in g.arrows()
    ]
    witnesses = {"pairs": pair_rows, "particular": particular}
    if not state.hirata:
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


@check("theorem_3_5")
def _theorem_3_5(state: SuiteState) -> Outcome:
    if not state.hirata:
        return _skip("hypothesis (Hirata/central) unmet")
    injective = state.theta_wide[0]
    return Outcome(
        "pass" if injective else "violation",
        f"Hirata-separable/central Galois instance; theta injective: {injective}",
        _theta_wide_witness(state),
    )


@check("lemma_3_6")
def _lemma_3_6(state: SuiteState) -> Outcome:
    """sigma is injective on the support."""
    if not state.galois:
        return _skip("Galois gate unmet")
    ctx, g = state.ctx, state.inst.groupoid
    clashes = [
        {"subgroupoid": h.label(), "g": g.names[a], "h": g.names[b]}
        for h in ctx.all_subgroupoids
        for a, b in combinations(ctx.support(h), 2)
        if ctx.jmodules[a].space == ctx.jmodules[b].space
    ]
    return Outcome(
        "violation" if clashes else "pass",
        "sigma restricted to each support set is injective",
        {"clashes": clashes} if clashes else {"subgroupoids": len(ctx.all_subgroupoids)},
    )


@check("lemma_3_7")
def _lemma_3_7(state: SuiteState) -> Outcome:
    if not state.galois:
        return _skip("Galois gate unmet")
    act, alg, ctx = state.inst.action, state.inst.algebra, state.ctx
    fails = []
    for h in ctx.wide_subgroupoids:
        gam, _ = ctx.gamma(h)
        vs = commutant(alg, invariants(act, ctx.support(h)), alg.full_space)
        if gam != vs:
            fails.append({"subgroupoid": h.label(), "gamma_dim": gam.dim, "commutant_dim": vs.dim})
    return Outcome(
        "violation" if fails else "pass",
        f"gamma(H) = V_R(R^(beta_S_H)) on {len(ctx.wide_subgroupoids)} wide subgroupoids",
        {"failures": fails} if fails else {"checked": len(ctx.wide_subgroupoids)},
    )


@check("lemma_3_8")
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
    return Outcome(
        "violation" if squeezed else "pass",
        "no proper subgroupoid strictly between S_H and H",
        {"violations": squeezed} if squeezed else {"wide": len(ctx.wide_subgroupoids)},
    )


@check("theorem_3_9")
def _theorem_3_9(state: SuiteState) -> Outcome:
    """The double-centralizer sweep over separable subalgebras containing the center."""
    if not state.azu:
        return _skip("R is not Azumaya (hypothesis not met)")
    enum = state.center_enum
    fails = []
    for s in enum.subalgebras:
        res = double_centralizer_check(state.inst.algebra, s, state.ctx.center)
        row = {
            "dim": s.dim,
            "double_centralizer": res.double_centralizer_holds,
            "commutant_separable": res.commutant_separable,
            "tensor_clause": res.tensor_clause,
        }
        if not (res.double_centralizer_holds and res.commutant_separable and res.tensor_clause != "fails"):
            fails.append({"subalgebra": s.to_json(), "result": row})
    return Outcome(
        "violation" if fails else "pass",
        f"{len(enum.subalgebras)} separable subalgebras containing the center swept ({enum.note})",
        {"failures": fails} if fails else {"swept": len(enum.subalgebras), "mode": enum.note},
    )


def _dcp_unmet(state: SuiteState) -> str | None:
    """Why the hypotheses of Theorems 3.10 and 3.11 fail, or None."""
    if not state.galois:
        return "Galois gate unmet"
    if state.dcp_fail is not None:
        return "double-centralizer hypothesis unmet for an invariant ring"
    return None


@check("theorem_3_10")
def _theorem_3_10(state: SuiteState) -> Outcome:
    ctx = state.ctx
    both = {
        "theta_injective": {
            "wide": state.theta_wide[0],
            "all": _injective([(h, ctx.theta(h)) for h in ctx.all_subgroupoids])[0],
        },
        "gamma_injective": {
            "wide": state.gamma_wide_inj,
            "all": _injective([(h, ctx.gamma(h)[0]) for h in ctx.all_subgroupoids])[0],
        },
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


@check("theorem_3_11")
def _theorem_3_11(state: SuiteState) -> Outcome:
    why = _dcp_unmet(state)
    if why:
        return _skip(why)
    ctx = state.ctx
    bad = []
    pairs = 0
    non_wide_pairs = 0
    non_wide_discrepancies = []
    for h, l in subgroupoid_pairs(ctx.all_subgroupoids):
        eq_gamma = ctx.gamma(h)[0] == ctx.gamma(l)[0]
        eq_theta = ctx.theta(h) == ctx.theta(l)
        outside = join(h, l).members - (h.members & l.members)
        j_zero = all(ctx.jmodules[a].dim == 0 for a in outside)
        row = {
            "H": h.label(),
            "L": l.label(),
            "gamma_equal": eq_gamma,
            "theta_equal": eq_theta,
            "j_zero_outside_intersection": j_zero,
        }
        if h.wide and l.wide:
            pairs += 1
            if not (eq_gamma == eq_theta == j_zero):
                bad.append(row)
        else:
            non_wide_pairs += 1
            if not (eq_gamma == eq_theta == j_zero):
                non_wide_discrepancies.append(row)
    witnesses = {"non_wide_pairs_reported": non_wide_pairs, "non_wide_discrepancies": non_wide_discrepancies}
    witnesses.update({"failures": bad} if bad else {"pairs": pairs})
    return Outcome(
        "violation" if bad else "pass",
        f"three-way equivalence checked on {pairs} wide subgroupoid pairs",
        witnesses,
    )


# --- Section 4: gated on R being a certified central Galois algebra ------------

_S4_UNMET = _skip("standing hypothesis unmet: R is not a certified central Galois algebra")


@check("fundamental_theorem")
def _fundamental_theorem(state: SuiteState) -> Outcome:
    if not state.s4:
        return _S4_UNMET
    enum = state.base_enum
    n = len(enum.subalgebras)
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
            "mode": enum.note,
            "injective": injective,
            "image_separable": image_separable,
            "surjective": onto,
            "holds": state.ft_holds,
        },
    )


@check("theorem_4_1")
def _theorem_4_1(state: SuiteState) -> Outcome:
    if not state.s4:
        return _S4_UNMET
    if not (state.ft_holds and state.ft_decided):
        return _skip("R does not (decidably) satisfy the fundamental theorem")
    subs = state.base_enum.subalgebras
    fails = []
    for s in subs:
        ok1, ok2 = state.identities(s)
        if not (ok1 and ok2):
            fails.append({"subalgebra": s.to_json(), "v_r": ok1, "s_sum": ok2})
    return Outcome(
        "violation" if fails else "pass",
        f"both displayed identities on {len(subs)} separable subalgebras",
        {"failures": fails} if fails else {"checked": len(subs)},
    )


@check("lemma_4_2")
def _lemma_4_2(state: SuiteState) -> Outcome:
    """R separable over R^beta => separable over every theta(H)."""
    if not state.s4:
        return _S4_UNMET
    if not state.azu:  # central Galois: R^beta = C(R), so Azumaya == separable over R^beta
        return _skip("R is not separable over its invariants")
    ctx = state.ctx
    missing = [
        h.label()
        for h in ctx.wide_subgroupoids
        if separability_idempotent(state.inst.algebra, ctx.theta(h)) is None
    ]
    return Outcome(
        "violation" if missing else "pass",
        f"certificates over all {len(ctx.wide_subgroupoids)} invariant rings",
        {"missing": missing} if missing else {"checked": len(ctx.wide_subgroupoids)},
    )


# Theorems 4.3 and 4.4: the two directions of the characterization


@check("theorem_4_3")
def _theorem_4_3(state: SuiteState) -> Outcome:
    if not state.s4:
        return _S4_UNMET
    if not state.azu:
        return _skip("hypothesis unmet: R not separable over invariants")
    if not state.identity_all:
        return _skip("hypothesis unmet: decomposition fails for some separable S")
    if not state.ft_decided:
        return Outcome("inconclusive", "hypothesis met on the pool, but the enumeration is pool-restricted")
    holds = state.ft_holds
    return Outcome(
        "pass" if holds else "violation",
        "V_R(S) decomposition holds for every separable S; fundamental theorem follows",
        {"holds": holds} if holds else {"holds": holds, "mode": state.base_enum.note},
    )


@check("theorem_4_4")
def _theorem_4_4(state: SuiteState) -> Outcome:
    if not state.s4:
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


def _truncated_coordinates(act, coords, h, sub_act):
    """Restricted coordinates (x_i 1_H, y_i 1_H), certified or None."""
    if coords is None:
        return None
    f = act.field
    ids = sorted(set(act.groupoid.identities) & h.members)
    one_h = f.zeros(act.algebra.dim)
    for e in ids:
        one_h = f.reduce(one_h + act.idempotents[e])
    rows = act.algebra.products(coords.rows(act), one_h[None])[:, 0]
    if not h.wide:  # a wide H has 1_H = 1_R and keeps the ambient basis
        ring = Subspace(f, act.algebra.dim, np.vstack([act.ideals[e].basis for e in ids]))
        rows = ring.coords_rows(rows)
        if rows is None:
            return None
    cand = GaloisCoordinates(list(zip(rows[0::2], rows[1::2])))
    ok, _ = check_galois_coordinates(sub_act, cand)
    return cand if ok else None


def _injective(pairs: list[tuple[Subgroupoid, Subspace]]):
    seen: dict[tuple, Subgroupoid] = {}
    for h, space in pairs:
        k = space.key()
        if k in seen and seen[k].members != h.members:
            return False, [seen[k].label(), h.label()]
        seen[k] = h
    return True, None


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
    for _, gens in inst.subalgebra_seeds:
        pool.append(Subspace.span(inst.field, np.vstack(gens)))
    return pool
