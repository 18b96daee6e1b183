"""End-to-end verification suite: runs every anchored check on a loaded
instance in dependency order and assembles the report.

Hypothesis gating discipline: every statement check certifies its
hypotheses first and records pass/skip/violation per instance; a failed
hypothesis always yields "skip" with the failed hypothesis named, never
a silent omission and never a spurious violation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .action import Action, ActionError, fixer_subgroupoid, invariants, restrict
from .algebra import AlgebraError, commutant
from .galois import (
    GaloisContext,
    GaloisError,
    build_skew_groupoid_ring,
    check_galois_coordinates,
    j_isomorphism_check,
    product_space,
    solve_galois_coordinates,
    v_in_ideal,
)
from .groupoid import GroupoidError, Subgroupoid, join, subgroupoid_pairs
from .instances import Instance
from .linalg import Subspace
from .report import CheckRecord, VerificationReport
from .separability import (
    double_centralizer_check,
    enumerate_separable_subalgebras,
    is_central_galois,
    is_separable_subalgebra_over,
    separability_idempotent,
)

# check id -> anchor; order is the run order of a full-scope suite
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

ANCHORS = {cid: anchor for cid, anchor, _ in MANIFEST}

# A construction that certifies its result raises one of these when the
# certificate fails, which falsifies the statement being checked.  Any
# other exception is a bug and propagates instead of becoming a violation.
CERTIFICATE_ERRORS = (GroupoidError, ActionError, AlgebraError, GaloisError)


def _label(sub: Subgroupoid) -> str:
    return sub.label()


@dataclass
class SuiteState:
    """Everything computed so far, shared between the check stages."""

    inst: Instance
    ctx: GaloisContext
    restrictions: dict[frozenset, tuple[Action, np.ndarray]] | None = None
    separable_enum=None
    azumaya_cert=None
    central: bool = False
    hirata_expected: bool = False

    def restriction(self, h: Subgroupoid):
        if self.restrictions is None:
            self.restrictions = {}
        key = frozenset(h.members)
        if key not in self.restrictions:
            self.restrictions[key] = restrict(self.inst.action, h)
        return self.restrictions[key]


def run_suite(inst: Instance, scope: str = "all") -> VerificationReport:
    if scope not in ("s3", "all"):
        raise ValueError(f"unknown scope {scope!r}")
    report = VerificationReport(instance=inst.name, scope=scope)
    act = inst.action

    def rec(check_id, verdict, hypothesis="met", detail="", witnesses=None, t0=None):
        return report.add(
            CheckRecord(
                check_id=check_id,
                anchor=ANCHORS[check_id],
                hypothesis=hypothesis,
                verdict=verdict,
                detail=detail,
                witnesses=witnesses or {},
                seconds=0.0 if t0 is None else time.monotonic() - t0,
            )
        )

    # --- validators (already certified during load; record the facts) -----
    g = inst.groupoid
    rec(
        "validate_groupoid",
        "pass",
        detail=f"{g.size} arrows, {len(g.identities)} identities",
        witnesses={"arrows": list(g.names)},
    )
    rec(
        "validate_algebra",
        "pass",
        detail=f"dim {inst.algebra.dim} over {inst.field.kind}"
        + (f"({inst.field.p})" if inst.field.modular else ""),
        witnesses={"basis": list(inst.algebra.labels)},
    )
    rec(
        "validate_action",
        "pass",
        detail="all action axioms certified; R is the direct sum of the E_e",
        witnesses={"ideal_dims": {g.names[e]: act.ideals[e].dim for e in g.identities}},
    )

    # --- Galois coordinates ------------------------------------------------
    coords = inst.coordinates
    if coords is not None:
        ok, failures = check_galois_coordinates(act, coords)
        if ok:
            rec(
                "galois_coordinates",
                "pass",
                detail=f"instance coordinates certified ({len(coords.pairs)} pairs)",
                witnesses={"pairs": len(coords.pairs)},
            )
        else:
            a, res = failures[0]
            rec(
                "galois_coordinates",
                "violation",
                detail=f"instance coordinates fail at arrow {g.names[a]}",
                witnesses={
                    "arrow": g.names[a],
                    "residual": inst.field.vector_json(res),
                },
            )
            coords = None
    else:
        coords = solve_galois_coordinates(act)
        if coords is not None:
            rec(
                "galois_coordinates",
                "pass",
                detail=f"solver found and certified {len(coords.pairs)} pairs",
                witnesses={"pairs": len(coords.pairs)},
            )
        else:
            rec(
                "galois_coordinates",
                "inconclusive",
                detail="no coordinates with basis-pinned x side; not a proof of non-Galois",
            )

    ctx = GaloisContext(act, coords)
    state = SuiteState(inst=inst, ctx=ctx)
    galois = ctx.galois_certified
    gate = "met" if galois else "unmet"

    # --- J modules and the connecting-arrow observation --------------------
    jdims = {g.names[a]: ctx.jmodules[a].dim for a in g.arrows()}
    rec("jmodules", "pass", detail="J modules computed", witnesses={"dims": jdims})

    bad = [
        g.names[a]
        for a in g.arrows()
        if g.source[a] != g.target[a] and ctx.jmodules[a].dim > 0
    ]
    if bad:
        rec(
            "connecting_arrows",
            "violation",
            detail="nonzero J module on an arrow with d(g) != r(g)",
            witnesses={"arrows": bad},
        )
    else:
        conn = [g.names[a] for a in g.arrows() if g.source[a] != g.target[a]]
        rec(
            "connecting_arrows",
            "pass",
            detail=(
                "J_g = 0 on every connecting arrow (forced by R = direct sum of E_e); "
                "observation only"
                if conn
                else "no connecting arrows"
            ),
            witnesses={"connecting_arrows": conn},
        )

    # --- Lemma 2.1: fixers are subgroupoids ---------------------------------
    fixer_probes: list[tuple[str, Subspace]] = [
        ("span(1)", Subspace.span(inst.field, inst.algebra.unit)),
        ("center", ctx.center),
        ("invariants", ctx.invariant_ring),
    ]
    for h in ctx.wide_subgroupoids:
        fixer_probes.append((f"theta{_label(h)}", ctx.theta(h)))
    lemma21_fail = None
    fixers = {}
    for label, t in fixer_probes:
        try:
            fixers[label] = fixer_subgroupoid(act, t)
        except CERTIFICATE_ERRORS as e:  # closure failure is a theorem violation
            lemma21_fail = (label, str(e))
            break
    if lemma21_fail:
        rec(
            "lemma_2_1",
            "violation",
            detail=f"fixer of {lemma21_fail[0]} is not a subgroupoid",
            witnesses={"subalgebra": lemma21_fail[0], "error": lemma21_fail[1]},
        )
    else:
        rec(
            "lemma_2_1",
            "pass",
            detail=f"{len(fixer_probes)} fixer sets certified closed",
            witnesses={"fixers": {k: _label(v) for k, v in sorted(fixers.items())}},
        )

    # --- Prop 2.2: restrictions are actions and stay Galois -----------------
    t0 = time.monotonic()
    restr_notes = []
    restr_ok = True
    for h in ctx.all_subgroupoids:
        try:
            sub_act, _ = state.restriction(h)
        except CERTIFICATE_ERRORS as e:
            restr_ok = False
            restr_notes.append(f"{_label(h)}: {e}")
            continue
        if galois:
            sub_coords = _truncated_coordinates(act, coords, h, sub_act)
            if sub_coords is None:
                sub_coords = solve_galois_coordinates(sub_act)
            if sub_coords is None:
                restr_notes.append(f"{_label(h)}: restricted coordinates not found")
    if not restr_ok:
        rec(
            "prop_2_2",
            "violation",
            hypothesis=gate,
            detail="a restriction failed action validation",
            witnesses={"failures": restr_notes},
            t0=t0,
        )
    elif restr_notes:
        rec(
            "prop_2_2",
            "inconclusive",
            hypothesis=gate,
            detail="restrictions validate; some restricted coordinate solves inconclusive",
            witnesses={"notes": restr_notes},
            t0=t0,
        )
    else:
        rec(
            "prop_2_2",
            gate == "met" and "pass" or "skip",
            hypothesis=gate,
            detail=(
                f"{len(ctx.all_subgroupoids)} restrictions validated"
                + (" and re-certified Galois" if galois else "; Galois gate unmet")
            ),
            t0=t0,
        )

    # --- skew groupoid ring and the j isomorphism ---------------------------
    t0 = time.monotonic()
    try:
        skew = build_skew_groupoid_ring(act)
        rec(
            "skew_ring",
            "pass",
            detail=f"dim {skew.dim}; associativity and unit re-certified",
            witnesses={"dim": skew.dim},
            t0=t0,
        )
    except CERTIFICATE_ERRORS as e:
        skew = None
        rec(
            "skew_ring",
            "violation",
            detail="skew groupoid ring failed re-certification",
            witnesses={"error": str(e)},
            t0=t0,
        )

    if skew is not None and galois:
        t0 = time.monotonic()
        jrep = j_isomorphism_check(act, skew, ctx.invariant_ring)
        rec(
            "j_isomorphism",
            "pass" if jrep.ok else "violation",
            detail=(
                f"dim skew ring {jrep.dim_skew} vs dim End {jrep.dim_end}; "
                f"injective={jrep.injective} surjective={jrep.surjective} "
                f"multiplicative={jrep.multiplicative} unital={jrep.unital}"
            ),
            witnesses={
                "dim_skew": jrep.dim_skew,
                "dim_end": jrep.dim_end,
                "injective": jrep.injective,
                "surjective": jrep.surjective,
                "multiplicative": jrep.multiplicative,
                "unital": jrep.unital,
            },
            t0=t0,
        )
    else:
        rec(
            "j_isomorphism",
            "skip",
            hypothesis="unmet",
            detail="needs a certified Galois coordinate system",
        )

    # --- Lemma 3.1 on every subgroupoid via its restriction -----------------
    t0 = time.monotonic()
    if galois:
        failures = []
        wide_count = 0
        total = 0
        for h in ctx.all_subgroupoids:
            sub_act, _ = state.restriction(h)
            sub_ctx = GaloisContext(sub_act)
            inv = invariants(sub_act, list(sub_act.groupoid.arrows()))
            vr = commutant(sub_act.algebra, inv, sub_act.algebra.full_space)
            parts = [sub_ctx.jmodules[a] for a in sub_act.groupoid.arrows()]
            dims = sum(p.dim for p in parts)
            stacked = (
                np.vstack([p.space.basis for p in parts if p.dim])
                if dims
                else sub_act.field.zeros((0, sub_act.algebra.dim))
            )
            total_space = Subspace(sub_act.field, sub_act.algebra.dim, stacked)
            equal = total_space == vr
            direct = total_space.dim == dims
            total += 1
            if h.wide:
                wide_count += 1
            if not (equal and direct):
                failures.append(
                    {
                        "subgroupoid": _label(h),
                        "equal": equal,
                        "direct": direct,
                        "commutant_dim": vr.dim,
                        "sum_dim": total_space.dim,
                    }
                )
        rec(
            "lemma_3_1",
            "violation" if failures else "pass",
            detail=f"{total} restriction checks ({wide_count} wide); decomposition "
            + ("violated" if failures else "exact and direct everywhere"),
            witnesses={"failures": failures} if failures else {"checks": total, "wide": wide_count},
            t0=t0,
        )
    else:
        rec("lemma_3_1", "skip", hypothesis="unmet", detail="Galois gate unmet")

    # --- Lemma 3.2 -----------------------------------------------------------
    # theta's fixed domain is the wide subgroupoids; the all-subgroupoid
    # reading is reported as data alongside but never judged
    t0 = time.monotonic()
    if galois:
        checked = 0
        bad_pairs = []
        all_domain = 0
        all_domain_coincidences = []
        for h, l in subgroupoid_pairs(ctx.all_subgroupoids):
            if any(ctx.jmodules[a].dim == 0 for a in h.members | l.members):
                continue  # hypothesis J != 0 on H and L unmet for this pair
            coincide = ctx.theta(h) == ctx.theta(l) and h.members != l.members
            if h.wide and l.wide:
                checked += 1
                if coincide:
                    bad_pairs.append([_label(h), _label(l)])
            else:
                all_domain += 1
                if coincide:
                    all_domain_coincidences.append([_label(h), _label(l)])
        rec(
            "lemma_3_2",
            "violation" if bad_pairs else "pass",
            detail=f"{checked} gated wide pairs; theta(H)=theta(L) forces H=L",
            witnesses={
                "pairs": bad_pairs,
                "non_wide_pairs_reported": all_domain,
                "non_wide_coincidences": all_domain_coincidences,
            }
            if bad_pairs
            else {
                "checked": checked,
                "non_wide_pairs_reported": all_domain,
                "non_wide_coincidences": all_domain_coincidences,
            },
            t0=t0,
        )
    else:
        rec("lemma_3_2", "skip", hypothesis="unmet", detail="Galois gate unmet")

    # --- Theorem 3.3 ----------------------------------------------------------
    t0 = time.monotonic()
    all_j_nonzero = all(ctx.jmodules[a].dim > 0 for a in g.arrows())
    theta_wide_inj, theta_wide_coincidence = _injective(
        [(h, ctx.theta(h)) for h in ctx.wide_subgroupoids]
    )
    if galois and all_j_nonzero:
        rec(
            "theorem_3_3",
            "pass" if theta_wide_inj else "violation",
            detail=f"all J_g nonzero; theta injective on {len(ctx.wide_subgroupoids)} wide subgroupoids: {theta_wide_inj}",
            witnesses=(
                {"wide_subgroupoids": len(ctx.wide_subgroupoids)}
                if theta_wide_inj
                else {"coincidence": theta_wide_coincidence}
            ),
            t0=t0,
        )
    else:
        why = "Galois gate unmet" if not galois else "some J_g = 0"
        rec(
            "theorem_3_3",
            "skip",
            hypothesis="unmet",
            detail=f"{why}; theta injective on wide subgroupoids anyway: {theta_wide_inj}",
            witnesses={"theta_injective_wide": theta_wide_inj},
            t0=t0,
        )

    # --- flags: Azumaya / central Galois / Hirata chain ------------------------
    t0 = time.monotonic()
    azu, azu_cert = _azumaya(state)
    rec(
        "azumaya",
        "pass",
        detail=f"separable over its center: {azu}",
        witnesses={"azumaya": azu},
        t0=t0,
    )
    central = is_central_galois(ctx.center, ctx.invariant_ring, galois)
    state.central = central
    rec(
        "central_galois",
        "pass",
        detail=f"C(R) = R^beta with certified coordinates: {central}",
        witnesses={
            "central_galois": central,
            "center_dim": ctx.center.dim,
            "invariants_dim": ctx.invariant_ring.dim,
        },
    )
    expected_central = inst.flags.get("central_galois_expected")
    if expected_central is not None and expected_central != central:
        rec(
            "remark_2_3",
            "violation",
            detail="instance flag central_galois_expected disagrees with the computed flag",
            witnesses={"expected": expected_central, "computed": central},
        )
    elif central:
        rec(
            "remark_2_3",
            "pass" if azu else "violation",
            detail="central Galois algebra is Azumaya (checked in that order); Hirata flag derived",
            witnesses={"azumaya": azu},
        )
    else:
        rec(
            "remark_2_3",
            "skip",
            hypothesis="unmet",
            detail="not a central Galois algebra; chain not applicable",
        )
    state.hirata_expected = bool(inst.flags.get("hirata_expected", False)) or central

    # --- Lemma 3.4 product rule -------------------------------------------------
    t0 = time.monotonic()
    hirata_gate = "met" if (state.hirata_expected and galois) else "unmet"
    pair_rows = []
    all_equal = True
    for a, b in ctx.composable_pairs():  # (g,h) with d(g) = r(h)
        jh = ctx.jmodules[b].space
        jg = ctx.jmodules[a].space
        prod = product_space(inst.algebra, jh, jg)  # J_h J_g
        prod_rev = product_space(inst.algebra, jg, jh)
        target = ctx.jmodules[g.comp[a][b]].space
        equal = prod == target
        included = target.contains_space(prod)
        all_equal = all_equal and equal
        pair_rows.append(
            {
                "g": g.names[a],
                "h": g.names[b],
                "gh": g.names[g.comp[a][b]],
                "equal": equal,
                "included": included,
                "reversed_equal": prod_rev == target,
            }
        )
    particular = []
    particular_ok = True
    for a in g.arrows():
        lhs = product_space(
            inst.algebra, ctx.jmodules[g.inv[a]].space, ctx.jmodules[a].space
        )
        rhs = v_in_ideal(act, a)
        ok = lhs == rhs
        particular_ok = particular_ok and ok
        particular.append({"g": g.names[a], "equal": ok})
    if hirata_gate == "met":
        ok = all_equal and particular_ok
        rec(
            "lemma_3_4",
            "pass" if ok else "violation",
            detail=f"{len(pair_rows)} composable pairs; J_h J_g = J_gh and J_g^-1 J_g = V_Eg(R)",
            witnesses={"pairs": pair_rows, "particular": particular},
            t0=t0,
        )
    else:
        rec(
            "lemma_3_4",
            "skip",
            hypothesis="unmet",
            detail="Hirata separability not expected; product table reported, inclusions not upgraded to failures",
            witnesses={"pairs": pair_rows, "particular": particular},
            t0=t0,
        )

    # --- Theorem 3.5 --------------------------------------------------------------
    if hirata_gate == "met":
        rec(
            "theorem_3_5",
            "pass" if theta_wide_inj else "violation",
            detail=f"Hirata-separable/central Galois instance; theta injective: {theta_wide_inj}",
            witnesses=(
                {"wide_subgroupoids": len(ctx.wide_subgroupoids)}
                if theta_wide_inj
                else {"coincidence": theta_wide_coincidence}
            ),
        )
    else:
        rec("theorem_3_5", "skip", hypothesis="unmet", detail="hypothesis (Hirata/central) unmet")

    # --- Lemma 3.6: sigma injective on the support ----------------------------------
    t0 = time.monotonic()
    if galois:
        clashes = []
        for h in ctx.all_subgroupoids:
            sup = ctx.support(h)
            for i in range(len(sup)):
                for j in range(i + 1, len(sup)):
                    if ctx.jmodules[sup[i]].space == ctx.jmodules[sup[j]].space:
                        clashes.append(
                            {
                                "subgroupoid": _label(h),
                                "g": g.names[sup[i]],
                                "h": g.names[sup[j]],
                            }
                        )
        rec(
            "lemma_3_6",
            "violation" if clashes else "pass",
            detail="sigma restricted to each support set is injective",
            witnesses={"clashes": clashes} if clashes else {"subgroupoids": len(ctx.all_subgroupoids)},
            t0=t0,
        )
    else:
        rec("lemma_3_6", "skip", hypothesis="unmet", detail="Galois gate unmet")

    # --- Lemma 3.7 ---------------------------------------------------------------------
    t0 = time.monotonic()
    if galois:
        fails = []
        for h in ctx.wide_subgroupoids:
            gam, _ = ctx.gamma(h)
            vs = commutant(
                inst.algebra, invariants(act, ctx.support(h)), inst.algebra.full_space
            )
            if gam != vs:
                fails.append(
                    {"subgroupoid": _label(h), "gamma_dim": gam.dim, "commutant_dim": vs.dim}
                )
        rec(
            "lemma_3_7",
            "violation" if fails else "pass",
            detail=f"gamma(H) = V_R(R^(beta_S_H)) on {len(ctx.wide_subgroupoids)} wide subgroupoids",
            witnesses={"failures": fails} if fails else {"checked": len(ctx.wide_subgroupoids)},
            t0=t0,
        )
    else:
        rec("lemma_3_7", "skip", hypothesis="unmet", detail="Galois gate unmet")

    # --- Lemma 3.8 -------------------------------------------------------------------------
    t0 = time.monotonic()
    gamma_wide_inj, _ = _injective([(h, ctx.gamma(h)[0]) for h in ctx.wide_subgroupoids])
    if galois and gamma_wide_inj:
        squeezed = []
        for h in ctx.wide_subgroupoids:
            sup = set(ctx.support(h))
            for hp in ctx.all_subgroupoids:
                if sup < hp.members < h.members:
                    squeezed.append({"subgroupoid": _label(h), "between": _label(hp)})
        rec(
            "lemma_3_8",
            "violation" if squeezed else "pass",
            detail="no proper subgroupoid strictly between S_H and H",
            witnesses={"violations": squeezed} if squeezed else {"wide": len(ctx.wide_subgroupoids)},
            t0=t0,
        )
    else:
        why = "Galois gate unmet" if not galois else "gamma not injective on wide subgroupoids"
        rec("lemma_3_8", "skip", hypothesis="unmet", detail=why, t0=t0)

    # --- Theorem 3.9 sweep ---------------------------------------------------------------------
    t0 = time.monotonic()
    if azu:
        enum = _center_enumeration(state)
        sweep_fails = []
        rows = []
        for s in enum.subalgebras:
            res = double_centralizer_check(inst.algebra, s, ctx.center)
            ok = res.double_centralizer_holds and res.commutant_separable and res.tensor_clause != "fails"
            rows.append(
                {
                    "dim": s.dim,
                    "double_centralizer": res.double_centralizer_holds,
                    "commutant_separable": res.commutant_separable,
                    "tensor_clause": res.tensor_clause,
                }
            )
            if not ok:
                sweep_fails.append({"subalgebra": s.to_json(), "result": rows[-1]})
        rec(
            "theorem_3_9",
            "violation" if sweep_fails else "pass",
            detail=f"{len(enum.subalgebras)} separable subalgebras containing the center swept ({enum.note})",
            witnesses={"failures": sweep_fails} if sweep_fails else {"swept": len(enum.subalgebras), "mode": enum.note},
            t0=t0,
        )
    else:
        rec(
            "theorem_3_9",
            "skip",
            hypothesis="unmet",
            detail="R is not Azumaya (hypothesis not met)",
            t0=t0,
        )

    # --- Theorems 3.10 / 3.11 ---------------------------------------------------------------------
    t0 = time.monotonic()
    dcp_fail = None
    for h in ctx.all_subgroupoids:
        th = ctx.theta(h)
        vv = commutant(
            inst.algebra,
            commutant(inst.algebra, th, inst.algebra.full_space),
            inst.algebra.full_space,
        )
        if vv != th:
            dcp_fail = {
                "subgroupoid": _label(h),
                "invariants_dim": th.dim,
                "bicommutant_dim": vv.dim,
            }
            break
    theta_all_inj, _ = _injective([(h, ctx.theta(h)) for h in ctx.all_subgroupoids])
    gamma_all_inj, _ = _injective([(h, ctx.gamma(h)[0]) for h in ctx.all_subgroupoids])
    both = {
        "theta_injective": {"wide": theta_wide_inj, "all": theta_all_inj},
        "gamma_injective": {"wide": gamma_wide_inj, "all": gamma_all_inj},
    }
    if galois and dcp_fail is None:
        # judged on theta's fixed wide domain; all-subgroupoid reading reported
        ok = theta_wide_inj == gamma_wide_inj
        rec(
            "theorem_3_10",
            "pass" if ok else "violation",
            detail="double centralizer holds for every invariant ring; theta and gamma injectivity coincide",
            witnesses=both if ok else {"table": both, "note": "equivalence failed on wide domain"},
            t0=t0,
        )
    else:
        why = (
            "Galois gate unmet"
            if not galois
            else "double-centralizer hypothesis unmet for an invariant ring"
        )
        w = dict(both)
        if dcp_fail:
            w["double_centralizer_failure"] = dcp_fail
        rec("theorem_3_10", "skip", hypothesis="unmet", detail=why, witnesses=w, t0=t0)

    t0 = time.monotonic()
    if galois and dcp_fail is None:
        bad = []
        pairs = 0
        non_wide_pairs = 0
        non_wide_discrepancies = []
        for h, l in subgroupoid_pairs(ctx.all_subgroupoids):
            eq_gamma = ctx.gamma(h)[0] == ctx.gamma(l)[0]
            eq_theta = ctx.theta(h) == ctx.theta(l)
            hv = join(h, l)
            outside = hv.members - (h.members & l.members)
            j_zero = all(ctx.jmodules[a].dim == 0 for a in outside)
            row = {
                "H": _label(h),
                "L": _label(l),
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
        rec(
            "theorem_3_11",
            "violation" if bad else "pass",
            detail=f"three-way equivalence checked on {pairs} wide subgroupoid pairs",
            witnesses={
                "failures": bad,
                "non_wide_pairs_reported": non_wide_pairs,
                "non_wide_discrepancies": non_wide_discrepancies,
            }
            if bad
            else {
                "pairs": pairs,
                "non_wide_pairs_reported": non_wide_pairs,
                "non_wide_discrepancies": non_wide_discrepancies,
            },
            t0=t0,
        )
    else:
        why = (
            "Galois gate unmet"
            if not galois
            else "double-centralizer hypothesis unmet for an invariant ring"
        )
        rec("theorem_3_11", "skip", hypothesis="unmet", detail=why, t0=t0)

    if scope == "s3":
        return report

    # ======================= Section 4 =======================================
    s4_gate = "met" if (state.central and galois) else "unmet"
    base = ctx.invariant_ring

    if s4_gate == "met":
        t0 = time.monotonic()
        enum = _base_enumeration(state)
        theta_map = {}
        for h in ctx.wide_subgroupoids:
            theta_map[_label(h)] = ctx.theta(h)
        sep_keys = {s.key() for s in enum.subalgebras}
        image_keys = {s.key() for s in theta_map.values()}
        injective = theta_wide_inj
        image_separable = image_keys <= sep_keys
        onto = sep_keys <= image_keys
        ft_holds = injective and image_separable and onto
        ft_decided = enum.exhaustive
        if ft_decided:
            detail = (
                f"theta {'is' if ft_holds else 'is NOT'} a bijection onto the "
                f"{len(enum.subalgebras)} separable subalgebras (exhaustive)"
            )
        else:
            detail = (
                f"injective={injective}, image separable={image_separable}; "
                f"surjectivity onto {len(enum.subalgebras)} pool candidates: "
                + ("no counterexample found" if onto else "counterexample found")
            )
        rec(
            "fundamental_theorem",
            "pass" if ft_decided else "inconclusive",
            hypothesis="met",
            detail=detail,
            witnesses={
                "wide_subgroupoids": len(ctx.wide_subgroupoids),
                "separable_subalgebras": len(enum.subalgebras),
                "mode": enum.note,
                "injective": injective,
                "image_separable": image_separable,
                "surjective": onto,
                "holds": ft_holds,
            },
            t0=t0,
        )

        # Theorem 4.1: gated on the fundamental theorem actually holding
        t0 = time.monotonic()
        if ft_holds and ft_decided:
            fails = []
            for s in enum.subalgebras:
                ok1, ok2 = _theorem_4_1_identities(state, s)
                if not (ok1 and ok2):
                    fails.append({"subalgebra": s.to_json(), "v_r": ok1, "s_sum": ok2})
            rec(
                "theorem_4_1",
                "violation" if fails else "pass",
                detail=f"both displayed identities on {len(enum.subalgebras)} separable subalgebras",
                witnesses={"failures": fails} if fails else {"checked": len(enum.subalgebras)},
                t0=t0,
            )
        else:
            rec(
                "theorem_4_1",
                "skip",
                hypothesis="unmet",
                detail="R does not (decidably) satisfy the fundamental theorem",
                t0=t0,
            )

        # Lemma 4.2: R separable over R^beta => separable over every theta(H)
        t0 = time.monotonic()
        if azu:  # central Galois: R^beta = C(R), so Azumaya == separable over R^beta
            missing = []
            for h in ctx.wide_subgroupoids:
                cert = separability_idempotent(inst.algebra, ctx.theta(h))
                if cert is None:
                    missing.append(_label(h))
            rec(
                "lemma_4_2",
                "violation" if missing else "pass",
                detail=f"certificates over all {len(ctx.wide_subgroupoids)} invariant rings",
                witnesses={"missing": missing} if missing else {"checked": len(ctx.wide_subgroupoids)},
                t0=t0,
            )
        else:
            rec(
                "lemma_4_2",
                "skip",
                hypothesis="unmet",
                detail="R is not separable over its invariants",
                t0=t0,
            )

        # Theorem 4.3 and 4.4: the two directions of the characterization
        t0 = time.monotonic()
        identity_all = all(_theorem_4_1_identities(state, s)[0] for s in enum.subalgebras)
        if azu and identity_all:
            if ft_decided:
                rec(
                    "theorem_4_3",
                    "pass" if ft_holds else "violation",
                    detail="V_R(S) decomposition holds for every separable S; fundamental theorem follows",
                    witnesses={"holds": ft_holds} if ft_holds else {"holds": ft_holds, "mode": enum.note},
                    t0=t0,
                )
            else:
                rec(
                    "theorem_4_3",
                    "inconclusive",
                    detail="hypothesis met on the pool, but the enumeration is pool-restricted",
                    t0=t0,
                )
        else:
            rec(
                "theorem_4_3",
                "skip",
                hypothesis="unmet",
                detail="hypothesis unmet: "
                + ("R not separable over invariants" if not azu else "decomposition fails for some separable S"),
                t0=t0,
            )

        t0 = time.monotonic()
        if ft_decided:
            biconditional = ft_holds == identity_all
            rec(
                "theorem_4_4",
                "pass" if biconditional else "violation",
                detail=(
                    f"fundamental theorem {'holds' if ft_holds else 'fails'} and the V_R(S) "
                    f"decomposition {'holds' if identity_all else 'fails'} -- biconditional "
                    + ("respected" if biconditional else "VIOLATED")
                ),
                witnesses={"fundamental_theorem": ft_holds, "decomposition_for_all_separable": identity_all},
                t0=t0,
            )
        else:
            rec(
                "theorem_4_4",
                "inconclusive",
                detail="pool-restricted enumeration; biconditional checked only on the pool",
                witnesses={"fundamental_theorem_so_far": ft_holds, "decomposition_on_pool": identity_all},
                t0=t0,
            )
    else:
        for cid in ("fundamental_theorem", "theorem_4_1", "lemma_4_2", "theorem_4_3", "theorem_4_4"):
            rec(
                cid,
                "skip",
                hypothesis="unmet",
                detail="standing hypothesis unmet: R is not a certified central Galois algebra",
            )

    return report


def _truncated_coordinates(act, coords, h, sub_act):
    """Restricted coordinates (x_i 1_H, y_i 1_H), certified or None."""
    from .galois import GaloisCoordinates

    if coords is None:
        return None
    f = act.field
    g = act.groupoid
    one_h = f.zeros(act.algebra.dim)
    for e in sorted(set(g.identities) & h.members):
        one_h = f.reduce(one_h + act.idempotents[e])
    ring = Subspace(f, act.algebra.dim, np.vstack([act.ideals[e].basis for e in sorted(set(g.identities) & h.members)]))
    pairs = []
    for x, y in coords.pairs:
        xt = act.algebra.mul(x, one_h)
        yt = act.algebra.mul(y, one_h)
        cx, cy = ring.coords(xt), ring.coords(yt)
        if cx is None or cy is None:
            return None
        pairs.append((cx, cy))
    if h.wide:
        pairs = [(act.algebra.mul(x, one_h), act.algebra.mul(y, one_h)) for x, y in coords.pairs]
    from .galois import check_galois_coordinates as _check

    cand = GaloisCoordinates(pairs)
    ok, _ = _check(sub_act, cand)
    return cand if ok else None


def _injective(pairs: list[tuple[Subgroupoid, Subspace]]):
    seen: dict[tuple, Subgroupoid] = {}
    for h, space in pairs:
        k = space.key()
        if k in seen and seen[k].members != h.members:
            return False, [_label(seen[k]), _label(h)]
        seen[k] = h
    return True, None


def _azumaya(state: SuiteState):
    if state.azumaya_cert is None:
        cert = separability_idempotent(state.inst.algebra, state.ctx.center)
        state.azumaya_cert = (cert is not None, cert)
    return state.azumaya_cert


def _pool(state: SuiteState) -> list[Subspace]:
    """Seed pool: subalgebras from <=2 basis elements, theta images, user seeds."""
    from .algebra import subalgebra_generated

    inst = state.inst
    ctx = state.ctx
    pool = []
    n = inst.algebra.dim
    basis = inst.algebra.basis_vectors()
    for i in range(n):
        pool.append(Subspace.span(inst.field, basis[i]))
        for j in range(i + 1, n):
            pool.append(Subspace.span(inst.field, np.vstack([basis[i], basis[j]])))
    for h in ctx.wide_subgroupoids:
        pool.append(ctx.theta(h))
    for _, gens in inst.subalgebra_seeds:
        pool.append(Subspace.span(inst.field, np.vstack(gens)))
    return pool


def _center_enumeration(state: SuiteState):
    if getattr(state, "_center_enum", None) is None:
        state._center_enum = enumerate_separable_subalgebras(
            state.inst.algebra, state.ctx.center, pool=_pool(state)
        )
    return state._center_enum


def _base_enumeration(state: SuiteState):
    # for central Galois instances the base R^beta equals the center
    if state.ctx.invariant_ring == state.ctx.center:
        return _center_enumeration(state)
    if getattr(state, "_base_enum", None) is None:
        state._base_enum = enumerate_separable_subalgebras(
            state.inst.algebra, state.ctx.invariant_ring, pool=_pool(state)
        )
    return state._base_enum


def _theorem_4_1_identities(state: SuiteState, s: Subspace) -> tuple[bool, bool]:
    """V_R(S) = sum of J_g over H_S, and S = sum of J_g over H_{S'}."""
    inst = state.inst
    ctx = state.ctx
    act = inst.action
    f = inst.field
    n = inst.algebra.dim

    def jsum(members):
        dims = 0
        rows = []
        for a in sorted(members):
            jm = ctx.jmodules[a]
            dims += jm.dim
            if jm.dim:
                rows.append(jm.space.basis)
        space = Subspace(f, n, np.vstack(rows) if rows else f.zeros((0, n)))
        return space, space.dim == dims

    hs = fixer_subgroupoid(act, s)
    vrs = commutant(inst.algebra, s, inst.algebra.full_space)
    sum1, direct1 = jsum(hs.members)
    ok1 = direct1 and sum1 == vrs

    hsp = fixer_subgroupoid(act, vrs)
    sum2, direct2 = jsum(hsp.members)
    ok2 = direct2 and sum2 == s
    return ok1, ok2
