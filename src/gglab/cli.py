"""Command-line surface for gglab.

Every verb takes an instance file path or --builtin NAME.  Exit status
is 0 when no check recorded a violation, 1 when one did, and 2 for a bad
instance or an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .galois import GaloisContext
from .groupoid import enumerate_subgroupoids
from .instances import BUILTIN_NAMES, Instance, builtin, emit_instance, load_builtin, load_instance
from .suite import SuiteState, run_suite


def _add_instance_args(p: argparse.ArgumentParser):
    p.add_argument("instance", nargs="?", help="path to an instance JSON file")
    p.add_argument("--builtin", dest="builtin_name", choices=BUILTIN_NAMES, help="use a builtin instance")


def _get_instance(args) -> Instance:
    if args.builtin_name:
        return load_builtin(args.builtin_name)
    if args.instance:
        return load_instance(args.instance)
    raise SystemExit("an instance file or --builtin NAME is required")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gglab", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("validate", help="run all structural validators")
    _add_instance_args(sp)

    sp = sub.add_parser("solve-coordinates", help="find or certify Galois coordinates")
    _add_instance_args(sp)

    sp = sub.add_parser("jmodules", help="print the modules J_g")
    _add_instance_args(sp)

    sp = sub.add_parser("subgroupoids", help="enumerate subgroupoids")
    _add_instance_args(sp)
    sp.add_argument("--wide", action="store_true", help="wide subgroupoids only")

    sp = sub.add_parser("theta-table", help="theta/gamma table over wide subgroupoids")
    _add_instance_args(sp)

    sp = sub.add_parser("suite", help="run the verification suite")
    _add_instance_args(sp)
    sp.add_argument("--scope", choices=("s3", "all"), default="all")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("builtin", help="describe or emit a builtin instance")
    sp.add_argument("name", choices=BUILTIN_NAMES)
    sp.add_argument("--emit", action="store_true", help="print the instance JSON")
    return p


def _cmd_validate(args) -> int:
    inst = _get_instance(args)
    g = inst.groupoid
    print(f"instance {inst.name}: valid")
    print(f"  groupoid: {g.size} arrows, {len(g.identities)} identities")
    print(f"  algebra: dim {inst.algebra.dim}")
    print(f"  action: certified ({len(inst.action.beta)} matrices)")
    return 0


def _cmd_solve_coordinates(args) -> int:
    inst = _get_instance(args)
    state = SuiteState(inst)
    if state.coordinate_failures:
        a, _ = state.coordinate_failures[0]
        print(f"instance coordinates FAIL at arrow {inst.groupoid.names[a]}")
        return 1
    coords = state.coords
    if coords is None:
        print("no coordinate system found (basis-pinned solve); inconclusive")
        return 0
    source = "solver" if inst.coordinates is None else "instance file"
    print(f"certified Galois coordinate system ({source}), {len(coords.pairs)} pairs:")
    f = inst.field
    for x, y in coords.pairs:
        print(f"  x = {f.vector_json(x)}   y = {f.vector_json(y)}")
    return 0


def _cmd_jmodules(args) -> int:
    inst = _get_instance(args)
    ctx = GaloisContext(inst.action)
    for a in inst.groupoid.arrows():
        jm = ctx.jmodules[a]
        print(f"J_{inst.groupoid.names[a]}: dim {jm.dim}")
        for row in jm.space.basis:
            print(f"    {inst.field.vector_json(row)}")
    return 0


def _cmd_subgroupoids(args) -> int:
    inst = _get_instance(args)
    subs = enumerate_subgroupoids(inst.groupoid, wide_only=args.wide)
    kind = "wide subgroupoids" if args.wide else "subgroupoids"
    print(f"{len(subs)} {kind}:")
    for h in subs:
        print(f"  {h.label()}" + ("  (wide)" if h.wide and not args.wide else ""))
    return 0


def _cmd_theta_table(args) -> int:
    inst = _get_instance(args)
    ctx = SuiteState(inst).ctx
    rows = []
    for h in ctx.wide_subgroupoids:
        th = ctx.theta(h)
        gm, direct = ctx.gamma(h)
        rows.append((h.label(), th, gm, direct))
    wid = max(len(r[0]) for r in rows)
    print(f"{'subgroupoid':<{wid}}  theta dim  gamma dim  direct")
    for label, th, gm, direct in rows:
        print(f"{label:<{wid}}  {th.dim:>9}  {gm.dim:>9}  {str(direct):<6}")
    theta_inj = len({r[1].key() for r in rows}) == len(rows)
    gamma_inj = len({r[2].key() for r in rows}) == len(rows)
    print(f"theta injective: {theta_inj}   gamma injective: {gamma_inj}")
    return 0


def _cmd_suite(args) -> int:
    inst = _get_instance(args)
    report = run_suite(inst, scope=args.scope)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return report.exit_code


def _cmd_builtin(args) -> int:
    doc = builtin(args.name)
    if args.emit:
        sys.stdout.write(emit_instance(doc))
        return 0
    inst = load_builtin(args.name)
    print(f"{inst.name}: {inst.groupoid.size} arrows, algebra dim {inst.algebra.dim}, flags {json.dumps(inst.flags, sort_keys=True)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "validate":
            return _cmd_validate(args)
        if args.verb == "solve-coordinates":
            return _cmd_solve_coordinates(args)
        if args.verb == "jmodules":
            return _cmd_jmodules(args)
        if args.verb == "subgroupoids":
            return _cmd_subgroupoids(args)
        if args.verb == "theta-table":
            return _cmd_theta_table(args)
        if args.verb == "suite":
            return _cmd_suite(args)
        if args.verb == "builtin":
            return _cmd_builtin(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug, not a violation: exit 1 is reserved for those
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
