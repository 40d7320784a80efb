"""Command-line front end.

Exit codes: 0 success, 1 when a verification residual exceeds tolerance,
2 on usage or domain errors (bad input, a non-invertible element, an
unreadable file), reported as one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .classify import (
    classify,
    find_primitive_idempotent,
    ideal_dim_over_K,
    ideal_real_dim,
    is_simple,
)
from .dirac import (
    ConstantPotential,
    asf_residual,
    dhe_residual,
    matrix_dirac_residual,
    planewave_solution,
)
from .expressions import evaluate_source
from .groups import Rotor, SpinorialFrame, random_rotor
from .matrixrep import matrix_of, s_of_rotor, standard_gammas
from .multivector import Multivector, Signature, geometric_product
from .serialization import (
    format_multivector,
    from_json_dict,
    to_json,
    to_json_dict,
)
from .spinors import (
    SIG13,
    DHSRep,
    bilinear_covariants,
    canonical_decompose,
    fierz_residuals,
    fiducial_spinorial_frame,
    random_regular_spinor,
)

ISO = "≅"


def cmd_classify(args) -> int:
    desc = classify(args.p, args.q)
    iso = "~=" if args.ascii else ISO
    name = str(desc)
    if args.ascii:
        name = name.replace("⊕", "(+)")
    print(f"Cl({args.p},{args.q}) {iso} {name}")
    return 0


def cmd_idempotent(args) -> int:
    desc = find_primitive_idempotent(args.p, args.q, seed=args.seed)
    print(f"idempotent: {format_multivector(desc.idempotent)}")
    print(f"factors (k): {desc.k_factors}")
    print(f"ideal real dimension: {ideal_real_dim(desc.idempotent)}")
    print(f"ideal dimension over K: {ideal_dim_over_K(desc.idempotent)}")
    print(f"division ring: {desc.division_ring}")
    if not is_simple(args.p, args.q):
        print("note: algebra splits as a direct sum; idempotent lives in one summand")
    return 0


def cmd_fierz(args) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    worst: dict[str, float] = {}
    for _ in range(args.trials):
        d = random_regular_spinor(rng)
        for name, r in fierz_residuals(bilinear_covariants(d)).items():
            worst[name] = max(worst.get(name, 0.0), r)
    failed = False
    print(f"identity residuals over {args.trials} random regular spinors (seed {args.seed}):")
    for name in sorted(worst):
        status = "ok" if worst[name] <= args.tol else "FAIL"
        failed = failed or worst[name] > args.tol
        print(f"  {name:<45s} {worst[name]:.3e}  {status}")
    return 1 if failed else 0


def cmd_planewave(args) -> int:
    import numpy as np

    pot = None
    if args.charge:
        A = Multivector(
            SIG13, {1: args.at, 2: args.ax, 4: args.ay, 8: args.az}
        )
        pot = ConstantPotential(A, args.charge)
    field = planewave_solution(args.mass, (args.px, args.py, args.pz), sign=args.sign, pot=pot)
    rng = np.random.default_rng(args.seed)
    print("t,x,y,z,dhe_res,asf_res,matrix_res")
    worst = 0.0
    for _ in range(args.points):
        x = [float(v) for v in rng.uniform(-5, 5, size=4)]
        r1 = dhe_residual(field, pot, args.mass, x).max_abs()
        r2 = asf_residual(field, pot, args.mass, x).max_abs()
        r3 = float(np.max(np.abs(matrix_dirac_residual(field, pot, args.mass, x))))
        worst = max(worst, r1, r2, r3)
        print(f"{x[0]:.6f},{x[1]:.6f},{x[2]:.6f},{x[3]:.6f},{r1:.3e},{r2:.3e},{r3:.3e}")
    cov = bilinear_covariants(DHSRep(field.frame, field.psi0))
    print()
    print(
        json.dumps(
            {
                "sigma": cov.sigma,
                "omega": cov.omega,
                "J": to_json_dict(cov.J),
                "S": to_json_dict(cov.S),
                "K": to_json_dict(cov.K),
            }
        )
    )
    return 1 if worst > args.tol else 0


def cmd_verify_rep(args) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    worst_m = 0.0
    worst_s = 0.0
    for _ in range(args.trials):
        terms_a = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in range(16)}
        terms_b = {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in range(16)}
        a = Multivector(SIG13, terms_a)
        b = Multivector(SIG13, terms_b)
        diff = matrix_of(geometric_product(a, b)) - matrix_of(a) @ matrix_of(b)
        worst_m = max(worst_m, float(np.max(np.abs(diff))))
        u = random_rotor(SIG13, rng)
        v = random_rotor(SIG13, rng)
        diff_s = s_of_rotor(u * v) - s_of_rotor(u) @ s_of_rotor(v)
        worst_s = max(worst_s, float(np.max(np.abs(diff_s))))
    rep = standard_gammas()
    eta = (1, -1, -1, -1)
    worst_g = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = rep.gammas[mu] @ rep.gammas[nu] + rep.gammas[nu] @ rep.gammas[mu]
            want = 2.0 * eta[mu] * np.eye(4) if mu == nu else np.zeros((4, 4))
            worst_g = max(worst_g, float(np.max(np.abs(anti - want))))
    print(f"matrix_of homomorphism residual:  {worst_m:.3e}")
    print(f"S(u) homomorphism residual:       {worst_s:.3e}")
    print(f"gamma anticommutator residual:    {worst_g:.3e}")
    return 1 if max(worst_m, worst_s, worst_g) > args.tol else 0


def cmd_decompose(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "psi" not in data:
        raise ValueError(f"{args.infile}: expected a JSON object with a 'psi' entry")
    psi = from_json_dict(data["psi"])
    frame = fiducial_spinorial_frame(SIG13)
    if "rotor" in data:
        frame = SpinorialFrame(Rotor(from_json_dict(data["rotor"])))
    factors = canonical_decompose(DHSRep(frame, psi))
    print(f"rho: {factors.rho!r}")
    print(f"beta: {factors.beta!r}")
    print(f"R: {format_multivector(factors.R.u)}")
    return 0


def cmd_eval(args) -> int:
    try:
        p, q = map(int, args.sig.split(","))
    except ValueError:
        raise ValueError(f"bad signature {args.sig!r}; expected P,Q") from None
    sig = Signature(p, q)
    result = evaluate_source(args.expr, sig)
    if args.json:
        print(to_json(result))
    else:
        print(format_multivector(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffspin",
        description="Clifford algebra engine with spacetime spinor calculus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_noop_ascii(p):
        # Only classify prints non-ASCII text.  The other commands accept
        # --ascii, so that scripts keep working, but leave it out of --help.
        p.add_argument("--ascii", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("classify", help="matrix-algebra classification of Cl(p,q)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ascii", action="store_true", help="ASCII-only output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("idempotent", help="primitive idempotent and minimal ideal data")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    add_noop_ascii(p)
    p.set_defaults(func=cmd_idempotent)

    p = sub.add_parser("fierz", help="verify the covariant identity suite")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_fierz)

    p = sub.add_parser("planewave", help="plane-wave residuals in all three forms")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--px", type=float, default=0.0)
    p.add_argument("--py", type=float, default=0.0)
    p.add_argument("--pz", type=float, default=0.0)
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--charge", type=float, default=0.0)
    p.add_argument("--at", type=float, default=0.0)
    p.add_argument("--ax", type=float, default=0.0)
    p.add_argument("--ay", type=float, default=0.0)
    p.add_argument("--az", type=float, default=0.0)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_planewave)

    p = sub.add_parser("verify-rep", help="matrix representation consistency checks")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_verify_rep)

    p = sub.add_parser("decompose", help="canonical decomposition of a spinor JSON file")
    p.add_argument("--in", dest="infile", required=True)
    add_noop_ascii(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("eval", help="evaluate a multivector expression")
    p.add_argument("--sig", required=True, help="signature as P,Q")
    p.add_argument("expr", nargs="?")
    p.add_argument("--json", action="store_true")
    add_noop_ascii(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i, word in enumerate(argv[:-1]):
        # argparse reads a value that starts with '-', such as the -1,3 of a
        # bad signature, as an option; joined to its flag it stays the value.
        if word == "--sig" and argv[i + 1].startswith("-") and not argv[i + 1].startswith("--"):
            argv[i : i + 2] = [f"--sig={argv[i + 1]}"]
            break
    args, extras = parser.parse_known_args(argv)
    if args.command == "eval" and args.expr is None and len(extras) == 1:
        # argparse sets aside an expression that starts with '-', such as
        # -e1, as an unknown option; a word that starts with '--' stays one.
        if not extras[0].startswith("--"):
            args.expr, extras = extras[0], []
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.command == "eval" and args.expr is None:
        parser.error("the following arguments are required: expr")
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        # Domain errors; exit 1 stays reserved for failed verifications.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
