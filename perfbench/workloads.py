"""The benchmark's three workloads: seeded inputs, the timed operation, and
the untimed check of every result.

Each workload is a list of cases built from the seed before any timing.
``run(case)`` calls only cliffspin's public API (through the ``cliffspin``
module attributes, so the tracer sees every call); ``check(case, out)``
compares the outputs with the numpy references in ``reference.py`` and with
properties the method must have, and returns the relative residuals.
A wrong output raises ``CheckFailed``; the one known fault of the program
(the ideal-form residual with a nonzero charge) marks the case as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import cliffspin as cs
import cliffspin.expressions  # noqa: F401  (not imported by the package itself)
from reference import DiracImage, RefAlgebra, expm

SIG13 = cs.Signature(1, 3)
TOL = 1e-9  # relative tolerance of every residual check


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


def _dense(mv, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    for mask, c in mv.terms.items():
        v[mask] = c
    return v


def _bivector_terms(rng: np.random.Generator) -> dict[int, float]:
    """Random Cl(1,3) bivector; boost components (blades with e1) halved."""
    terms = {}
    for i in range(4):
        for j in range(i + 1, 4):
            c = float(rng.uniform(-1.0, 1.0))
            terms[(1 << i) | (1 << j)] = 0.5 * c if i == 0 else c
    return terms


@dataclass
class Outcome:
    residuals: list[float]
    known_fault: bool = False


# -- spinor-suite ------------------------------------------------------------------


class SpinorSuite:
    """One random regular spinor per operation, through the whole spinor
    calculus: covariants, Fierz suite, decomposition and reconstruction,
    recovery from the covariants, and a frame change."""

    name = "spinor-suite"
    round_len = 2  # fiducial frame, then a random spinorial frame
    ops_per_second = 110
    tail_pct = 95
    warmup = "s = cs.Signature(1, 3); a = cs.Multivector(s, {m: 1.0 for m in range(16)}); a * a"

    def __init__(self, seed: int, rounds: int):
        rng = np.random.default_rng([seed, 1])
        self.cases = []
        for i in range(rounds * self.round_len):
            self.cases.append(
                {
                    "rho": float(rng.uniform(0.5, 2.0)),
                    "beta": float(rng.uniform(-math.pi, math.pi)),
                    "rotor": _bivector_terms(rng),
                    "frame": _bivector_terms(rng) if i % 2 else None,
                    "target": _bivector_terms(rng),
                }
            )
        self.img = DiracImage()

    def run(self, case: dict) -> dict:
        R = cs.Rotor(cs.exp_bivector(cs.Multivector(SIG13, case["rotor"])))
        if case["frame"] is None:
            frame = cs.fiducial_spinorial_frame(SIG13)
        else:
            u = cs.Rotor(cs.exp_bivector(cs.Multivector(SIG13, case["frame"])))
            frame = cs.spinorial_frame_of(u)
        amp = case["rho"] ** 0.5 * cs.spinors.exp_beta_gamma5(case["beta"] / 2)
        d = cs.DHSRep(frame, cs.geometric_product(amp, R.u))
        cov = cs.bilinear_covariants(d)
        fierz = cs.fierz_residuals(cov)
        factors = cs.canonical_decompose(d)
        rebuilt = cs.canonical_reconstruct(factors, frame)
        recovered = cs.recover_from_covariants(cov, frame)
        cov_recovered = cs.bilinear_covariants(recovered)
        target = cs.spinorial_frame_of(
            cs.Rotor(cs.exp_bivector(cs.Multivector(SIG13, case["target"])))
        )
        moved = cs.change_frame(d, target)
        cov_moved = cs.bilinear_covariants(moved)
        return {
            "R": R, "d": d, "cov": cov, "fierz": fierz, "factors": factors,
            "rebuilt": rebuilt, "recovered": recovered, "cov_recovered": cov_recovered,
            "target": target, "moved": moved, "cov_moved": cov_moved,
        }

    def _cov_gap(self, a, b) -> float:
        return max(
            abs(a.sigma - b.sigma) / max(1.0, abs(b.sigma)),
            abs(a.omega - b.omega) / max(1.0, abs(b.omega)),
            *(_rel(_dense(x, 16), _dense(y, 16)) for x, y in ((a.J, b.J), (a.S, b.S), (a.K, b.K))),
        )

    def check(self, case: dict, out: dict) -> Outcome:
        img = self.img
        res: list[float] = []
        R_ref = expm(img.of(case["rotor"]))
        U = np.eye(4) if case["frame"] is None else expm(img.of(case["frame"]))
        T = expm(img.of(case["target"]))
        res.append(_rel(img.of(out["R"].u.terms), R_ref))
        half = case["beta"] / 2
        psi = case["rho"] ** 0.5 * (math.cos(half) * np.eye(4) + math.sin(half) * img.g5) @ R_ref
        res.append(_rel(img.of(out["d"].psi.terms), psi))

        # Covariants in the frame b_mu = u^-1 E_mu u, upper index g^i = -b_i.
        Uinv = np.linalg.inv(U)
        b = [Uinv @ g @ U for g in img.gammas]
        up = [b[0], -b[1], -b[2], -b[3]]
        psit = img.rev(psi)
        agg = img.coeffs(psi @ psit)
        sigma, omega = agg[0].real, -agg[15].real
        cov = out["cov"]
        res.append(abs(cov.sigma - sigma) / max(1.0, abs(sigma)))
        res.append(abs(cov.omega - omega) / max(1.0, abs(omega)))
        grade = np.array([bin(m).count("1") for m in range(16)])
        for got, mat, k in (
            (cov.J, psi @ up[0] @ psit, 1),
            (cov.S, psi @ up[1] @ up[2] @ psit, 2),
            (cov.K, psi @ up[3] @ psit, 1),
        ):
            want = np.where(grade == k, img.coeffs(mat), 0)
            res.append(_rel(_dense(got, 16), want))

        # The paper's Fierz identities: the program's suite, and two of them
        # again on the reference covariants.
        fierz = list(out["fierz"].values())
        _require(not any(math.isnan(r) for r in fierz), "Fierz residual is NaN")
        res.extend(fierz)
        J = img.of_vec(np.where(grade == 1, img.coeffs(psi @ up[0] @ psit), 0))
        K = img.of_vec(np.where(grade == 1, img.coeffs(psi @ up[3] @ psit), 0))
        JJ = np.trace(J @ J).real / 4
        res.append(abs(JJ - (sigma**2 + omega**2)) / max(1.0, JJ))
        res.append(abs(np.trace(J @ K).real / 4) / max(1.0, JJ))

        # Canonical decomposition psi = sqrt(rho) e^{beta g5 / 2} R and back.
        f = out["factors"]
        res.append(abs(f.rho - case["rho"]) / case["rho"])
        turn = round((f.beta - case["beta"]) / (2 * math.pi))
        res.append(abs(f.beta - case["beta"] - 2 * math.pi * turn) / math.pi)
        res.append(_rel(img.of(f.R.u.terms), (-1) ** turn * R_ref))
        res.append(_rel(_dense(out["rebuilt"].psi, 16), _dense(out["d"].psi, 16)))

        # Recovery: same covariants, and psi^-1 psi' a phase e^{g2 g1 phi}.
        res.append(self._cov_gap(out["cov_recovered"], cov))
        X = np.linalg.inv(psi) @ img.of(out["recovered"].psi.terms)
        B21 = b[2] @ b[1]
        c, s = np.trace(X).real / 4, -np.trace(X @ B21).real / 4
        res.append(_rel(X, c * np.eye(4) + s * B21))
        res.append(abs(c * c + s * s - 1.0))

        # Frame change psi' = psi u^-1 u', with frame-independent covariants.
        res.append(_rel(img.of(out["moved"].psi.terms), psi @ Uinv @ T))
        res.append(self._cov_gap(out["cov_moved"], cov))
        worst = max(res)
        _require(worst <= TOL, f"spinor-suite residual {worst:.3g} exceeds {TOL}")
        return Outcome(res)


# -- dirac-planewave ---------------------------------------------------------------

# Fields of one round.  "charged" fields carry a constant potential; their
# inputs come from a fixed generator, the same for every seed, because their
# ideal-form residual is the program's known fault (see CHANGES.md).
ROUND_KINDS = ("plain", "plain", "plain", "plain", "right", "left", "charged", "charged")
ON_SHELL_POINTS = 3
OFF_SHELL_FACTOR = 1.02
CHARGED_SEED = 20020212
ETA = (1.0, -1.0, -1.0, -1.0)


@dataclass
class FieldSpec:
    kind: str
    m: float
    momentum: tuple[float, float, float]
    sign: int
    charge: float = 0.0
    potential: dict[int, float] = field(default_factory=dict)
    gauge: dict[int, float] | None = None


@dataclass
class PointCase:
    spec: FieldSpec
    x: list[float]
    mass: float  # the mass the residuals are evaluated at
    first: bool  # the field is built in this operation
    state: dict  # shared by the points of one field


def _field_spec(rng: np.random.Generator, kind: str, sign: int | None = None) -> FieldSpec:
    m = float(rng.uniform(0.5, 2.0))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    momentum = tuple(float(c) for c in direction * float(rng.uniform(0.0, 3.0 * m)))
    if sign is None:
        sign = int(rng.choice([1, -1]))
    spec = FieldSpec(kind, m, momentum, sign)
    if kind == "charged":
        spec.charge = float(rng.uniform(0.3, 0.8))
        spec.potential = {1 << mu: float(rng.uniform(-0.4, 0.4)) for mu in range(4)}
    if kind in ("right", "left"):
        spec.gauge = _bivector_terms(rng)
    return spec


class DiracPlanewave:
    """The three residuals (operator, ideal and matrix form) at one spacetime
    point of a plane-wave field per operation."""

    name = "dirac-planewave"
    round_len = len(ROUND_KINDS) * (ON_SHELL_POINTS + 1)
    ops_per_second = 330
    tail_pct = 95
    warmup = (
        "s = cs.Signature(1, 3); a = cs.Multivector(s, {m: 1.0 for m in range(16)}); a * a\n"
        "cs.matrixrep._blade_matrices(); cs.standard_gammas()"
    )

    def __init__(self, seed: int, rounds: int):
        rng = np.random.default_rng([seed, 2])
        fixed = np.random.default_rng(CHARGED_SEED)
        self.cases: list[PointCase] = []
        for _ in range(rounds):
            charged_signs = iter((1, -1))
            for kind in ROUND_KINDS:
                src = fixed if kind == "charged" else rng
                spec = _field_spec(src, kind, next(charged_signs) if kind == "charged" else None)
                state: dict = {}
                for k in range(ON_SHELL_POINTS + 1):
                    x = [float(v) for v in src.uniform(-5.0, 5.0, size=4)]
                    mass = spec.m if k < ON_SHELL_POINTS else OFF_SHELL_FACTOR * spec.m
                    self.cases.append(PointCase(spec, x, mass, k == 0, state))
        self.img = DiracImage()

    def run(self, case: PointCase) -> dict:
        spec, st = case.spec, case.state
        if case.first:
            pot = None
            if spec.charge:
                pot = cs.ConstantPotential(cs.Multivector(SIG13, spec.potential), spec.charge)
            base = cs.planewave_solution(spec.m, spec.momentum, sign=spec.sign, pot=pot)
            st.clear()
            st.update(base=base, base_pot=pot, field=base, pot=pot, left=None)
            if spec.gauge is not None:
                s = cs.Rotor(cs.exp_bivector(cs.Multivector(SIG13, spec.gauge)))
                if spec.kind == "right":
                    st["field"] = cs.right_gauge(base, s)
                else:
                    gauged = cs.left_gauge(base, s, pot)
                    st.update(field=gauged.field, pot=gauged.pot, left=gauged.left_rotor)
        x, mass = case.x, case.mass
        dhe = cs.dhe_residual(st["field"], st["pot"], mass, x, left_rotor=st["left"])
        # A left gauge transports the operator form only; the ideal and
        # matrix forms are evaluated on the field before the gauge.
        wave = st["field"] if st["left"] is None else st["base"]
        asf = cs.asf_residual(wave, st["base_pot"], mass, x)
        mat = cs.matrix_dirac_residual(wave, st["base_pot"], mass, x)
        return {"dhe": dhe, "asf": asf, "matrix": mat}

    def _reference_dhe(self, case: PointCase) -> np.ndarray:
        """Operator-form residual recomputed in the Dirac image from the
        field's amplitude, momentum and frame, with the analytic derivative
        d_mu psi = -s p_mu psi B, B = b2 b1."""
        img, st = self.img, case.state
        fld = st["field"]
        b = [img.of(v.terms) for v in fld.frame.frame.vectors]
        B = b[2] @ b[1]
        theta = sum(ETA[mu] * fld.p.coeff(1 << mu).real * case.x[mu] for mu in range(4))
        psi = img.of(fld.psi0.terms) @ (math.cos(theta) * np.eye(4) - fld.energy_sign * math.sin(theta) * B)
        upper = [img.gammas[0], -img.gammas[1], -img.gammas[2], -img.gammas[3]]
        if st["left"] is not None:
            S = img.of(st["left"].u.terms)
            upper = [S @ g @ np.linalg.inv(S) for g in upper]
        dpsi = sum(
            upper[mu] @ (-fld.energy_sign * ETA[mu] * fld.p.coeff(1 << mu).real * psi @ B)
            for mu in range(4)
        )
        res = dpsi @ B - case.mass * psi @ b[0]
        if st["pot"] is not None:
            res = res + st["pot"].q_charge * img.of(st["pot"].A.terms) @ psi
        return res

    def check(self, case: PointCase, out: dict) -> Outcome:
        spec, st = case.spec, case.state
        amp = max(1.0, st["field"].psi0.max_abs(), st["base"].psi0.max_abs())
        scale = amp * (spec.m + sum(abs(c) for c in spec.momentum) + spec.charge * sum(
            abs(c) for c in spec.potential.values()
        ))
        r_dhe = out["dhe"].max_abs()
        r_asf = out["asf"].max_abs()
        r_mat = float(np.abs(out["matrix"]).max())
        r_ref = float(np.abs(self._reference_dhe(case)).max())
        if case.mass != spec.m:
            # Off shell by 2% in the mass: every form must see it.
            _require(min(r_dhe, r_asf, r_mat, r_ref) >= 1e-3, "off-shell point not detected")
            return Outcome([])
        res = [r_dhe / scale, r_mat / scale, r_ref / scale]
        known_fault = False
        if spec.charge:
            known_fault = r_asf / scale > TOL
        else:
            res.append(r_asf / scale)
        if case.first:
            # Central finite differences of the field against the analytic D psi.
            fld, h = st["field"], 1e-5
            fd = np.zeros((4, 4), dtype=complex)
            for mu in range(4):
                xp, xm = list(case.x), list(case.x)
                xp[mu] += h
                xm[mu] -= h
                diff = (self.img.of(fld.evaluate(xp).terms) - self.img.of(fld.evaluate(xm).terms)) / (2 * h)
                g = self.img.gammas[mu] if mu == 0 else -self.img.gammas[mu]
                fd = fd + g @ diff
            analytic = self.img.of(cs.spin_dirac_apply(fld, case.x).terms)
            _require(_rel(fd, analytic) <= 1e-6, "finite-difference D psi disagrees")
        worst = max(res)
        _require(worst <= TOL, f"dirac-planewave residual {worst:.3g} exceeds {TOL}")
        return Outcome(res, known_fault)


# -- algebra-sweep -----------------------------------------------------------------

# An odd number of signatures of distinct cost puts the median operation in
# the middle of one signature's spread rather than on a step between two.
SIGNATURES = ((3, 2), (2, 3), (3, 3), (4, 2), (4, 3))
# (p - q) mod 8 -> (ring, real dimension of its division ring)
_RING = {
    0: ("R", 1), 1: ("R+R", 1), 2: ("R", 1), 3: ("C", 2),
    4: ("H", 4), 5: ("H+H", 4), 6: ("H", 4), 7: ("C", 2),
}


def _minimal_ideal_dim(p: int, q: int) -> int:
    """Real dimension of a minimal left ideal of Cl(p,q) ~ K(m) or K(m)+K(m)."""
    ring, k_dim = _RING[(p - q) % 8]
    copies = 2 if "+" in ring else 1
    m = math.isqrt((1 << (p + q)) // (k_dim * copies))
    return k_dim * m


def _expression(rng: np.random.Generator, n: int, depth: int):
    """Random expression tree over blades and small integers, as
    (text, tree).  Every binary node is parenthesised, so the text does not
    depend on the parser's precedence."""
    if depth == 0 or rng.uniform() < 0.2:
        if rng.uniform() < 0.25:
            v = int(rng.integers(1, 4))
            return str(v), ("num", v)
        i = int(rng.integers(1, n + 1))
        return f"e{i}", ("blade", i)
    if rng.uniform() < 0.25:
        fn = ("rev", "gradeinv", f"grade{int(rng.integers(0, 4))}")[int(rng.integers(0, 3))]
        text, tree = _expression(rng, n, depth - 1)
        return f"{fn}({text})", ("unary", fn, tree)
    op = ("+", "-", "*", "^", "_|", "|_")[int(rng.integers(0, 6))]
    lt, ltree = _expression(rng, n, depth - 1)
    rt, rtree = _expression(rng, n, depth - 1)
    return f"({lt} {op} {rt})", ("binary", op, ltree, rtree)


def _ref_eval(ref: RefAlgebra, tree) -> np.ndarray:
    kind = tree[0]
    if kind == "num":
        return tree[1] * ref.one()
    if kind == "blade":
        v = np.zeros(ref.dim, dtype=complex)
        v[1 << (tree[1] - 1)] = 1.0
        return v
    if kind == "unary":
        arg = _ref_eval(ref, tree[2])
        if tree[1] == "rev":
            return ref.reversion(arg)
        if tree[1] == "gradeinv":
            return ref.grade_involution(arg)
        return ref.grade_part(arg, int(tree[1][5:]))
    a, b = _ref_eval(ref, tree[2]), _ref_eval(ref, tree[3])
    return {
        "+": lambda: a + b,
        "-": lambda: a - b,
        "*": lambda: ref.product(a, b),
        "^": lambda: ref.wedge(a, b),
        "_|": lambda: ref.left_contraction(a, b),
        "|_": lambda: ref.right_contraction(a, b),
    }[tree[1]]()


class AlgebraSweep:
    """One signature per operation with dense operands: idempotent search and
    its exact orthogonal expansion, dense product, wedge, contraction and
    inverse, an expression, and JSON and text round trips."""

    name = "algebra-sweep"
    round_len = len(SIGNATURES)
    ops_per_second = 16
    tail_pct = 90
    warmup = "import cliffspin.expressions\n" + "\n".join(
        f"a = cs.Multivector(cs.Signature({p}, {q}), {{m: 1.0 for m in range({1 << (p + q)})}}); a * a"
        for p, q in SIGNATURES
    )

    def __init__(self, seed: int, rounds: int):
        rng = np.random.default_rng([seed, 3])
        self.refs = {pq: RefAlgebra(*pq) for pq in SIGNATURES}
        self.cases = []
        for _ in range(rounds):
            for p, q in SIGNATURES:
                ref = self.refs[(p, q)]
                a = self._invertible(rng, ref)
                b = rng.uniform(-1.0, 1.0, size=ref.dim)
                text, tree = _expression(rng, p + q, 3)
                self.cases.append(
                    {"pq": (p, q), "search_seed": int(rng.integers(0, 2**31)),
                     "a": a, "b": b, "expr": text, "tree": tree}
                )

    @staticmethod
    def _invertible(rng: np.random.Generator, ref: RefAlgebra) -> np.ndarray:
        """Dense operand whose left multiplication is well conditioned."""
        while True:
            a = rng.uniform(-1.0, 1.0, size=ref.dim)
            if np.linalg.cond(ref.left_matrix(a)) < 1e6:
                return a

    def run(self, case: dict) -> dict:
        p, q = case["pq"]
        sig = cs.Signature(p, q)
        desc = cs.find_primitive_idempotent(p, q, seed=case["search_seed"])
        parts = cs.orthogonal_idempotent_expansion(desc)
        one = cs.Multivector.scalar(sig, 1.0)
        total = cs.Multivector.zero(sig)
        exact = True
        for i, e in enumerate(parts):
            total = total + e
            exact = exact and cs.geometric_product(e, e) == e
            for f in parts[i + 1 :]:
                exact = exact and cs.geometric_product(e, f).is_zero()
                exact = exact and cs.geometric_product(f, e).is_zero()
        exact = exact and total == one
        a = cs.Multivector(sig, dict(enumerate(case["a"].tolist())))
        b = cs.Multivector(sig, dict(enumerate(case["b"].tolist())))
        results = {
            "product": cs.geometric_product(a, b),
            "wedge": cs.wedge(a, b),
            "left": cs.left_contraction(a, b),
            "inverse": cs.inverse(a),
            "expression": cs.expressions.evaluate_source(case["expr"], sig),
        }
        trips = {
            k: (cs.from_json(cs.to_json(v)), cs.parse_multivector(cs.format_multivector(v), sig))
            for k, v in results.items()
        }
        return {"desc": desc, "parts": parts, "exact": exact, "results": results, "trips": trips}

    def check(self, case: dict, out: dict) -> Outcome:
        p, q = case["pq"]
        ref = self.refs[(p, q)]
        _require(out["exact"], "program's expansion check failed")
        parts = [_dense(e, ref.dim) for e in out["parts"]]
        _require(len(parts) == 1 << out["desc"].k_factors, "expansion has the wrong size")
        for i, e in enumerate(parts):
            _require(np.array_equal(ref.product(e, e), e), "part is not idempotent")
            for j, f in enumerate(parts):
                if i != j:
                    _require(not ref.product(e, f).any(), "parts are not orthogonal")
        _require(np.array_equal(sum(parts), ref.one()), "parts do not sum to 1")
        e = _dense(out["desc"].idempotent, ref.dim)
        _require(ref.right_mult_rank(e) == _minimal_ideal_dim(p, q), "idempotent is not primitive")

        a, b = case["a"].astype(complex), case["b"].astype(complex)
        scale = ref.product_scale(a, b)
        got = {k: _dense(v, ref.dim) for k, v in out["results"].items()}
        res = [
            float(np.abs(got["product"] - ref.product(a, b)).max()) / scale,
            float(np.abs(got["wedge"] - ref.wedge(a, b)).max()) / scale,
            float(np.abs(got["left"] - ref.left_contraction(a, b)).max()) / scale,
            float(np.abs(ref.product(a, got["inverse"]) - ref.one()).max())
            / ref.product_scale(a, got["inverse"]),
        ]
        # Integer coefficients: the expression is exact.
        _require(np.array_equal(got["expression"], _ref_eval(ref, case["tree"])), "expression value")
        for k, v in out["results"].items():
            _require(out["trips"][k][0] == v, f"JSON round trip of {k}")
            _require(out["trips"][k][1] == v, f"text round trip of {k}")
        worst = max(res)
        _require(worst <= TOL, f"algebra-sweep residual {worst:.3g} exceeds {TOL}")
        return Outcome(res)


WORKLOADS = {w.name: w for w in (SpinorSuite, DiracPlanewave, AlgebraSweep)}
