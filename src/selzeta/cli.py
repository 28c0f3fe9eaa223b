"""Command-line surface: ad-hoc evaluation plus the verification registry.

Every identity the library is built around is runnable as a named check
producing a JSON-serializable report.  Composite checks normalize their
sub-defects by the per-part bounds, so the report invariant is always
pass <=> defect <= tolerance.  Randomness flows from a single 64-bit seed;
reports omit wall-clock timing so fixed-seed runs are byte-stable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

SCHEMA = "selzeta-verification/1"


@dataclass
class VerificationReport:
    check_id: str
    statement: str
    inputs: dict
    defect: float
    tolerance: float
    passed: bool
    runtime: float

    def payload(self):
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "inputs": self.inputs,
            "defect": self.defect,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass
class RunConfig:
    seed: int = 0
    profile: str = "full"
    tol_override: float = None


def _rng_for(config, check_id):
    return random.Random(f"{config.seed}:{check_id}")


def _alpha_inputs(alpha):
    return {f"({i},{j})": float(v) for (i, j), v in sorted(alpha.items())}


# ---------------------------------------------------------------------------
# the checks, one per acceptance criterion
# ---------------------------------------------------------------------------

def check_beta_identity(config):
    from .graphs import OrderedRootedGraph
    from .selberg import ExponentAssignment, beta_prototype, integrate_graph

    g = OrderedRootedGraph(3, frozenset({1, 2}), ((2, 3),))
    worst = 0.0
    pairs = [(0.1, 0.2), (0.5, 0.5)]
    for a, b in pairs:
        alpha = ExponentAssignment({(1, 2): 0.1, (1, 3): a, (2, 3): b})
        got = integrate_graph(g, alpha, tol=1e-12)
        worst = max(worst, abs(got.value - beta_prototype(a, b)))
    return worst, {"exponent_pairs": pairs}


def check_taylor_mzv(config):
    from .graphs import IndexTuple, wedge_chain
    from .selberg import ExponentAssignment, beta_taylor_target, taylor_coefficients

    gs = wedge_chain(IndexTuple(2, 3, (2,)))
    directions = [(1.0, 1.0)] if config.profile == "quick" else [(1.0, 1.0), (0.1, 0.2)]
    worst = 0.0
    for a, b in directions:
        direction = ExponentAssignment({(1, 2): max(a, b), (1, 3): a, (2, 3): b})
        coeffs, _ = taylor_coefficients(gs, direction, 4, tol=1e-11)
        target = beta_taylor_target(a, b, 4)
        worst = max(worst, max(abs(c - t) for c, t in zip(coeffs, target)))
    return worst, {"directions": directions}


def check_mzv_engine(config):
    from .mzv import MZVIndex, index_to_word, mzv_eval, stuffle_indices, word_eval
    from .ncalg import shuffle_words

    d1 = abs(mzv_eval(MZVIndex((2,)), 1e-13) - math.pi**2 / 6)
    d2 = abs(mzv_eval(MZVIndex((1, 2)), 1e-13) - mzv_eval(MZVIndex((3,)), 1e-13))
    idxs = []
    for w in range(2, 5):
        for depth in range(1, w):
            for head in itertools.product(range(1, w), repeat=depth - 1):
                last = w - sum(head)
                if last >= 2:
                    idxs.append(MZVIndex(head + (last,)))
    abs_err = 1e-11
    d3 = 0.0
    for a, b in itertools.combinations_with_replacement(idxs, 2):
        prod = mzv_eval(a, abs_err) * mzv_eval(b, abs_err)
        sh = sum(m * word_eval(w, abs_err) for w, m in shuffle_words(index_to_word(a), index_to_word(b)).items())
        st = sum(m * mzv_eval(MZVIndex(t), abs_err) for t, m in stuffle_indices(a, b).items())
        d3 = max(d3, abs(sh - prod), abs(st - prod))
    defect = max(d1 / 1e-12, d2 / 1e-12, d3 / 4e-10)
    return defect, {"euler_gap": d2, "pi_gap": d1, "double_shuffle_gap": d3, "index_count": len(idxs)}


def check_pure_braid(config):
    from .braid import build_tower, pure_braid_defects

    n_max = 5 if config.profile == "quick" else 6
    worst = 0.0
    for n in range(3, n_max + 1):
        tower = build_tower(n, 2)
        for fam in tower.values():
            for _, d in pure_braid_defects(fam):
                worst = max(worst, float(d))
    return worst, {"n_max": n_max}


def check_spectrum(config):
    from .braid import sample_alpha, spectrum

    rng = _rng_for(config, "spectrum")
    ns = (4,) if config.profile == "quick" else (4, 5)
    worst = 0.0
    alphas = {}
    for n in ns:
        alpha = sample_alpha(n, rng)
        alphas[n] = _alpha_inputs(alpha)
        for k in (2, 3):
            for size in range(2, k + 1):
                for S in itertools.combinations(range(1, k + 1), size):
                    rep = spectrum(S, k, n, alpha)
                    worst = max(worst, rep.max_gap)
    return worst, {"n_values": list(ns), "alphas": alphas}


def check_eta_gamma(config):
    from .braid import eta_gamma_check
    from .graphs import index_tuples

    rng = _rng_for(config, "eta-gamma")
    worst = 0.0
    count = 0
    for n, r in [(3, 2), (4, 2), (4, 3)]:
        for I in index_tuples(n, r):
            worst = max(worst, float(eta_gamma_check(I, rng)))
            count += 1
    if config.profile != "quick":
        tuples = list(index_tuples(5, 2))
        for I in rng.sample(tuples, 5):
            worst = max(worst, float(eta_gamma_check(I, rng)))
            count += 1
    return worst, {"tuples_checked": count}


def check_residue(config):
    from .graphs import (
        index_tuples,
        omega_coefficient,
        omega_residue_direct,
        principal_product,
        residue_expand,
        wedge_chain,
    )

    rng = _rng_for(config, "residue")
    n_max = 4 if config.profile == "quick" else 5
    worst_residue = 0.0
    graphs_checked = 0
    for n in range(3, n_max + 1):
        seen = set()
        for I in index_tuples(n, 2):
            for g in wedge_chain(I).terms:
                if g in seen:
                    continue
                seen.add(g)
                tops = {o for (p, q) in g.edges for o in (p, q) if g.n in (p, q) and o != g.n}
                for k in tops:
                    res = residue_expand(g, k)
                    for _ in range(10):
                        vals = rng.sample(range(1, 1000), n - 1)
                        x = {v: float(Fraction(vals[v - 1], 1009)) for v in range(1, n)}
                        direct = omega_residue_direct(g, k, x)
                        expanded = sum(c * omega_coefficient(h, x) for h, c in res.terms.items())
                        worst_residue = max(worst_residue, abs(direct - expanded))
                graphs_checked += 1
    mismatches = 0
    pn_max = 5 if config.profile == "quick" else 6
    for n in range(3, pn_max + 1):
        for r in (2, 3):
            if r > n - 1:
                continue
            for I in index_tuples(n, r):
                if principal_product(I) != wedge_chain(I):
                    mismatches += 1
    defect = max(worst_residue / 1e-10, float(mismatches))
    return defect, {"support_graphs": graphs_checked, "residue_gap": worst_residue, "product_mismatches": mismatches}


def check_sum_relation(config):
    from .braid import sample_alpha
    from .selberg import ExponentAssignment, sum_relation_defect

    rng = _rng_for(config, "sum-relation")
    alpha = ExponentAssignment({u: float(v) for u, v in sample_alpha(4, rng).items()})
    worst = 0.0
    d, _ = sum_relation_defect(4, 3, 4, {}, alpha, tol=1e-10, root_values={1: 0.0, 2: 1.0, 3: 0.45})
    worst = max(worst, d)
    for p, partials in [(3, [{4: 1}, {4: 2}, {4: 3}]), (4, [{3: 1}, {3: 2}])]:
        for partial in partials:
            d, _ = sum_relation_defect(4, 2, p, partial, alpha, tol=1e-9)
            worst = max(worst, d)
    return worst, {"alpha": _alpha_inputs(alpha.alphas)}


def check_associator(config):
    from .mzv import MZVIndex, mzv_eval
    from .ncalg import grouplike_defect
    from .transport import associator_numeric, associator_symbolic

    trunc = 3 if config.profile == "quick" else 4
    rep = associator_numeric(trunc, tol=1e-12)
    phi = rep.value
    z2 = mzv_eval(MZVIndex((2,)), 1e-13)
    d_letters = max(abs(phi["X"]), abs(phi["Y"]))
    d_weight2 = max(abs(abs(phi["XY"]) - z2), abs(phi["XY"] + phi["YX"]))
    d_group = grouplike_defect(phi)
    sym = associator_symbolic(trunc).to_ncseries(1e-11)
    d_sym = max(abs(phi[w] - sym[w]) for w in set(phi.coeff) | set(sym.coeff))
    defect = max(d_letters / 1e-7, d_weight2 / 1e-6, d_group / 1e-8, d_sym / 1e-5)
    inputs = {
        "truncation": trunc,
        "degree_one_gap": d_letters,
        "weight_two_gap": d_weight2,
        "grouplike_defect": d_group,
        "symbolic_numeric_gap": d_sym,
    }
    return defect, inputs


def check_projection(config):
    from .braid import sample_alpha
    from .transport import alpha_limit_check, projection_identity_check

    rng = _rng_for(config, "projection")
    samples = 1 if config.profile == "quick" else 3
    worst = 0.0
    alphas = []
    for _ in range(samples):
        alpha = sample_alpha(4, rng)
        alphas.append(_alpha_inputs(alpha))
        rep = projection_identity_check(4, alpha, tol=1e-10)
        worst = max(worst, rep.defect / 1e-4)
    alpha_small = sample_alpha(4, rng, scale=Fraction(2, 5))
    rep = projection_identity_check(4, alpha_small, tol=1e-10)
    worst = max(worst, rep.defect / 1e-4, rep.defect_symbolic / 1e-4)
    if config.profile != "quick":
        rep5 = projection_identity_check(5, sample_alpha(5, rng), tol=1e-8)
        worst = max(worst, rep5.defect / 1e-4)
    alpha = sample_alpha(4, rng)
    case2 = [(2, 3)] if config.profile == "quick" else [(2, 3), (2, 1)]
    case1 = [(2, 2)] if config.profile == "quick" else [(2, 2), (1, 2)]
    limit_gaps = {}
    for entries in case2 + case1:
        dev, target, _ = alpha_limit_check(4, entries, alpha, tol=1e-9)
        limit_gaps[str(entries)] = dev
        worst = max(worst, dev / 1e-4)
    return worst, {"alphas": alphas, "limit_gaps": limit_gaps, "symbolic_defect": rep.defect_symbolic}


@dataclass(frozen=True)
class Check:
    check_id: str
    statement: str
    tolerance: float
    runner: object
    quick: bool = True


REGISTRY = [
    Check("beta-identity", "three-vertex integral equals the Gamma-function ratio", 1e-8, check_beta_identity),
    Check("taylor-mzv", "Taylor coefficients of the scaled integral match the zeta-series expansion", 1e-6, check_taylor_mzv),
    Check("mzv-engine", "zeta evaluation, Euler identity, and double-shuffle consistency (normalized)", 1.0, check_mzv_engine),
    Check("pure-braid", "induction preserves the pure-braid relations exactly at every level", 0.0, check_pure_braid),
    Check("spectrum", "subset-sum eigenvalue formula matches dense spectra, full and reduced", 1e-9, check_spectrum),
    Check("eta-gamma", "recursion coordinates equal the wedge-chain log-form sums exactly", 0.0, check_eta_gamma),
    Check("residue", "residue expansion identity and wedge-chain = pair-product expansion (normalized)", 1.0, check_residue),
    Check("sum-relation", "component sums of the wedge-chain integrals vanish", 1e-7, check_sum_relation),
    Check("associator", "ladder element: degree-1 vanishing, weight-2 value, group-likeness, symbolic match (normalized)", 1.0, check_associator),
    Check("projection", "projected boundary identity and vertex-exponent limits (normalized)", 1.0, check_projection),
]

CHECKS = {c.check_id: c for c in REGISTRY}


def run_check(check_id, config=None):
    config = config or RunConfig()
    if config.profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {config.profile!r}")
    if not isinstance(config.seed, int):
        raise ValueError("seed must be an integer")
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}; known: {', '.join(CHECKS)}")
    check = CHECKS[check_id]
    tolerance = config.tol_override if config.tol_override is not None else check.tolerance
    start = time.perf_counter()
    defect, inputs = check.runner(config)
    runtime = time.perf_counter() - start
    defect = float(defect)
    return VerificationReport(
        check_id=check_id,
        statement=check.statement,
        inputs=inputs,
        defect=defect,
        tolerance=tolerance,
        passed=defect <= tolerance,
        runtime=runtime,
    )


def run_suite(profile="quick", seed=0, check_ids=None):
    config = RunConfig(seed=seed, profile=profile)
    ids = check_ids or [c.check_id for c in REGISTRY]
    return [run_check(cid, config) for cid in ids]


def payload_for(reports, seed, profile):
    return {
        "schema": SCHEMA,
        "seed": seed,
        "profile": profile,
        "reports": [r.payload() for r in reports],
    }


def validate_payload(payload):
    if payload.get("schema") != SCHEMA:
        raise ValueError("unknown schema")
    if not isinstance(payload.get("seed"), int):
        raise ValueError("seed must be an integer")
    for rep in payload["reports"]:
        for key, kind in [
            ("check_id", str),
            ("statement", str),
            ("inputs", dict),
            ("defect", (int, float)),
            ("tolerance", (int, float)),
            ("passed", bool),
        ]:
            if not isinstance(rep.get(key), kind):
                raise ValueError(f"report field {key} missing or mistyped")
        if rep["passed"] != (rep["defect"] <= rep["tolerance"]):
            raise ValueError("pass flag inconsistent with defect and tolerance")
    return True


# ---------------------------------------------------------------------------
# argparse surface
# ---------------------------------------------------------------------------

def _cmd_mzv_eval(args):
    from .mzv import MZVIndex, mzv_eval

    parts = tuple(int(p) for p in args.index.replace(" ", "").split(","))
    value = mzv_eval(MZVIndex(parts), args.abs_err)
    print(f"zeta{parts} = {value:.15f}")
    return 0


def _cmd_graph_wedge(args):
    from .graphs import IndexTuple, format_graph, wedge_chain

    entries = tuple(int(i) for i in args.indices.replace(" ", "").split(","))
    gs = wedge_chain(IndexTuple(args.r, args.n, entries))
    for g, c in sorted(gs.terms.items(), key=lambda t: repr(t[0])):
        print(f"{c:+d}  {format_graph(g)}")
    return 0


def _cmd_tower_build(args):
    from .braid import build_tower, pure_braid_defects, tower_dim

    tower = build_tower(args.n, args.r)
    status = 0
    for k in sorted(tower, reverse=True):
        fam = tower[k]
        defects = pure_braid_defects(fam)
        ok = "relations ok" if not defects else f"RELATION DEFECTS: {defects[:3]}"
        if defects:
            status = 1
        print(f"level {k}: dimension {fam.dim} (expected {tower_dim(k, args.n)}), {ok}")
    return status


def _cmd_selberg_integrate(args):
    from .graphs import parse_graph
    from .selberg import ExponentAssignment, integrate_graph

    with open(args.graph_file) as fh:
        line = fh.read().strip()
    g = parse_graph(line)
    if args.alpha:
        alphas = {}
        for spec in args.alpha:
            key, _, val = spec.partition("=")
            i, j = key.strip("() ").split(",")
            alphas[(int(i), int(j))] = float(val)
        alpha = ExponentAssignment(alphas)
    else:
        alpha = ExponentAssignment.uniform(g.n, args.alpha_uniform)
    root_values = None
    if len(g.roots) == 3:
        root_values = {1: 0.0, 2: 1.0, 3: args.x3}
    res = integrate_graph(g, alpha, tol=args.tol, root_values=root_values)
    print(
        json.dumps(
            {
                "graph": line,
                "alphas": {f"({i},{j})": float(v) for (i, j), v in sorted(alpha.alphas.items())},
                "value": res.value,
                "err": res.err_estimate,
                "evals": res.evaluations,
                "converged": res.converged,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_assoc_expand(args):
    from .transport import associator_numeric, associator_series, associator_symbolic

    if args.method == "symbolic":
        hr = associator_symbolic(args.degree)
        for w in sorted(hr.coeff, key=lambda w: (len(w), w)):
            print(f"{w or '1':<{args.degree}}  {hr.coeff[w]}")
        return 0
    series = associator_series(args.degree) if args.method == "series" else associator_numeric(args.degree).value
    for w in sorted(series.coeff, key=lambda w: (len(w), w)):
        print(f"{w or '1':<{args.degree}}  {series[w]:+.12f}")
    return 0


def _print_report(rep, show_runtime=True):
    flag = "pass" if rep.passed else "FAIL"
    extra = f"  [{rep.runtime:.2f}s]" if show_runtime else ""
    print(f"{flag}  {rep.check_id:<14} defect {rep.defect:.3e}  tolerance {rep.tolerance:.3e}{extra}")


def _cmd_verify(args):
    seed = args.seed
    if args.check_id == "all":
        reports = run_suite(profile=args.profile, seed=seed)
    else:
        config = RunConfig(seed=seed, profile=args.profile, tol_override=args.tol)
        reports = [run_check(args.check_id, config)]
    for rep in reports:
        _print_report(rep)
    if args.json:
        payload = payload_for(reports, seed, args.profile)
        validate_payload(payload)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(r.passed for r in reports) else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="selzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mzv", help="multiple zeta value utilities")
    psub = p.add_subparsers(dest="sub", required=True)
    pe = psub.add_parser("eval", help="evaluate an admissible index, e.g. 1,2")
    pe.add_argument("index")
    pe.add_argument("--abs-err", type=float, default=1e-12)
    pe.set_defaults(func=_cmd_mzv_eval)

    p = sub.add_parser("graph", help="ordered rooted graph utilities")
    psub = p.add_subparsers(dest="sub", required=True)
    pw = psub.add_parser("wedge", help="expand a wedge chain")
    pw.add_argument("--n", type=int, required=True)
    pw.add_argument("--r", type=int, required=True)
    pw.add_argument("--indices", required=True, help="comma-separated attachment indices")
    pw.set_defaults(func=_cmd_graph_wedge)

    p = sub.add_parser("tower", help="pure-braid matrix tower")
    psub = p.add_subparsers(dest="sub", required=True)
    pt = psub.add_parser("build", help="build and check the tower")
    pt.add_argument("--n", type=int, required=True)
    pt.add_argument("--r", type=int, required=True)
    pt.set_defaults(func=_cmd_tower_build)

    p = sub.add_parser("selberg", help="Selberg integral evaluation")
    psub = p.add_subparsers(dest="sub", required=True)
    ps = psub.add_parser("integrate", help="integrate a graph file: 'n r | (p,q) ...'")
    ps.add_argument("graph_file")
    ps.add_argument("--alpha", action="append", help="pair exponent, e.g. (1,3)=0.5; repeatable")
    ps.add_argument("--alpha-uniform", type=float, default=0.1)
    ps.add_argument("--tol", type=float, default=None)
    ps.add_argument("--x3", type=float, default=0.5)
    ps.set_defaults(func=_cmd_selberg_integrate)

    p = sub.add_parser("assoc", help="the canonical two-letter series element")
    psub = p.add_subparsers(dest="sub", required=True)
    pa = psub.add_parser("expand", help="print coefficients up to a degree")
    pa.add_argument("--degree", type=int, default=4)
    pa.add_argument("--method", choices=["numeric", "series", "symbolic"], default="series")
    pa.set_defaults(func=_cmd_assoc_expand)

    p = sub.add_parser("verify", help="run registered verification checks")
    p.add_argument("check_id", help="a check id or 'all'")
    p.add_argument("--profile", choices=["quick", "full"], default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", help="write the report array to this file")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
