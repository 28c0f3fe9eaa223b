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
from fractions import Fraction

from ._value import Frozen

SCHEMA = "selzeta-verification/1"


class VerificationReport:
    def __init__(self, check_id, statement, inputs, defect, tolerance, passed, runtime):
        self.check_id, self.statement, self.inputs = check_id, statement, inputs
        self.defect, self.tolerance, self.passed, self.runtime = defect, tolerance, passed, runtime

    def payload(self):
        return {
            "check_id": self.check_id,
            "statement": self.statement,
            "inputs": self.inputs,
            "defect": self.defect,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


class RunConfig:
    def __init__(self, seed=0, profile="full", tol_override=None):
        self.seed, self.profile, self.tol_override = seed, profile, tol_override


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

    d1 = abs(mzv_eval(MZVIndex((2,))) - math.pi**2 / 6)
    d2 = abs(mzv_eval(MZVIndex((1, 2))) - mzv_eval(MZVIndex((3,))))
    idxs = []
    for w in range(2, 5):
        for depth in range(1, w):
            for head in itertools.product(range(1, w), repeat=depth - 1):
                last = w - sum(head)
                if last >= 2:
                    idxs.append(MZVIndex(head + (last,)))
    d3 = 0.0
    for a, b in itertools.combinations_with_replacement(idxs, 2):
        prod = mzv_eval(a) * mzv_eval(b)
        sh = sum(m * word_eval(w) for w, m in shuffle_words(index_to_word(a), index_to_word(b)).items())
        st = sum(m * mzv_eval(MZVIndex(t)) for t, m in stuffle_indices(a, b).items())
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
    """Recursion coordinates against wedge-chain log-form sums, exactly.

    Each (n, r) group, (3,2), (4,2), (4,3) and five sampled (5,2) tuples,
    shares one generator family and one rational point, drawn once for it.
    A tuple's defect is a fixed polynomial in that draw, so by Schwartz-Zippel
    it keeps its own bound on passing an error whatever shares the draw.  At
    n - r = 1, the (3,2) and (4,3) groups, the identity holds for any
    matrices, so those groups test only the graph side.
    """
    from .braid import eta_gamma_check, eta_gamma_point, matrix_generators
    from .graphs import index_tuples

    rng = _rng_for(config, "eta-gamma")
    groups = [(n, list(index_tuples(n, r))) for n, r in [(3, 2), (4, 2), (4, 3)]]
    if config.profile != "quick":
        groups.append((5, rng.sample(list(index_tuples(5, 2)), 5)))
    worst = 0.0
    for n, tuples in groups:
        gens = matrix_generators(n, rng)
        x = eta_gamma_point(n, rng)
        worst = max(worst, *(float(eta_gamma_check(I, None, x=x, gens=gens)) for I in tuples))
    return worst, {"tuples_checked": sum(len(tuples) for _, tuples in groups)}


def check_residue(config):
    """Residue identity and pair-product expansion, both exactly.

    For every wedge-chain support g at r = 2 and top edge (n, k), the residue
    of omega_g at x_n = x_k (determinant surgery) must equal the signed sum of
    residue_expand(g, k) at 10 random rational points x_v = vals_v / 1009.
    The 10 points of each n are drawn once and prepared once
    (graphs.residue_point), then shared by every identity on them: a gap is a
    fixed polynomial in the point, so by Schwartz-Zippel each identity keeps
    its own bound on passing an error whatever else shares the point.  Each
    identity is evaluated in integers (graphs.residue_identity): every log
    form's numerator over the point's one common denominator, summed as
    plain ints, so a gap is an exact Fraction and any nonzero one fails.
    """
    from .graphs import index_tuples, principal_product, residue_expand, residue_identity, residue_point, wedge_chain

    rng = _rng_for(config, "residue")
    n_max = 4 if config.profile == "quick" else 5
    worst_residue = 0.0
    graphs_checked = 0
    for n in range(3, n_max + 1):
        points = [residue_point(dict(enumerate(rng.sample(range(1, 1000), n - 1), 1)), 1009) for _ in range(10)]
        supports = {g: None for I in index_tuples(n, 2) for g in wedge_chain(I).terms}
        for g in supports:
            # the top edges (k, n); every edge is a (min, max) pair
            for k in {p for p, q in g.edges if q == n}:
                at = residue_identity(g, k, residue_expand(g, k)).at
                worst_residue = max(worst_residue, *(abs(at(point)) for point in points))
        graphs_checked += len(supports)
    mismatches = 0
    pn_max = 5 if config.profile == "quick" else 6
    for n in range(3, pn_max + 1):
        for r in (2, 3):
            if r > n - 1:
                continue
            for I in index_tuples(n, r):
                if principal_product(I) != wedge_chain(I):
                    mismatches += 1
    defect = max(float(worst_residue), float(mismatches))
    return defect, {"support_graphs": graphs_checked, "residue_gap": float(worst_residue), "product_mismatches": mismatches}


def check_sum_relation(config):
    from .braid import sample_alpha
    from .selberg import ExponentAssignment, sum_relation_defect

    rng = _rng_for(config, "sum-relation")
    alpha = ExponentAssignment(sample_alpha(4, rng))
    sums = [sum_relation_defect(4, 3, 4, {}, alpha, tol=1e-10, root_values={1: 0.0, 2: 1.0, 3: 0.45})]
    for p, partials in [(3, [{4: 1}, {4: 2}, {4: 3}]), (4, [{3: 1}, {3: 2}])]:
        for partial in partials:
            sums.append(sum_relation_defect(4, 2, p, partial, alpha, tol=1e-9))
    worst = max(abs(s.value) for s in sums)
    return worst, {"alpha": _alpha_inputs(alpha.alphas), "unconverged": sum(s.unconverged for s in sums)}


# normalizers of the associator sub-defects.  The matched series agrees with
# the closed forms and the zeta-combination element to rounding: at most
# 2.2e-16 (degree one, weight two), 2.2e-15 (group-likeness) and 8.9e-16
# (symbolic) on both profiles, 450x or more below these.  The symbolic and
# weight-two normalizers also cover a zeta evaluation error of mzv.MIN_ABS_ERR
# (1e-13) per value on combinations of coefficient mass up to 5.
ASSOC_NORMS = {
    "degree_one_gap": 1e-13,
    "weight_two_gap": 1e-12,
    "grouplike_defect": 1e-12,
    "symbolic_numeric_gap": 1e-12,
}


def check_associator(config):
    """The matched series element against closed forms and the symbolic element.

    ncalg.associator_series sums the local power-series solutions in the
    two-letter algebra and matches them at 1/2; mzv.associator_symbolic
    builds zeta combinations by shuffle regularization and evaluates them
    with mzv_eval.  They share only the word list and the shuffle product.
    """
    from .mzv import MZVIndex, associator_symbolic, mzv_eval
    from .ncalg import associator_series, grouplike_defect

    trunc = 3 if config.profile == "quick" else 4
    phi = associator_series(trunc)
    z2 = mzv_eval(MZVIndex((2,)))
    sym = associator_symbolic(trunc).to_ncseries()
    gaps = {
        "degree_one_gap": max(abs(phi["X"]), abs(phi["Y"])),
        "weight_two_gap": max(abs(abs(phi["XY"]) - z2), abs(phi["XY"] + phi["YX"])),
        "grouplike_defect": grouplike_defect(phi),
        "symbolic_numeric_gap": max(abs(phi[w] - sym[w]) for w in set(phi.coeff) | set(sym.coeff)),
    }
    defect = max(gaps[k] / ASSOC_NORMS[k] for k in gaps)
    return defect, {"truncation": trunc, **gaps}


# normalizer of the projected identity defect.  The matched transport is exact
# to rounding, so the quadrature error sets the defect: at most 6.9e-13 over
# seeds 0-39 of the full profile, the small-exponent run included
IDENTITY_NORM = 1e-6
# normalizer of the vertex-2 limit gaps.  The face term is exact up to the
# quadrature's rounding, so the gap to its target is at most 3.3e-16 over
# seeds 0-7 of both profiles: 1e-12 leaves a headroom of 3e3
LIMIT_NORM = 1e-12


def check_projection(config):
    from .braid import sample_alpha
    from .transport import alpha_limit_check, projection_identity_check

    rng = _rng_for(config, "projection")
    samples = 1 if config.profile == "quick" else 3
    identity_runs = []

    def identity(n, alpha, tol):
        rep = projection_identity_check(n, alpha, tol=tol)
        identity_runs.append(
            {
                "n": n,
                "defect": rep.defect,
                "monodromy_gap": rep.monodromy_gap,
                "limits_defect": rep.limits_defect,
                "quadrature_err": rep.quadrature_err,
                "unconverged": rep.unconverged,
            }
        )
        return rep

    worst = 0.0
    alphas = []
    for _ in range(samples):
        alpha = sample_alpha(4, rng)
        alphas.append(_alpha_inputs(alpha))
        rep = identity(4, alpha, 1e-10)
        worst = max(worst, rep.defect / IDENTITY_NORM)
    alpha_small = sample_alpha(4, rng, scale=Fraction(2, 5))
    rep = identity(4, alpha_small, 1e-10)
    worst = max(worst, rep.defect / IDENTITY_NORM, rep.defect_symbolic / 1e-4)
    if config.profile != "quick":
        rep5 = identity(5, sample_alpha(5, rng), 1e-8)
        worst = max(worst, rep5.defect / IDENTITY_NORM)
    alpha = sample_alpha(4, rng)
    case2 = [(2, 3)] if config.profile == "quick" else [(2, 3), (2, 1)]
    case1 = [(2, 2)] if config.profile == "quick" else [(2, 2), (1, 2)]
    limit_gaps, limit_bounds, limit_unconverged = {}, {}, {}
    for entries in case2 + case1:
        lim = alpha_limit_check(4, entries, alpha, tol=1e-9)
        limit_gaps[str(entries)] = lim.deviation
        limit_bounds[str(entries)] = lim.bound + lim.target_err
        limit_unconverged[str(entries)] = lim.unconverged
        worst = max(worst, lim.deviation / LIMIT_NORM)
    inputs = {
        "alphas": alphas,
        "limit_gaps": limit_gaps,
        "limit_bounds": limit_bounds,
        "limit_unconverged": limit_unconverged,
        "symbolic_defect": rep.defect_symbolic,
        "identity_runs": identity_runs,
    }
    return worst, inputs


class Check(Frozen):
    def __init__(self, check_id, statement, tolerance, runner):
        d = self.__dict__
        d["check_id"], d["statement"], d["tolerance"], d["runner"] = check_id, statement, tolerance, runner


REGISTRY = [
    Check("beta-identity", "three-vertex integral equals the Gamma-function ratio", 1e-8, check_beta_identity),
    Check("taylor-mzv", "Taylor coefficients of the scaled integral match the zeta-series expansion", 1e-12, check_taylor_mzv),
    Check("mzv-engine", "zeta evaluation, Euler identity, and double-shuffle consistency (normalized)", 1.0, check_mzv_engine),
    Check("pure-braid", "induction preserves the pure-braid relations exactly at every level", 0.0, check_pure_braid),
    Check("spectrum", "subset-sum eigenvalue formula matches dense spectra, full and reduced", 1e-9, check_spectrum),
    Check("eta-gamma", "recursion coordinates equal the wedge-chain log-form sums exactly", 0.0, check_eta_gamma),
    Check("residue", "residue expansion identity and wedge-chain = pair-product expansion, exactly", 0.0, check_residue),
    Check("sum-relation", "component sums of the wedge-chain integrals vanish", 1e-7, check_sum_relation),
    Check("associator", "series element matched at 1/2: degree-1 vanishing, weight-2 value, group-likeness, symbolic match (normalized)", 1.0, check_associator),
    Check("projection", "projected boundary identity and vertex-exponent limits (normalized)", 1.0, check_projection),
]

CHECKS = {c.check_id: c for c in REGISTRY}


def _validate_config(config):
    if config.profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {config.profile!r}")
    if not isinstance(config.seed, int):
        raise ValueError("seed must be an integer")
    tol = config.tol_override
    # a NaN tolerance would make every report fail and write NaN into the payload
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance {tol} must be finite and non-negative")


def run_check(check_id, config=None):
    config = config or RunConfig()
    _validate_config(config)
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

def _parse_int_list(text, what):
    """The integers of a comma-separated list, () for an empty one; a token
    that is not an integer raises ValueError naming it and the list."""
    text = text.replace(" ", "")
    out = []
    for token in text.split(",") if text else ():
        try:
            out.append(int(token))
        except ValueError:
            raise ValueError(f"invalid literal {token!r} in {what} {text!r}: expected comma-separated integers") from None
    return tuple(out)


def _cmd_mzv_eval(args):
    # every value is within MIN_ABS_ERR, so --abs-err only refuses a finer request
    from .mzv import MIN_ABS_ERR, MZVIndex, mzv_eval

    try:
        parts = _parse_int_list(args.index, "the index")
        idx = MZVIndex(parts)
        if not (math.isfinite(args.abs_err) and args.abs_err >= MIN_ABS_ERR):
            raise ValueError(f"abs_err {args.abs_err} must be finite and at least the supported floor {MIN_ABS_ERR}")
        value = mzv_eval(idx)
    except ValueError as exc:
        return _input_error(exc)
    print(f"zeta{parts} = {value:.15f}")
    return 0


def _cmd_graph_wedge(args):
    from .graphs import IndexTuple, format_graph, wedge_chain

    try:
        entries = _parse_int_list(args.indices, "--indices")
        gs = wedge_chain(IndexTuple(args.r, args.n, entries))
    except ValueError as exc:
        return _input_error(exc)
    for g, c in sorted(gs.terms.items(), key=lambda t: repr(t[0])):
        print(f"{c:+d}  {format_graph(g)}")
    return 0


def _cmd_tower_build(args):
    from .braid import build_tower, pure_braid_defects, tower_dim

    try:
        tower = build_tower(args.n, args.r)
    except ValueError as exc:
        return _input_error(exc)
    status = 0
    for k in sorted(tower, reverse=True):
        fam = tower[k]
        defects = pure_braid_defects(fam)
        ok = "relations ok" if not defects else f"RELATION DEFECTS: {defects[:3]}"
        if defects:
            status = 1
        print(f"level {k}: dimension {fam.dim} (expected {tower_dim(k, args.n)}), {ok}")
    return status


def _input_error(message):
    """Report bad command-line input on one stderr line; the exit status is 2."""
    print(f"selzeta: error: {message}", file=sys.stderr)
    return 2


def _parse_alpha_specs(specs):
    """{(i, j): value} from "(i,j)=value" strings; ValueError on a key that is
    not exactly "(i,j)", as parse_graph's edge tokens, or a pair given twice."""
    from .graphs import _EDGE_TOKEN, pair

    alphas = {}
    for spec in specs:
        key, _, val = spec.partition("=")
        m = _EDGE_TOKEN.fullmatch(key.strip())
        if m is None:
            raise ValueError(f"malformed --alpha key {key!r}: expected (i,j)=value")
        u = pair(int(m[1]), int(m[2]))
        if u in alphas:
            raise ValueError(f"--alpha gives the pair ({u[0]},{u[1]}) twice")
        alphas[u] = float(val)
    return alphas


def _cmd_selberg_integrate(args):
    from .graphs import parse_graph
    from .selberg import ExponentAssignment, QuadratureError, integrate_graph

    if args.alpha and args.alpha_uniform is not None:
        return _input_error("--alpha and --alpha-uniform exclude each other: give the exponents one way")
    try:
        with open(args.graph_file) as fh:
            line = fh.read().strip()
        g = parse_graph(line)
        if len(g.roots) > 3:
            return _input_error(f"{len(g.roots)} roots: root values are x_1 = 0, x_2 = 1 and --x3, so at most 3")
        if args.alpha:
            alphas = _parse_alpha_specs(args.alpha)
            for i, j in alphas:
                if not (1 <= i and j <= g.n):
                    return _input_error(f"--alpha pair ({i},{j}) is not a vertex pair of the graph on [1,{g.n}]")
            alpha = ExponentAssignment(alphas)
        else:
            alpha = ExponentAssignment.uniform(g.n, 0.1 if args.alpha_uniform is None else args.alpha_uniform)
        root_values = None
        if len(g.roots) == 3:
            root_values = {1: 0.0, 2: 1.0, 3: 0.5 if args.x3 is None else args.x3}
        elif args.x3 is not None:
            return _input_error(f"--x3 needs a graph with 3 roots, not {len(g.roots)}")
        res = integrate_graph(g, alpha, tol=args.tol, root_values=root_values)
    except (OSError, ValueError, QuadratureError) as exc:
        return _input_error(exc)
    print(
        json.dumps(
            {
                "graph": line,
                "alphas": _alpha_inputs(alpha.alphas),
                "value": res.value,
                "err": res.err_estimate,
                "evals": res.evaluations,
                "converged": res.converged,
                "nonfinite": res.nonfinite,
            },
            sort_keys=True,
        )
    )
    return 0


def _cmd_assoc_expand(args):
    # neither construction needs numpy
    from .ncalg import MAX_WEIGHT

    if not 0 <= args.degree <= MAX_WEIGHT:
        return _input_error(f"--degree {args.degree} outside 0..{MAX_WEIGHT}")
    if args.method == "symbolic":
        from .mzv import associator_symbolic

        hr = associator_symbolic(args.degree)
        for w in sorted(hr.coeff, key=lambda w: (len(w), w)):
            print(f"{w or '1':<{args.degree}}  {hr.coeff[w]}")
        return 0
    from .ncalg import associator_series

    series = associator_series(args.degree)
    for w in sorted(series.coeff, key=lambda w: (len(w), w)):
        print(f"{w or '1':<{args.degree}}  {series[w]:+.12f}")
    return 0


def _print_report(rep):
    flag = "pass" if rep.passed else "FAIL"
    print(f"{flag}  {rep.check_id:<14} defect {rep.defect:.3e}  tolerance {rep.tolerance:.3e}  [{rep.runtime:.2f}s]")


def _cmd_verify(args):
    seed = args.seed
    config = RunConfig(seed=seed, profile=args.profile, tol_override=args.tol)
    try:
        _validate_config(config)
    except ValueError as exc:
        return _input_error(exc)
    ids = [c.check_id for c in REGISTRY] if args.check_id == "all" else [args.check_id]
    reports = [run_check(cid, config) for cid in ids]
    for rep in reports:
        _print_report(rep)
    if args.json:
        payload = payload_for(reports, seed, args.profile)
        validate_payload(payload)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(r.passed for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    # a malformed option or argument prints _input_error's one line, no usage
    def error(self, message):
        sys.exit(_input_error(message))


def build_parser():
    parser = _Parser(prog="selzeta", description=__doc__)
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
    ps.add_argument("--alpha-uniform", type=float, default=None, help="one exponent for every pair (0.1 when neither option is given)")
    ps.add_argument("--tol", type=float, default=None)
    ps.add_argument("--x3", type=float, default=None, help="value of root 3 for a graph with 3 roots (default 0.5)")
    ps.set_defaults(func=_cmd_selberg_integrate)

    p = sub.add_parser("assoc", help="the canonical two-letter series element")
    psub = p.add_subparsers(dest="sub", required=True)
    pa = psub.add_parser("expand", help="print coefficients up to a degree")
    pa.add_argument("--degree", type=int, default=4)
    pa.add_argument("--method", choices=["series", "symbolic"], default="series")
    pa.set_defaults(func=_cmd_assoc_expand)

    p = sub.add_parser("verify", help="run registered verification checks")
    p.add_argument("check_id", choices=["all", *CHECKS], help="a check id or 'all'")
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
