"""The four benchmark workloads: inputs from a seed, a timed section, a check.

Each workload has three steps, run by worker.py in a fresh interpreter:

- setup(seed): imports and input generation (counted in setup_s);
- run(state, ops, traced): the timed section, each operation timed by `ops`;
  returns the raw outputs;
- check(state, raw): compares the outputs with their oracles (untimed).

`check` returns a dict with the number of operations attempted and failed,
the gate errors that make a run incorrect, and accuracy figures.  A failed
operation is one that raised, a registry check that did not pass, a nonzero
exact defect, a CLI call with a wrong exit code or output, or an oracle gap
outside the accuracy envelope below.  An oracle gap above the program's own
error report (plus the rounding floor) is counted as a miss in
`selberg.est_misses`, where the known misses of the integrator stay visible.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import oracle
import spans

# a relative gap at or below 1e-14 (about 45 units of 1e-16) is rounding, not error
ROUNDING_FLOOR = 1e-14
TAYLOR_FLOOR = 1e-12
# accuracy envelopes: a gap beyond them means a wrong value, a failed operation.
# Relative, per free dimension; absolute for Taylor coefficients of size ~1.
ENVELOPE = {1: 1e-8, 2: 1e-6, 3: 1e-1}
TAYLOR_ENVELOPE = 1e-2


# the per-layer accuracy figures, by the workload whose check computes them.
# They are not measured on the other workloads, where they read 0.
ACCURACY_OWNER = {
    "cli.max_norm_defect": "verify-full",
    "selberg.oracle_rel_err_max": "selberg-oracle",
    "selberg.taylor_gap_max": "selberg-oracle",
    "selberg.est_misses": "selberg-oracle",
}


class Ops:
    """Times each operation of the timed section, and the CPU's speed around it.

    `reference` (calib.reference_s) runs right before and right after each
    operation; `ref_s` holds the mean of the two, and `ref_total_s` the time
    all reference runs took.  Every pass of a run repeats the same operations
    in the same order, so run.py can match repeats of an operation.
    """

    def __init__(self, reference, mean):
        self.reference = reference
        self.mean = mean
        self.op_s = []
        self.ref_s = []
        self.ref_total_s = 0.0

    def timed(self, fn, *args, **kwargs):
        t = time.perf_counter()
        before = self.reference()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            after = self.reference()
            self.op_s.append(end - start)
            self.ref_s.append(self.mean(before, after))
            self.ref_total_s += time.perf_counter() - t - (end - start)


class _Raised(str):
    """The repr of an exception that an operation raised."""


def _attempt(ops, fn, *args, **kwargs):
    """ops.timed, with an exception returned as _Raised instead of raised."""
    try:
        return ops.timed(fn, *args, **kwargs)
    except Exception as exc:
        return _Raised(repr(exc))


# ---------------------------------------------------------------------------
# verify-full: the whole registry at the acceptance profile
# ---------------------------------------------------------------------------

class VerifyFull:
    def setup(self, seed):
        import selzeta  # noqa: F401  (the package import users pay)
        from selzeta import cli

        return {"cli": cli, "seed": seed, "ids": [c.check_id for c in cli.REGISTRY]}

    def run(self, state, ops, traced):
        # one run_suite call per check, in registry order: the suite's own loop,
        # with each check timed as one operation
        cli, seed = state["cli"], state["seed"]
        return [r for cid in state["ids"] for r in ops.timed(cli.run_suite, profile="full", seed=seed, check_ids=[cid])]

    def check(self, state, reports):
        cli = state["cli"]
        gate_errors = []
        payload = cli.payload_for(reports, state["seed"], "full")
        try:
            cli.validate_payload(payload)
        except ValueError as exc:
            gate_errors.append(f"payload invalid: {exc}")
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        norm = [r.defect / r.tolerance for r in reports if r.tolerance > 0]
        failed = [r.check_id for r in reports if not r.passed]
        if failed:
            gate_errors.append(f"checks failed: {failed}")
        return {
            "attempted": len(reports),
            "failed": len(failed),
            "gate_errors": gate_errors,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "accuracy": {"cli.max_norm_defect": max(norm, default=0.0)},
        }


# ---------------------------------------------------------------------------
# selberg-oracle: star graphs against Selberg's closed form
# ---------------------------------------------------------------------------

def _draw(rng):
    return tuple(round(rng.uniform(0.2, 0.9), 3) for _ in range(3))


class SelbergOracle:
    # (free vertices, requested tolerance, draws).  None is the integrator's
    # default; the others are what the package's own callers pass at that l:
    # 1e-12 at l = 1 (cli.check_beta_identity), 1e-10 at l = 2 (cli.check_projection).
    CASES = ((1, None, 4), (1, 1e-12, 4), (2, None, 4), (2, 1e-10, 4), (3, None, 8))
    TAYLOR_DRAWS = 2
    TAYLOR_WEIGHT = 4

    def setup(self, seed):
        import selzeta  # noqa: F401
        from selzeta.graphs import GraphSum, OrderedRootedGraph
        from selzeta import selberg

        rng = random.Random(f"selberg-oracle:{seed}")

        def star(l):
            n = l + 2
            return OrderedRootedGraph(n, frozenset({1, 2}), tuple((1, v) for v in range(3, n + 1)))

        def exponents(l, a, b, c):
            n = l + 2
            alphas = {(1, 2): 0.5}
            for v in range(3, n + 1):
                alphas[(1, v)] = a
                alphas[(2, v)] = b
                for w in range(v + 1, n + 1):
                    alphas[(v, w)] = c
            return selberg.ExponentAssignment(alphas)

        cases = []
        for l, tol, draws in self.CASES:
            for _ in range(draws):
                abc = _draw(rng)
                cases.append((l, tol, abc, star(l), exponents(l, *abc), float(oracle.star_value(l, *abc))))
        taylor = []
        for _ in range(self.TAYLOR_DRAWS):
            abc = _draw(rng)
            g = star(2)
            gs = GraphSum(g.n, g.roots, {g: 1})
            exact = [float(v) for v in oracle.star_taylor(2, *abc, self.TAYLOR_WEIGHT)]
            taylor.append((abc, gs, exponents(2, *abc), exact))
        return {"selberg": selberg, "cases": cases, "taylor_cases": taylor}

    def run(self, state, ops, traced):
        # functions are looked up at call time, so traced passes see the spans
        selberg = state["selberg"]
        integrals = [_attempt(ops, selberg.integrate_graph, g, alpha, tol=tol) for _, tol, _, g, alpha, _ in state["cases"]]
        taylor = [_attempt(ops, selberg.taylor_coefficients, gs, alpha, self.TAYLOR_WEIGHT) for _, gs, alpha, _ in state["taylor_cases"]]
        return integrals, taylor

    def check(self, state, raw):
        integrals, taylor = raw
        failed, misses, gate_errors = 0, [], []
        rel_max = 0.0
        for (l, tol, abc, _, _, exact), res in zip(state["cases"], integrals):
            if isinstance(res, _Raised):
                failed += 1
                gate_errors.append(f"l={l} {abc}: {res}")
                continue
            gap = abs(res.value - exact)
            rel = gap / abs(exact)
            rel_max = max(rel_max, rel)
            if not rel <= ENVELOPE[l]:
                failed += 1
                gate_errors.append(f"l={l} {abc} tol={tol}: relative gap {rel:.2e} above {ENVELOPE[l]:.0e}")
            if gap > res.err_estimate + ROUNDING_FLOOR * abs(exact):
                misses.append(f"l={l} {abc} tol={tol}: gap {gap:.2e} > reported err {res.err_estimate:.2e}")
        taylor_gap = 0.0
        for (abc, _, _, exact), res in zip(state["taylor_cases"], taylor):
            if isinstance(res, _Raised):
                failed += 1
                gate_errors.append(f"taylor {abc}: {res}")
                continue
            coeffs, residual = res
            gaps = [abs(c - e) for c, e in zip(coeffs, exact)]
            taylor_gap = max(taylor_gap, max(gaps))
            if not max(gaps) <= TAYLOR_ENVELOPE:
                failed += 1
                gate_errors.append(f"taylor {abc}: coefficient gap {max(gaps):.2e} above {TAYLOR_ENVELOPE:.0e}")
            worst = max(range(len(gaps)), key=gaps.__getitem__)
            if gaps[worst] > residual + TAYLOR_FLOOR:
                misses.append(f"taylor l=2 {abc}: weight-{worst} gap {gaps[worst]:.2e} > residual {residual:.2e}")
        for line in misses:
            print(f"miss: {line}", file=sys.stderr)
        return {
            "attempted": len(integrals) + len(taylor),
            "failed": failed,
            "gate_errors": gate_errors,
            "accuracy": {
                "selberg.oracle_rel_err_max": rel_max,
                "selberg.taylor_gap_max": taylor_gap,
                "selberg.est_misses": len(misses),
            },
        }


# ---------------------------------------------------------------------------
# exact-braid: exact identities of the tower and the graph calculus
# ---------------------------------------------------------------------------

class ExactBraid:
    ETA_TUPLES = 12
    TOWER = (6, 2)
    N_MAX = 6

    def setup(self, seed):
        import selzeta  # noqa: F401
        from selzeta import braid, graphs

        rng = random.Random(f"exact-braid:{seed}")
        eta = [(I, rng.getrandbits(64)) for I in rng.sample(list(graphs.index_tuples(5, 2)), self.ETA_TUPLES)]
        points = {}
        for n in range(3, self.N_MAX + 1):
            vals = rng.sample(range(1, 1000), n - 1)
            points[n] = {v: Fraction(vals[v - 1], 1009) for v in range(1, n)}
        return {"braid": braid, "graphs": graphs, "eta": eta, "points": points}

    def run(self, state, ops, traced):
        braid, graphs = state["braid"], state["graphs"]
        eta = [ops.timed(braid.eta_gamma_check, I, random.Random(sub_seed)) for I, sub_seed in state["eta"]]

        def tower_defects():
            return [braid.pure_braid_defects(fam) for fam in braid.build_tower(*self.TOWER).values()]

        def residue_gaps(n):
            x = state["points"][n]
            seen, gaps = set(), []
            for I in graphs.index_tuples(n, 2):
                for g in graphs.wedge_chain(I).terms:
                    if g in seen:
                        continue
                    seen.add(g)
                    for k in sorted({o for (p, q) in g.edges for o in (p, q) if g.n in (p, q) and o != g.n}):
                        direct = graphs.omega_residue_direct(g, k, x)
                        expanded = sum(c * graphs.omega_coefficient(h, x) for h, c in graphs.residue_expand(g, k).terms.items())
                        gaps.append(direct - expanded)
            return gaps

        def product_mismatches(n):
            return [graphs.principal_product(I) != graphs.wedge_chain(I) for r in (2, 3) for I in graphs.index_tuples(n, r)]

        tower = ops.timed(tower_defects)
        residue, product = [], []
        for n in range(3, self.N_MAX + 1):
            residue += ops.timed(residue_gaps, n)
            product += ops.timed(product_mismatches, n)
        return {"eta": eta, "tower": tower, "residue": residue, "product": product}

    def check(self, state, raw):
        groups = {
            "eta-gamma": sum(1 for d in raw["eta"] if d != 0),
            "pure-braid": sum(len(found) for found in raw["tower"]),
            "residue": sum(1 for gap in raw["residue"] if gap != 0),
            "principal-product": sum(1 for bad in raw["product"] if bad),
        }
        return {
            "attempted": sum(len(raw[k]) for k in ("eta", "tower", "residue", "product")),
            "failed": sum(groups.values()),
            "gate_errors": [f"{name}: {count} nonzero exact defects" for name, count in groups.items() if count],
            "accuracy": {},
        }


# ---------------------------------------------------------------------------
# cli-cold: one `python -m selzeta` call at a time, each a fresh interpreter
# ---------------------------------------------------------------------------

class CliCold:
    def setup(self, seed):
        import mpmath

        import selzeta  # noqa: F401  (fail before the loop if the package is broken)

        rng = random.Random(f"cli-cold:{seed}")
        k = rng.randint(2, 6)
        entries = (rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 4))
        commands = [
            (["mzv", "eval", str(k)], ("zeta", k, float(mpmath.zeta(k)))),
            (["graph", "wedge", "--n", "5", "--r", "2", "--indices", ",".join(map(str, entries))], ("wedge", oracle.wedge_chain_terms(2, entries))),
            (["tower", "build", "--n", "5", "--r", "3"], ("tower", oracle.tower_dims(5, 3))),
            (["assoc", "expand", "--degree", "4"], ("assoc", float(mpmath.zeta(2)))),
            (["verify", "beta-identity"], ("verify", "beta-identity")),
        ]
        rng.shuffle(commands)
        return {"commands": commands}

    def run(self, state, ops, traced):
        if traced:
            prefix = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")]
        else:
            prefix = [sys.executable, "-m", "selzeta"]
        return [ops.timed(subprocess.run, prefix + args, capture_output=True, text=True, check=False) for args, _ in state["commands"]]

    def check(self, state, calls):
        gate_errors = []
        for (args, expect), proc in zip(state["commands"], calls):
            problem = f"exit code {proc.returncode}" if proc.returncode else _cli_output_problem(expect, proc.stdout)
            if problem:
                gate_errors.append(f"selzeta {' '.join(args)}: {problem}; stderr: {proc.stderr.strip()[-300:]}")
        return {
            "attempted": len(calls),
            "failed": len(gate_errors),
            "gate_errors": gate_errors,
            "accuracy": {},
            "traces": [_trace_from_stderr(proc.stderr) for proc in calls],
        }


def _trace_from_stderr(stderr):
    for line in reversed(stderr.splitlines()):
        if line.startswith(spans.TRACE_MARK):
            return json.loads(line[len(spans.TRACE_MARK):])
    return None


def _cli_output_problem(expect, stdout):
    """None when the command's stdout matches its oracle, else a description."""
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    kind = expect[0]
    if kind == "zeta":
        _, k, value = expect
        m = re.fullmatch(rf"zeta\({k},\) = ([-+0-9.e]+)", lines[0])
        if not m or abs(float(m.group(1)) - value) > 2e-12:
            return f"first line {lines[0]!r}, expected zeta({k},) = {value:.15f}"
    elif kind == "wedge":
        got = {}
        for line in lines:
            m = re.fullmatch(r"([+-]\d+)\s+(\d+) (\d+) \|((?: \(\d+,\d+\))*)", line)
            if not m:
                return f"unparsed line {line!r}"
            edges = tuple(tuple(int(v) for v in e.split(",")) for e in re.findall(r"\((\d+,\d+)\)", m.group(4)))
            got[edges] = got.get(edges, 0) + int(m.group(1))
        if got != expect[1]:
            return f"{len(got)} wedge terms differ from the {len(expect[1])} expected"
    elif kind == "tower":
        want = [f"level {k}: dimension {d} (expected {d}), relations ok" for k, d in expect[1].items()]
        if lines != want:
            return f"lines {lines!r}, expected {want!r}"
    elif kind == "assoc":
        coeff = {}
        for line in lines:
            word, _, value = line.partition(" ")
            coeff[word] = float(value)
        z2 = expect[1]
        if len(coeff) != 31 or coeff.get("1") != 1.0 or abs(coeff.get("X", 1.0)) > 1e-12:
            return f"first line {lines[0]!r} or word count {len(coeff)} unexpected"
        if abs(abs(coeff.get("XY", 0.0)) - z2) > 1e-11 or abs(coeff.get("XY", 0.0) + coeff.get("YX", 1.0)) > 1e-11:
            return f"weight-2 coefficients {coeff.get('XY')}, {coeff.get('YX')} do not match zeta(2) = {z2}"
    elif kind == "verify":
        if not lines[0].startswith(f"pass  {expect[1]} "):
            return f"first line {lines[0]!r}"
    return None


WORKLOADS = {
    "verify-full": VerifyFull(),
    "selberg-oracle": SelbergOracle(),
    "exact-braid": ExactBraid(),
    "cli-cold": CliCold(),
}
