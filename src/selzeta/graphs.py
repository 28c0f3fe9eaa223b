"""Ordered rooted graphs, the wedge calculus, log-form coefficients, residues.

Vertices are 1..n, roots are an initial segment [r], and an edge list carries
its order positionally (the order signs the log form and orders the matrix
products built on top of these graphs).  Edges are stored as (min, max) pairs;
d log(x_p - x_q) does not depend on the writing order of the pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction


def pair(i, j):
    if i == j:
        raise ValueError("pair needs distinct vertices")
    return (i, j) if i < j else (j, i)


@functools.lru_cache(maxsize=None)
def all_pairs(n):
    """The vertex pairs (i, j), i < j, of [n], in lexicographic order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


@dataclass(frozen=True)
class OrderedRootedGraph:
    n: int
    roots: frozenset
    edges: tuple

    def __post_init__(self):
        n = self.n
        object.__setattr__(self, "roots", frozenset(self.roots))
        norm = []
        for p, q in self.edges:
            if p == q:
                raise ValueError("edge endpoints must be distinct")
            if not (1 <= p <= n and 1 <= q <= n):
                raise ValueError(f"edge ({p},{q}) leaves the vertex set [1,{n}]")
            e = (p, q) if p < q else (q, p)
            if e in norm:
                raise ValueError(f"duplicate edge {e}")
            norm.append(e)
        object.__setattr__(self, "edges", tuple(norm))
        if not all(1 <= v <= n for v in self.roots):
            raise ValueError("roots outside vertex set")
        object.__setattr__(self, "_hash", hash((n, self.roots, self.edges)))

    # the hash is taken once, from the same fields as in _graph, so a
    # validated graph and an unvalidated one with equal fields hash alike
    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.edges == other.edges and self.n == other.n and self.roots == other.roots)

    @property
    def free_vertices(self):
        return _free_columns(self.n, self.roots)

    def __repr__(self):
        es = "".join(f"({p},{q})" for p, q in self.edges)
        return f"Graph[n={self.n},R={sorted(self.roots)}]{es or '*'}"


@functools.lru_cache(maxsize=None)
def _free_columns(n, roots):
    """The non-root vertices of [n] in descending order: the columns of a
    log form on (n, roots)."""
    return tuple(sorted(set(range(1, n + 1)) - roots, reverse=True))


def _graph(n, roots, edges):
    """An OrderedRootedGraph from a frozenset of roots and a tuple of edges
    that are already (min, max) pairs in [1, n] and distinct, unvalidated."""
    g = object.__new__(OrderedRootedGraph)
    d = g.__dict__
    d["n"], d["roots"], d["edges"], d["_hash"] = n, roots, edges, hash((n, roots, edges))
    return g


def empty_graph(roots):
    roots = frozenset(roots)
    return OrderedRootedGraph(max(roots), roots, ())


@dataclass
class GraphSum:
    """Integer formal sum of ordered rooted graphs sharing (n, roots)."""

    n: int
    roots: frozenset
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        self.roots = frozenset(self.roots)
        cleaned = {}
        for g, c in self.terms.items():
            if (g.n, g.roots) != (self.n, self.roots):
                raise ValueError("graph sum terms must share vertex and root sets")
            if c:
                cleaned[g] = c
        self.terms = cleaned

    @staticmethod
    def single(g):
        return GraphSum(g.n, g.roots, {g: 1})

    def __add__(self, other):
        if (self.n, self.roots) != (other.n, other.roots):
            raise ValueError("graph sums live on different vertex/root sets")
        terms = dict(self.terms)
        for g, c in other.terms.items():
            terms[g] = terms.get(g, 0) + c
        return GraphSum(self.n, self.roots, terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return GraphSum(self.n, self.roots, {g: s * c for g, c in self.terms.items()})

    def support(self):
        return sorted(self.terms, key=repr)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.roots, self.terms) == (other.n, other.roots, other.terms)

    def __repr__(self):
        if not self.terms:
            return "GraphSum<0>"
        return " + ".join(f"{c}*{g!r}" if c != 1 else repr(g) for g, c in sorted(self.terms.items(), key=lambda t: repr(t[0])))


def _sum(n, roots, terms):
    """A GraphSum of terms that are already graphs on (n, roots), with roots a
    frozenset, unvalidated; the nonzero terms are copied into a new dict."""
    gs = object.__new__(GraphSum)
    gs.n, gs.roots, gs.terms = n, roots, {g: c for g, c in terms.items() if c}
    return gs


@dataclass(frozen=True)
class IndexTuple:
    """Attachment indices (i_{r+1}, ..., i_n) with 1 <= i_p <= p-1."""

    r: int
    n: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(i) for i in self.entries))
        if not (2 <= self.r <= self.n):
            raise ValueError("need 2 <= r <= n")
        if len(self.entries) != self.n - self.r:
            raise ValueError("entry count must be n - r")
        for p, i in zip(range(self.r + 1, self.n + 1), self.entries):
            if not (1 <= i <= p - 1):
                raise ValueError(f"entry i_{p}={i} outside [1,{p - 1}]")

    def entry(self, p):
        return self.entries[p - self.r - 1]


def index_tuples(n, r):
    ranges = [range(1, p) for p in range(r + 1, n + 1)]
    for combo in itertools.product(*ranges):
        yield IndexTuple(r, n, combo)


def wedge(g, new_vertex, i):
    """Attach new_vertex to i: sum over subsets A of edges at i, with the
    endpoints i in A rewired to new_vertex and (new_vertex, i) appended last.
    Every edge produced is (min, max), so the new graphs skip validation."""
    if new_vertex != g.n + 1:
        raise ValueError("new vertex must be n + 1")
    if not (1 <= i <= g.n):
        raise ValueError(f"attachment vertex {i} outside [1,{g.n}]")
    roots = g.roots
    last = ((i, new_vertex),)
    terms = {}
    for graph, c in g.terms.items() if isinstance(g, GraphSum) else [(g, 1)]:
        edges = graph.edges
        at_i = [pos for pos, (p, q) in enumerate(edges) if p == i or q == i]
        for size in range(len(at_i) + 1):
            for subset in itertools.combinations(at_i, size):
                rewired = list(edges)
                for pos in subset:
                    p, q = rewired[pos]
                    rewired[pos] = (q if p == i else p, new_vertex)
                h = _graph(new_vertex, roots, tuple(rewired) + last)
                terms[h] = terms.get(h, 0) + c
    return _sum(new_vertex, roots, terms)


@functools.lru_cache(maxsize=1024)
def _chain(r, entries):
    """wedge_chain's fold of the entries on the roots [r]: one wedge on the
    fold of their prefix, so each prefix is folded once while it is kept."""
    if not entries:
        return GraphSum.single(empty_graph(range(1, r + 1)))
    return wedge(_chain(r, entries[:-1]), r + len(entries), entries[-1])


def wedge_chain(I):
    """Left fold of the wedge over the index tuple, starting from the bare roots.

    Each prefix of the entries is folded once per process (while _chain
    keeps it); the caller gets a new GraphSum with its own terms dict, so
    changing that leaves the kept fold as it was.
    """
    gs = _chain(I.r, I.entries)
    return _sum(gs.n, gs.roots, gs.terms)


# ---------------------------------------------------------------------------
# the principal graph (edges (p, i_p), p > r) and the product form of the wedge chain
# ---------------------------------------------------------------------------

def principal_product(I):
    """Expansion of the wedge chain as the distributive product of the pair
    sums S_i = sum of (p, q) whose path min-edge in the principal graph is the
    i-th edge.

    A parent's label is below its child's, so climbing the larger endpoint
    of a pair walks both halves of its path up to the meeting vertex; the
    labels climbed only fall, so the last one is the path's minimal edge.  A
    pair whose climb reaches two distinct roots has no path.
    """
    pair_sums = {i: [] for i in range(I.r + 1, I.n + 1)}
    for pq in all_pairs(I.n):
        p, q = pq
        while p != q:
            if p < q:
                p, q = q, p
            if p <= I.r:
                break
            low, p = p, I.entry(p)
        else:
            pair_sums[low].append(pq)
    roots = frozenset(range(1, I.r + 1))
    terms = {}
    # the pair sums partition the pairs p < q, so no product repeats an edge
    for combo in itertools.product(*pair_sums.values()):
        g = _graph(I.n, roots, combo)
        terms[g] = terms.get(g, 0) + 1
    return _sum(I.n, roots, terms)


# ---------------------------------------------------------------------------
# logarithmic top forms
# ---------------------------------------------------------------------------

def _det(m):
    """Cofactor determinant of the ±1 incidence rows of a log form.

    Sizes up to 3 are closed forms; above that, structural zeros are
    skipped, so the expansion only descends into the minors of the nonzero
    entries.
    """
    size = len(m)
    if size == 0:
        return 1
    if size == 1:
        return m[0][0]
    if size == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if size == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0
    for j, a in enumerate(m[0]):
        if a == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * a * _det(minor)
    return total


@functools.lru_cache(maxsize=4096)
def _incidence_sign(edges, cols):
    """det of the ±1 incidence rows (+1 at p, -1 at q), largest edge first."""
    col_of = {v: j for j, v in enumerate(cols)}
    rows = []
    for p, q in reversed(edges):
        row = [0] * len(col_of)
        if p in col_of:
            row[col_of[p]] = 1
        if q in col_of:
            row[col_of[q]] = -1
        rows.append(row)
    return _det(rows)


def log_form_det(edges, cols, diff, scale=None):
    """Coefficient of the wedge of the edge forms d log(x_p - x_q) on the columns.

    One row per edge, largest edge first; one column per vertex in cols, in
    that order.  Row (p, q) is 1/(x_p - x_q) times the incidence row (+1 at
    p, -1 at q), so the coefficient is det(incidence) / prod(x_p - x_q), with
    the determinant taken on the ±1 entries alone; it is 0 exactly when the
    graph is not a rooted forest.  diff(p, q) returns x_p - x_q as a float or
    a node array, and the inverse gaps are multiplied in one by one.  With
    scale = D, diff is instead the mapping v -> D x_v of integer coordinates,
    read directly, and the result is the one exact Fraction
    det * D^m / prod D (x_p - x_q).  This is the one builder behind
    omega_coefficient, omega_residue_direct and the sign of the Selberg
    quadrature integrand's log form.
    """
    sign = _incidence_sign(tuple(edges), tuple(cols))
    if sign == 0:
        return 0
    if scale is not None:
        den = 1
        for p, q in edges:
            den *= diff[p] - diff[q]
        return Fraction(sign * scale ** len(edges), den)
    out = sign
    for p, q in reversed(edges):
        out = out * (1 / diff(p, q))
    return out


def _distinct(coords):
    """The coincidence guard of omega_coefficient, omega_residue_direct and
    residue_identity: raise ValueError naming two vertices that share a
    coordinate (a gap would be 0)."""
    seen = {}
    for v, xv in coords.items():
        if xv in seen:
            raise ValueError(f"coincident coordinates x_{seen[xv]} = x_{v}")
        seen[xv] = v
    return coords


def common_denominator(values):
    """(D, [D v for v in values]) for exact values (ints or Fractions), D the
    lcm of their denominators: the one format of an exact value set, integers
    over one common denominator.  Reads numerator and denominator, which ints
    have too, and forms no Fraction; (1, []) for no values."""
    values = list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


# the last exact point seen, the empty point to start with: its key and
# value objects, its integer coordinates over the common denominator scale,
# and the log-form values built there, keyed on the exact (edges, cols)
# tuple, edge order and orientation included.  A new point replaces the
# whole slot, values and all.  The one store of the package that is not a
# functools cache, since a point is an unhashable dict, kept by identity
_last_point = ((), (), 1, {}, {})


def omega_coefficient(g, x):
    """Coefficient c with omega_Gamma = c * dx_n ^ dx_{n-1} ^ ... over non-roots.

    omega_Gamma wedges the edge forms d log(x_p - x_q) largest edge first; the
    coefficient is the determinant with one row per edge (in that order) and
    one column per non-root vertex in descending label order.  Zero exactly
    when the graph is not a rooted forest.
    """
    cols = _free_columns(g.n, g.roots)
    if len(g.edges) != len(cols):
        raise ValueError("need #edges == #vertices - #roots")
    vals = x if isinstance(x, dict) else {v: x[v - 1] for v in range(1, g.n + 1)}
    return _log_form_at(g.edges, cols, vals)


def _log_form_at(edges, cols, x):
    """log_form_det of the edges on the columns at the point x, a dict of
    exact or float coordinates, after the coincidence guard.

    Exact (int or Fraction) values are read as integers over their common
    denominator, which is the scale; float values as they are.  An exact
    point is converted once, and each log form on it is built once: while
    the same key and value objects come back, the last point's coordinates
    and values are reused.  Ints and Fractions are immutable, so a point
    changed in place, or a new one, is converted again with no value kept.
    """
    global _last_point
    keys, values, scale, coords, forms = _last_point
    if not (
        len(keys) == len(x)
        and all(map(operator.is_, keys, x))
        and all(map(operator.is_, values, x.values()))
    ):
        if not {type(v) for v in x.values()} <= {int, Fraction}:
            coords = _distinct(x)
            return log_form_det(edges, cols, lambda p, q: coords[p] - coords[q])
        scale, nums = common_denominator(x.values())
        coords, forms = _distinct(dict(zip(x, nums))), {}
        _last_point = (tuple(x), tuple(x.values()), scale, coords, forms)
    key = (edges, cols)
    value = forms.get(key)
    if value is None:
        value = forms[key] = log_form_det(edges, cols, coords, scale)
    return value


def is_tree(g):
    """True iff g is a forest in which every component contains exactly one
    root: exactly when the ±1 incidence determinant of its log form is not 0."""
    cols = _free_columns(g.n, g.roots)
    if len(g.edges) != len(cols):
        raise ValueError("need #edges == #vertices - #roots")
    return _incidence_sign(g.edges, cols) != 0


# ---------------------------------------------------------------------------
# residue of the log form at x_n -> x_k
# ---------------------------------------------------------------------------

def _top_position(g, k):
    """Position of the edge (k, n) of g, n its top vertex; ValueError if it
    has none.  Edges are (min, max) pairs, so n only ever comes second."""
    try:
        return g.edges.index((k, g.n))
    except ValueError:
        raise ValueError(f"({g.n},{k}) is not an edge") from None


def residue_expand(g, k):
    """Signed graph sum on [n-1] expanding the residue of omega_Gamma at x_n = x_k.

    Top-vertex edges at positions >= that of (n,k) are rewired through the
    subset rule; the one at the largest position is dropped, remaining
    top-vertex edges have n replaced by k.  For a single such edge the residue
    is bare deletion with sign +1; for two, it is the one rewired graph with
    sign -1.
    """
    n = g.n
    edges = g.edges
    pos_nk = _top_position(g, k)
    if n in g.roots:
        raise ValueError("roots outside vertex set")
    # positions t_1 > ... > t_s of the top edges at or above (n, k)
    t_list = [pos for pos in range(len(edges) - 1, pos_nk - 1, -1) if edges[pos][1] == n]
    s = len(t_list)
    # the top edges below (n, k) have n replaced by k; the rest are set per term
    base = [((p, k) if p < k else (k, p)) if q == n else (p, q) for p, q in edges]
    roots = g.roots
    if s <= 2:
        # one term: with (n, k) the only top edge, its bare deletion with +1;
        # with one top edge (n, k_1) above it, (n, k) becomes (k_1, k) and
        # (n, k_1) is dropped, with -1
        if s == 2:
            a = edges[t_list[0]][0]
            base[pos_nk] = (a, k) if a < k else (k, a)
        gs = object.__new__(GraphSum)
        gs.n, gs.roots, gs.terms = n - 1, roots, {_residue_term(n, roots, base, t_list[0]): 1 if s == 1 else -1}
        return gs
    # their attachments k_1 ... k_s = k
    k_list = [edges[pos][0] for pos in t_list]
    terms = []
    for size in range(s - 1):
        for subset in itertools.combinations(range(1, s - 1), size):
            chosen = set(subset)                # indices j > 0 (0-based) with k_{j+1} in p; j = 0 always is
            out = base[:]
            m = 0
            for i in range(1, s):               # paper's i = 2..s, 0-based i
                # anchor to the nearest chosen predecessor m: the one whose top
                # edge has the smallest position among those still above t_i
                a, b = k_list[i], k_list[m]
                out[t_list[i]] = (a, b) if a < b else (b, a)
                if i in chosen:
                    m = i
            terms.append((out, 1 if size % 2 else -1))
    expansion = {}
    for out, c in terms:
        h = _residue_term(n, roots, out, t_list[0])
        expansion[h] = expansion.get(h, 0) + c
    return _sum(n - 1, roots, expansion)


def _residue_term(n, roots, out, top):
    """The graph on [n-1] of the rewired edge list out, less the edge at
    position top; ValueError on a repeated edge."""
    del out[top]
    # every edge is a (min, max) pair in [1, n-1]; only a repeat can occur
    if len(set(out)) < len(out):
        seen = set()
        for e in out:
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
    return _graph(n - 1, roots, tuple(out))


def _residue_surgery(g, k):
    """(sign, merged edges, columns) of the residue of omega_Gamma at x_n = x_k.

    Write omega_Gamma = d log(x_n - x_k) ^ eta.  Moving that factor to the
    front costs the sign (-1)^(rows above it); substituting x_n = x_k in eta
    merges the dx_n column into dx_k (dropped if k is a root) and the vertex
    n into k, so the residue is sign times the log form of the merged edges
    on the free columns of [n-1].
    """
    n = g.n
    edges = g.edges
    pos = _top_position(g, k)
    merged = [(p, k) if q == n else (p, q) for p, q in edges]
    del merged[pos]
    return (1 if (len(edges) - pos) % 2 else -1), tuple(merged), _free_columns(n - 1, g.roots)


def omega_residue_direct(g, k, x):
    """Residue coefficient at x_n = x_k computed by determinant surgery.

    The surgery is _residue_surgery's; the merged log form is evaluated by
    log_form_det, exactly (one Fraction, read from the point's table after
    its first evaluation) at int or Fraction coordinates and in floats
    otherwise.  Independent of residue_expand.
    """
    sign, merged, cols = _residue_surgery(g, k)
    value = _log_form_at(merged, cols, x)
    return value if sign > 0 else -value


def residue_identity(g, k, expansion):
    """The residue identity at x_n = x_k in integer arithmetic.

    Returns gap(coords, scale), the exact value of omega_residue_direct(g, k, x)
    minus the sum of c * omega_coefficient(h, x) over the expansion's terms
    (residue_expand(g, k), or any graph sum on [n-1] with the same roots), at
    x_v = coords[v] / scale for integer coords on 1..n-1 and integer scale.
    The structure is fixed once: the direct side's surgery and every term's
    sign, each an _incidence_sign on ±1 rows.  Over the one common denominator
    prod_{p<q} (x_p - x_q), a log form with edges E and sign s has the
    numerator s times the product of the oriented gaps not in E, so a point
    costs one integer sum of products; a zero sum is the identity holding,
    and a nonzero one is returned as the exact Fraction.
    """
    sign, merged, cols = _residue_surgery(g, k)
    if (expansion.n, expansion.roots) != (g.n - 1, g.roots) or any(len(h.edges) != len(cols) for h in expansion.terms):
        raise ValueError("expansion terms must be top-degree graphs on [n-1] with the roots of g")
    pairs = all_pairs(g.n - 1)
    numerators = []
    for c, edges in [(sign, merged)] + [(-c, h.edges) for h, c in expansion.terms.items()]:
        c *= _incidence_sign(edges, cols)
        if c:
            # a forest's edges are distinct pairs; x_p - x_q with p > q is
            # minus the gap of the pair (q, p)
            for p, q in edges:
                if p > q:
                    c = -c
            canon = {(min(e), max(e)) for e in edges}
            numerators.append((c, [j for j, pq in enumerate(pairs) if pq not in canon]))
    m = len(cols)

    def gap(coords, scale):
        _distinct(coords)
        gaps = [coords[p] - coords[q] for p, q in pairs]
        total = 0
        for c, rest in numerators:
            for j in rest:
                c *= gaps[j]
            total += c
        if total == 0:
            return 0
        return Fraction(total * scale**m, math.prod(gaps))

    return gap


# ---------------------------------------------------------------------------
# serialization:  "n r | (p,q) (p,q) ..."
# ---------------------------------------------------------------------------

def format_graph(g):
    r = len(g.roots)
    if g.roots != frozenset(range(1, r + 1)):
        raise ValueError("line format requires roots to be an initial segment")
    edges = " ".join(f"({p},{q})" for p, q in g.edges)
    return f"{g.n} {r} |{(' ' + edges) if edges else ''}"


_EDGE_TOKEN = re.compile(r"\((\d+),(\d+)\)")


def parse_graph(line):
    """The graph of a line "n r | (p,q) (p,q) ...", roots [r]; ValueError on
    any other shape, naming the part that does not fit."""
    if line.count("|") != 1:
        raise ValueError(f"graph line {line!r} needs exactly one '|' between 'n r' and the edges")
    head, _, tail = line.partition("|")
    fields = head.split()
    if len(fields) != 2 or not all(f.isdecimal() for f in fields):
        raise ValueError(f"graph line head {head.strip()!r} is not two integers 'n r'")
    n, r = int(fields[0]), int(fields[1])
    edges = []
    for tok in tail.split():
        m = _EDGE_TOKEN.fullmatch(tok)
        if m is None:
            raise ValueError(f"malformed edge token {tok!r}: expected (p,q)")
        edges.append((int(m[1]), int(m[2])))
    return OrderedRootedGraph(n, frozenset(range(1, r + 1)), tuple(edges))
