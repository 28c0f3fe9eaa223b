"""Ordered rooted graphs, the wedge calculus, log-form coefficients, residues.

Vertices are 1..n, roots are an initial segment [r], and an edge list carries
its order positionally (the order signs the log form and orders the matrix
products built on top of these graphs).  Edges are stored as (min, max) pairs;
d log(x_p - x_q) does not depend on the writing order of the pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class OrderedRootedGraph:
    n: int
    roots: frozenset
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "roots", frozenset(self.roots))
        norm = []
        seen = set()
        for p, q in self.edges:
            if p == q:
                raise ValueError("edge endpoints must be distinct")
            if not (1 <= p <= self.n and 1 <= q <= self.n):
                raise ValueError(f"edge ({p},{q}) leaves the vertex set [1,{self.n}]")
            e = (min(p, q), max(p, q))
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(norm))
        if not self.roots <= set(range(1, self.n + 1)):
            raise ValueError("roots outside vertex set")

    @property
    def free_vertices(self):
        return sorted(set(range(1, self.n + 1)) - self.roots, reverse=True)

    def __repr__(self):
        es = "".join(f"({p},{q})" for p, q in self.edges)
        return f"Graph[n={self.n},R={sorted(self.roots)}]{es or '*'}"


def empty_graph(roots, n=None):
    roots = frozenset(roots)
    return OrderedRootedGraph(n if n is not None else max(roots), roots, ())


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
    def single(g, c=1):
        return GraphSum(g.n, g.roots, {g: c})

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
        return (self.n, self.roots, self.terms) == (other.n, other.roots, other.terms)

    def __repr__(self):
        if not self.terms:
            return "GraphSum<0>"
        return " + ".join(f"{c}*{g!r}" if c != 1 else repr(g) for g, c in sorted(self.terms.items(), key=lambda t: repr(t[0])))


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
    endpoints i in A rewired to new_vertex and (new_vertex, i) appended last."""
    if isinstance(g, GraphSum):
        out = GraphSum(new_vertex, g.roots, {})
        for graph, c in g.terms.items():
            out = out + wedge(graph, new_vertex, i).scale(c)
        return out
    if new_vertex != g.n + 1:
        raise ValueError("new vertex must be n + 1")
    if not (1 <= i <= g.n):
        raise ValueError(f"attachment vertex {i} outside [1,{g.n}]")
    at_i = [pos for pos, e in enumerate(g.edges) if i in e]
    terms = {}
    for size in range(len(at_i) + 1):
        for subset in itertools.combinations(at_i, size):
            edges = list(g.edges)
            for pos in subset:
                p, q = edges[pos]
                other = q if p == i else p
                edges[pos] = (other, new_vertex)
            edges.append((i, new_vertex))
            h = OrderedRootedGraph(new_vertex, g.roots, tuple(edges))
            terms[h] = terms.get(h, 0) + 1
    return GraphSum(new_vertex, g.roots, terms)


def wedge_chain(I):
    """Left fold of the wedge over the index tuple, starting from the bare roots."""
    gs = GraphSum.single(empty_graph(range(1, I.r + 1), I.r))
    for p in range(I.r + 1, I.n + 1):
        gs = wedge(gs, p, I.entry(p))
    return gs


# ---------------------------------------------------------------------------
# principal graph and the product form of the wedge chain
# ---------------------------------------------------------------------------

def principal_graph(I):
    edges = tuple((p, I.entry(p)) for p in range(I.r + 1, I.n + 1))
    return OrderedRootedGraph(I.n, frozenset(range(1, I.r + 1)), edges)


def _ancestors(I, v):
    """Chain (vertex, incoming edge label) from v down to its root."""
    chain = [(v, None)]
    while v > I.r:
        parent = I.entry(v)
        chain.append((parent, v))
        v = parent
    return chain


def principal_path(I, p, q):
    """Edge labels along the unique path p -> q in the principal graph, or None."""
    if p == q:
        return []
    up_p = _ancestors(I, p)
    up_q = _ancestors(I, q)
    verts_p = [v for v, _ in up_p]
    pos_q = {v: j for j, (v, _) in enumerate(up_q)}
    meet = next((j for j, v in enumerate(verts_p) if v in pos_q), None)
    if meet is None:
        return None
    labels = [lab for _, lab in up_p[1 : meet + 1]]
    labels += [lab for _, lab in reversed(up_q[1 : pos_q[verts_p[meet]] + 1])]
    return labels


def principal_min_edge(I, p, q):
    """Minimal edge on the path p -> q in the principal graph, as (label, attachment)."""
    labels = principal_path(I, p, q)
    if not labels:
        return None
    lab = min(labels)
    return (lab, I.entry(lab))


def principal_product(I):
    """Expansion of the wedge chain as the distributive product of the pair
    sums S_i = sum of (p, q) whose path min-edge in the principal graph is the
    i-th edge."""
    pair_sums = {i: [] for i in range(I.r + 1, I.n + 1)}
    for p in range(1, I.n + 1):
        for q in range(p + 1, I.n + 1):
            me = principal_min_edge(I, p, q)
            if me is not None:
                pair_sums[me[0]].append((p, q))
    roots = frozenset(range(1, I.r + 1))
    terms = {}
    for combo in itertools.product(*(pair_sums[i] for i in range(I.r + 1, I.n + 1))):
        g = OrderedRootedGraph(I.n, roots, tuple(combo))
        terms[g] = terms.get(g, 0) + 1
    return GraphSum(I.n, roots, terms)


# ---------------------------------------------------------------------------
# logarithmic top forms
# ---------------------------------------------------------------------------

def _det(m):
    """Cofactor determinant of the log-form matrices, shared by every caller.

    Structural zeros are the int 0 and are skipped; any other entry is never
    truth-tested, so the same expansion is exact on Fractions and runs
    elementwise on float or complex node arrays.
    """
    size = len(m)
    if size == 0:
        return 1
    if size == 1:
        return m[0][0]
    if size == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j, a in enumerate(m[0]):
        if type(a) is int and a == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * a * _det(minor)
    return total


def log_form_det(edges, cols, diff):
    """Coefficient of the wedge of the edge forms d log(x_p - x_q) on the columns.

    One row per edge, largest edge first; one column per vertex in cols, in
    that order.  diff(p, q) returns x_p - x_q as an exact, float or array
    value, so the caller chooses how the differences are formed.  This is the
    one builder behind omega_coefficient, omega_residue_direct and the
    Selberg quadrature integrand.
    """
    col_of = {v: j for j, v in enumerate(cols)}
    rows = []
    for p, q in reversed(edges):
        inv = 1 / diff(p, q)
        row = [0] * len(col_of)
        if p in col_of:
            row[col_of[p]] = inv
        if q in col_of:
            row[col_of[q]] = -inv
        rows.append(row)
    return _det(rows)


def _exact_diff(vals):
    """x_p - x_q with int differences promoted to Fraction, so 1/diff stays exact."""

    def diff(p, q):
        d = vals[p] - vals[q]
        return Fraction(d) if isinstance(d, int) else d

    return diff


def omega_coefficient(g, x):
    """Coefficient c with omega_Gamma = c * dx_n ^ dx_{n-1} ^ ... over non-roots.

    omega_Gamma wedges the edge forms d log(x_p - x_q) largest edge first; the
    coefficient is the determinant with one row per edge (in that order) and
    one column per non-root vertex in descending label order.  Zero exactly
    when the graph is not a rooted forest.
    """
    cols = g.free_vertices
    if len(g.edges) != len(cols):
        raise ValueError("need #edges == #vertices - #roots")
    vals = x if isinstance(x, dict) else {v: x[v - 1] for v in range(1, g.n + 1)}
    seen = {}
    for v in range(1, g.n + 1):
        xv = vals[v]
        if xv in seen:
            raise ValueError(f"coincident coordinates x_{seen[xv]} = x_{v}")
        seen[xv] = v
    return log_form_det(g.edges, cols, _exact_diff(vals))


def is_tree(g):
    """True iff g is a forest in which every component contains exactly one root."""
    cols = g.free_vertices
    if len(g.edges) != len(cols):
        raise ValueError("need #edges == #vertices - #roots")
    parent = {v: v for v in range(1, g.n + 1)}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for p, q in g.edges:
        rp, rq = find(p), find(q)
        if rp == rq:
            return False
        parent[rp] = rq
    root_count = {}
    for v in range(1, g.n + 1):
        root_count.setdefault(find(v), 0)
    for v in g.roots:
        root_count[find(v)] += 1
    return all(c == 1 for c in root_count.values())


# ---------------------------------------------------------------------------
# residue of the log form at x_n -> x_k
# ---------------------------------------------------------------------------

def _top_edges(g):
    """Positions/attachments of the edges containing the top vertex n."""
    n = g.n
    return [(pos, p if q == n else q) for pos, (p, q) in enumerate(g.edges) if n in (p, q)]


def residue_expand(g, k):
    """Signed graph sum on [n-1] expanding the residue of omega_Gamma at x_n = x_k.

    Top-vertex edges at positions >= that of (n,k) are rewired through the
    subset rule; the one at the largest position is dropped, remaining
    top-vertex edges have n replaced by k.  For a single such edge the residue
    is bare deletion with sign +1.
    """
    n = g.n
    top = _top_edges(g)
    pos_nk = next((pos for pos, other in top if other == k), None)
    if pos_nk is None:
        raise ValueError(f"({n},{k}) is not an edge")
    plus = sorted([(pos, other) for pos, other in top if pos >= pos_nk], reverse=True)
    k_list = [other for _, other in plus]       # k_1 ... k_s = k, positions decreasing
    t_list = [pos for pos, _ in plus]
    s = len(k_list)
    minus_positions = {pos for pos, other in top if pos < pos_nk}
    roots = g.roots
    out = {}

    def build(assign, drop_pos):
        edges = []
        for pos, e in enumerate(g.edges):
            if pos == drop_pos:
                continue
            if pos in assign:
                edges.append(assign[pos])
            elif pos in minus_positions or (n in e and pos != drop_pos):
                p, q = e
                other = q if p == n else p
                edges.append((other, k))
            else:
                edges.append(e)
        return OrderedRootedGraph(n - 1, roots, tuple(edges))

    if s == 1:
        h = build({}, pos_nk)
        return GraphSum(n - 1, roots, {h: 1})

    middle = k_list[1:-1]
    for size in range(len(middle) + 1):
        for subset in itertools.combinations(range(1, s - 1), size):
            chosen = set(subset) | {0}          # indices j (0-based) with k_{j+1} in p + {k_1}
            assign = {}
            for i in range(1, s):               # paper's i = 2..s, 0-based i
                # anchor to the nearest chosen predecessor: the one whose top
                # edge has the smallest position among those still above t_i
                m = max(j for j in chosen if j < i)
                a, b = k_list[i], k_list[m]
                assign[t_list[i]] = (min(a, b), max(a, b))
            h = build(assign, t_list[0])
            out[h] = out.get(h, 0) + (-1) ** (size + 1)
    return GraphSum(n - 1, g.roots, out)


def omega_residue_direct(g, k, x):
    """Residue coefficient at x_n = x_k computed by determinant surgery.

    Write omega_Gamma = d log(x_n - x_k) ^ eta.  Moving that factor to the
    front costs (-1)^(rows above it); substituting x_n = x_k in eta merges the
    dx_n column into dx_k (dropped if k is a root) and the value x_n into x_k.
    Exact over Fractions; independent of residue_expand.
    """
    n = g.n
    top = _top_edges(g)
    pos_nk = next((pos for pos, other in top if other == k), None)
    if pos_nk is None:
        raise ValueError(f"({n},{k}) is not an edge")
    merged = [tuple(k if v == n else v for v in e) for e in g.edges if e != (k, n)]
    cols = sorted(set(range(1, n)) - g.roots, reverse=True)
    j0 = (len(g.edges) - 1) - pos_nk
    return (-1) ** j0 * log_form_det(merged, cols, _exact_diff(x))


# ---------------------------------------------------------------------------
# serialization:  "n r | (p,q) (p,q) ..."
# ---------------------------------------------------------------------------

def format_graph(g):
    r = len(g.roots)
    if g.roots != frozenset(range(1, r + 1)):
        raise ValueError("line format requires roots to be an initial segment")
    edges = " ".join(f"({p},{q})" for p, q in g.edges)
    return f"{g.n} {r} |{(' ' + edges) if edges else ''}"


def parse_graph(line):
    head, _, tail = line.partition("|")
    n_str, r_str = head.split()
    n, r = int(n_str), int(r_str)
    edges = []
    for tok in tail.split():
        p, q = tok.strip("()").split(",")
        edges.append((int(p), int(q)))
    return OrderedRootedGraph(n, frozenset(range(1, r + 1)), tuple(edges))
