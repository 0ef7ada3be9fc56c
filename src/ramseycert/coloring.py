"""Edge colorings of complete graphs from random blowups, and their verification.

A blowup coloring with parameters (t, m, N, seed) overlays m random
blowups of the t-dimensional orthogonality graph onto K_N: m maps
f_1..f_m send each of the N vertices to a uniform graph vertex, a pair
{x, y} takes the least index i whose map separates it across an edge,
and pairs no map separates get one of two leftover colors by a fair
deterministic coin; a uniform coloring is the same leaf with no maps and
a uniform coin over its ell colors. Colors are never stored per pair:
the m tables plus the counter-based stream reconstruct every color on
demand, so a spec and a seed fully determine the coloring.

Verification accounts for every color class: a blowup class i cannot
hold a t-clique, because f_i maps one injectively onto a t-clique of the
orthogonality graph, whose clique number is at most t-1 (Lemma 1), so
every class is searched exhaustively or discharged by Lemma 1. A
product's factors are its leaves, blowup or uniform colorings; its
classes are decided on them, and its witness is mapped from a leaf's
clique, so no product class is ever built. The
outcome, together with the exact expectation arithmetic, goes into a
Certificate. A verified certificate at N vertices is a concrete proof
that r(t; m+2) >= N+1, and recheck_certificate trusts one only if a
single replay of its verification reproduces it field by field.

A blowup coloring is its m tables and builds no orthogonality graph:
color_of takes the parity of the two codes' AND, class i's rows are
table i's fiber rows (orthogonality_rows) minus the earlier classes'
rows, and only the pairs no map separates draw a coin.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from operator import and_, xor
from typing import Optional

from . import rng
from .bounds import ExpectationReport, expected_mono_count
from .gf2 import check_construction_t, even_weight_code
from .graphs import (
    EXHAUSTIVE_LIMIT,
    BitGraph,
    Record,
    has_clique_of_order,
    orthogonality_rows,
)

KIND_BLOWUP = "blowup"
KIND_ERDOS = "erdos"
KIND_PRODUCT = "product"

TAG_BLOWUP = "blowup"
TAG_PAIR = "pair"

MAX_VERTICES = 1 << 32  # vertex-index capacity of one coloring
EDGE_DUMP_LIMIT = 2_000

CERTIFICATE_FORMAT = "ramseycert.certificate/1"


class ColoringSpec(Record):
    """Parameters that, with the seed, fully determine an edge coloring.

    A product's factors are its leaves: two or more blowup or uniform
    specs, in order, all decided at the product's t.
    """

    kind: str
    t: int
    m: int
    ell: int
    N: int
    seed: int
    factors: Optional[tuple["ColoringSpec", ...]] = None

    def __post_init__(self) -> None:
        if not 1 <= self.N <= MAX_VERTICES:
            raise ValueError(f"N must be in 1..{MAX_VERTICES}, got {self.N}")
        if self.ell > EXHAUSTIVE_LIMIT:  # verification's work and memory grow with the colors
            raise ValueError(f"ell must be at most {EXHAUSTIVE_LIMIT}, got {self.ell}")
        rng.check_seed(self.seed)
        if self.kind == KIND_BLOWUP:
            check_construction_t(self.t)
            if self.m < 0:
                raise ValueError(f"m must be non-negative, got {self.m}")
            if self.ell != self.m + 2:
                raise ValueError(f"blowup colorings use ell = m + 2, got ell={self.ell}, m={self.m}")
            if self.factors is not None:
                raise ValueError("blowup colorings have no factors")
        elif self.kind == KIND_ERDOS:
            if self.ell < 2:
                raise ValueError(f"need at least two colors, got ell={self.ell}")
            if self.m != 0:
                raise ValueError("uniform random colorings have m = 0")
            if self.t < 0:
                raise ValueError(f"clique target must be non-negative, got {self.t}")
            if self.factors is not None:
                raise ValueError("uniform random colorings have no factors")
        elif self.kind == KIND_PRODUCT:
            if self.factors is None or len(self.factors) < 2:
                raise ValueError("product colorings need at least two factors")
            for i, factor in enumerate(self.factors):
                if factor.kind == KIND_PRODUCT:
                    raise ValueError(f"factors[{i}] is a product: list its factors in its place")
                if factor.kind == KIND_ERDOS and factor.t != self.t:
                    raise ValueError(
                        f"factors[{i}] is a uniform coloring decided at the product's "
                        f"t={self.t}, got t={factor.t}"
                    )
            if self.m != 0:
                raise ValueError(f"product colorings have m = 0, got m={self.m}")
            if self.seed != 0:
                raise ValueError(
                    f"product colorings carry their randomness in the factors, so seed = 0, "
                    f"got seed={self.seed}"
                )
            N, ell = math.prod(f.N for f in self.factors), sum(f.ell for f in self.factors)
            if self.N != N:
                raise ValueError(f"product N must be {N}, got {self.N}")
            if self.ell != ell:
                raise ValueError(f"product ell must be {ell}, got {self.ell}")
        else:
            raise ValueError(f"unknown coloring kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self._fields if name != "factors"}
        if self.factors is not None:
            d["factors"] = [f.to_json_dict() for f in self.factors]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ColoringSpec":
        """Parse a spec document; ValueError names the first malformed field."""
        return _spec_from_json(d, "spec")


_TYPE_NAMES = {
    int: "an integer",
    bool: "a boolean",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _typed(value, kind: type, name: str, nullable: bool = False):
    """`value` if it has type `kind` (or is None when nullable), else ValueError naming it."""
    if value is None and nullable:
        return None
    # JSON true/false parse to bool, which Python counts as int
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{name} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def _field(d: dict, key: str, kind: type, where: str, nullable: bool = False):
    """d[key], checked by _typed; ValueError if the key is missing."""
    if key not in d:
        raise ValueError(f"{where}.{key} is missing")
    return _typed(d[key], kind, f"{where}.{key}", nullable)


def _only_fields(d: dict, names, where: str) -> None:
    """ValueError naming the first key of `d` (sorted) that is not one of `names`."""
    unknown = sorted(d.keys() - set(names))
    if unknown:
        raise ValueError(f"{where}.{unknown[0]} is an unknown field")


def _spec_from_json(d, where: str, is_factor: bool = False) -> ColoringSpec:
    _typed(d, dict, where)
    _only_fields(d, ColoringSpec._fields, where)
    factors = _typed(d.get("factors"), list, f"{where}.factors", nullable=True)
    kind = _field(d, "kind", str, where)
    if is_factor and kind == KIND_PRODUCT:
        raise ValueError(f"{where} is a product: list its factors in its place")
    if factors is not None and not is_factor:  # a factor's own factors are refused unread
        factors = tuple(
            _spec_from_json(f, f"{where}.factors[{i}]", True) for i, f in enumerate(factors)
        )
    t, m, ell, N, seed = (_field(d, key, int, where) for key in ("t", "m", "ell", "N", "seed"))
    try:
        return ColoringSpec(kind, t, m, ell, N, seed, factors)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


class EdgeColoring:
    """A total symmetric coloring of the pairs of [N], values in 1..ell.

    Built from its spec alone: a leaf draws its m tables, a product
    builds one coloring per distinct leaf, which its equal leaves share,
    and keeps (leaf, mult, offset) per leaf: v // mult % N is vertex v's
    coordinate in the leaf, mult the product of the later leaves' N, and
    offset, the earlier leaves' ell summed, shifts its palette. Immutable
    after construction; color_of is a pure function of (spec, pair).
    """

    def __init__(self, spec: ColoringSpec):
        self.spec = spec
        if spec.kind == KIND_PRODUCT:
            built = {leaf: EdgeColoring(leaf) for leaf in dict.fromkeys(spec.factors)}
            self._leaves, mult, offset = [], spec.N, 0
            for leaf in spec.factors:
                mult //= leaf.N
                self._leaves.append((built[leaf], mult, offset))
                offset += leaf.ell
        else:  # a blowup or uniform leaf; a uniform one has m = 0
            self._tables = [
                rng.uniform_row(1 << (spec.t - 1), spec.seed, TAG_BLOWUP, i, spec.N)
                for i in range(1, spec.m + 1)
            ]

    @property
    def N(self) -> int:
        return self.spec.N

    @property
    def ell(self) -> int:
        return self.spec.ell

    def color_of(self, x: int, y: int) -> int:
        if x == y:
            raise ValueError(f"self-pairs have no color (x = y = {x})")
        spec = self.spec
        N = spec.N
        if not (0 <= x < N and 0 <= y < N):
            raise ValueError(f"pair ({x},{y}) out of range for N={N}")
        if spec.kind != KIND_PRODUCT:  # the first map that separates the pair, else a coin
            for i, table in enumerate(self._tables, start=1):
                if (even_weight_code(table[x]) & even_weight_code(table[y])).bit_count() & 1:
                    return i
            lo, hi = (x, y) if x < y else (y, x)
            return spec.m + 1 + rng.uniform_below(spec.ell - spec.m, spec.seed, TAG_PAIR, lo, hi)
        # product: the first leaf whose coordinates differ colors the pair (see product_coloring)
        for leaf, mult, offset in self._leaves:
            a, b = x // mult % leaf.N, y // mult % leaf.N
            if a != b:
                return offset + leaf.color_of(a, b)


def generate_blowup_coloring(t: int, m: int, N: int, seed: int) -> EdgeColoring:
    """The (m+2)-coloring of K_N drawn from m blowup maps.

    EdgeColoring draws each table entry f_i(x) as an independent uniform
    index into the 2^(t-1) graph vertices, keyed by (seed, "blowup", i,
    x); each map is drawn as one packed row (rng.uniform_row), with the
    same bits as one uniform_below per entry. Leftover pair colors are
    deferred to color_of. Same spec and seed always regenerate the
    identical coloring.
    """
    return EdgeColoring(ColoringSpec(kind=KIND_BLOWUP, t=t, m=m, ell=m + 2, N=N, seed=seed))


def generate_erdos_coloring(N: int, ell: int, seed: int, t: int = 0) -> EdgeColoring:
    """Uniform independent color per pair, the classic random coloring.

    t is carried only as the default clique target for later verification.
    """
    return EdgeColoring(ColoringSpec(kind=KIND_ERDOS, t=t, m=0, ell=ell, N=N, seed=seed))


def product_coloring(*colorings: EdgeColoring) -> EdgeColoring:
    """Palette-disjoint product of the colorings, in order; its spec's m and seed are 0.

    A product argument stands for its leaves, so product_coloring(
    product_coloring(a, b), c) is product_coloring(a, b, c). Vertex v has
    the coordinate v // mult % N in each leaf (EdgeColoring), and a pair
    takes the color, shifted by the leaf's palette offset, that the first
    leaf whose coordinates differ gives them. So the product class of a
    leaf's class c is one copy per block of N*mult consecutive vertices
    (equal earlier coordinates) of the leaf's class with each vertex a
    replaced by the mult pairwise non-adjacent twins a*mult ..
    a*mult+mult-1. A K_t in it lies in one block with distinct leaf
    coordinates, so it projects onto a K_t of the leaf's class, and a
    leaf clique w lifts to [a * mult for a in w]: the product holds a
    monochromatic K_t iff a leaf does. That lift is the clique a search
    of the product class reports. color_class_graphs numbers a class
    from the top, and has_clique_of_order peels the highest graph vertex
    first, so its greedy coloring meets the product's vertices in
    ascending order and puts every twin of a in a's class; the search
    visits twins consecutively, the lowest product vertex first, each
    with the leaf's subtree at a, and block 0 before the other blocks,
    whose subtrees repeat block 0's failures; the first success at every
    depth is at the lowest twin in block 0. The leaf's class is numbered
    from the top too, so a leaf clique is read back through N-1-v before
    the lift. So verification decides the leaves (_decide_leaves) and
    builds no product class. Every leaf is decided at the product's t, so
    a uniform leaf, whose t moves no color, is written with that t.
    """
    t = max(c.spec.t for c in colorings)
    factors = tuple(
        ColoringSpec(**{**vars(leaf), "t": t}) if leaf.kind == KIND_ERDOS else leaf
        for c in colorings
        for leaf in c.spec.factors or (c.spec,)
    )
    spec = ColoringSpec(
        kind=KIND_PRODUCT,
        t=t,
        m=0,
        ell=sum(leaf.ell for leaf in factors),
        N=math.prod(leaf.N for leaf in factors),
        seed=0,
        factors=factors,
    )
    return EdgeColoring(spec)


def regenerate(spec: ColoringSpec, seed: Optional[int] = None) -> EdgeColoring:
    """Rebuild a coloring from its spec, optionally with another seed.

    The seed goes into a new spec, so ColoringSpec refuses one a product
    cannot take: its randomness lives in the factors and its seed is 0.
    """
    if seed is not None:
        spec = ColoringSpec(**{**vars(spec), "seed": seed})
    return EdgeColoring(spec)


class MonoWitness(Record):
    """A monochromatic clique: every pair inside `vertices` has `color`."""

    color: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.color < 1:
            raise ValueError(f"colors are 1-based, got {self.color}")
        if list(self.vertices) != sorted(set(self.vertices)):
            raise ValueError("witness vertices must be strictly ascending")

    def holds_in(self, coloring: EdgeColoring) -> bool:
        verts = self.vertices
        return all(
            coloring.color_of(verts[a], verts[b]) == self.color
            for a in range(len(verts))
            for b in range(a + 1, len(verts))
        )

    def to_json_dict(self) -> dict:
        return {"color": self.color, "vertices": list(self.vertices)}


def _witness_from_json(d, where: str) -> MonoWitness:
    _typed(d, dict, where)
    _only_fields(d, MonoWitness._fields, where)
    vertices = _field(d, "vertices", list, where)
    color = _field(d, "color", int, where)
    vertices = tuple(_typed(v, int, f"{where}.vertices[{i}]") for i, v in enumerate(vertices))
    try:
        return MonoWitness(color, vertices)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _check_materializable(N: int) -> None:
    if N > EXHAUSTIVE_LIMIT:
        raise ValueError(f"N={N} exceeds the exhaustive materialization guard {EXHAUSTIVE_LIMIT}")


def color_class_graphs(coloring: EdgeColoring, colors: list[int]) -> dict[int, BitGraph]:
    """Materialize the requested color classes as graphs, numbered from the top.

    Graph vertex i is the coloring's vertex N-1-i, so has_clique_of_order,
    which peels the highest vertex first, visits a class in the ascending
    order of its coloring vertices, and a clique w of the graph is the
    clique [N-1-v for v in w] of the coloring. Blowup classes are built
    by pullback (_blowup_rows), in this numbering from the start.
    Products and uniform random colorings go through one color_of pass
    over all pairs; verification never builds a product class, since it
    decides each one on its leaves.
    """
    N, ell = coloring.N, coloring.ell
    _check_materializable(N)
    for c in colors:
        if not 1 <= c <= ell:
            raise ValueError(f"no color {c} in a coloring with colors 1..{ell}")
    if coloring.spec.kind == KIND_BLOWUP:
        rows = _blowup_rows(coloring, set(colors))
    else:
        rows = {c: [0] * N for c in colors}
        color_of = coloring.color_of
        for x in range(N):
            for y in range(x + 1, N):
                row = rows.get(color_of(N - 1 - x, N - 1 - y))
                if row is not None:
                    row[x] |= 1 << y
                    row[y] |= 1 << x
    return {c: BitGraph(rows[c]) for c in colors}


def _blowup_rows(coloring: EdgeColoring, wanted: set[int]) -> dict[int, list[int]]:
    """Rows of the wanted blowup classes and of both leftover classes, by pullback.

    Rows are numbered from the top (see color_class_graphs), so the
    pullback runs on the reversed tables. The pairs f_i separates across
    an edge are orthogonality_rows of its table, one row per fiber (t
    coordinate masks), mapped through the table; class i keeps those no
    earlier map took, and the free rows keep a fiber row's complement
    (it holds the diagonal, as codes have even weight). Every leftover
    coin of the build comes from one rng.coin_rows pass over the rows of
    the pairs no map took, which returns the heads, so coins are drawn
    only for pairs no map separates.
    """
    spec = coloring.spec
    N, m = spec.N, spec.m
    rows: dict[int, list[int]] = {}
    full = (1 << N) - 1
    free = [full ^ (1 << x) for x in range(N)]  # pairs at x no map has colored so far
    for i, table in enumerate(coloring._tables, start=1):
        table = table[::-1]
        pulled = orthogonality_rows(table, spec.t)
        if i in wanted:
            rows[i] = list(map(and_, free, map(pulled.__getitem__, table)))
        apart = {v: full ^ r for v, r in pulled.items()}
        free = list(map(and_, free, map(apart.__getitem__, table)))
    heads = rng.coin_rows(spec.seed, TAG_PAIR, free)  # pairs whose coin gives color m+2
    rows[m + 1] = list(map(xor, free, heads))
    rows[m + 2] = heads
    return rows


def _lemma1_colors(spec: ColoringSpec, t: int) -> set[int]:
    """Colors in which Lemma 1 rules out a t-clique of a blowup or uniform `spec`.

    Blowup class i of a t0-spec pulls back the order-t0 graph through
    f_i, which is injective on any clique of the class; Lemma 1 caps that
    graph's clique number at t0-1, so no class i <= m holds K_t once
    t >= t0.
    """
    return set(range(1, spec.m + 1)) if t >= spec.t else set()


class _Decision(Record):
    """How one leaf was decided, in the product's colors and vertices."""

    colors: tuple[int, ...]  # the classes asked: those Lemma 1 leaves open
    witness: Optional[MonoWitness]
    nodes: int
    reused: bool  # answered by an equal leaf already found free of t-cliques


def _decide_leaves(coloring: EdgeColoring, t: int) -> list[_Decision]:
    """Decide the leaves in order, up to the first that holds a t-clique.

    Each leaf builds the classes _lemma1_colors(leaf, t) leaves open and
    searches them ascending; its first clique w, in class c, numbered
    from the top, is the leaf's clique a = N-1-v for v in w, and the
    product's witness in class offset + c is [a * mult for those a] (see
    product_coloring). So the witness is the one a search of every
    product class, ascending, would report. A leaf on fewer than t
    vertices holds no t-clique; a leaf equal to one already found free
    of t-cliques is answered without being built or searched.
    """
    leaves = coloring._leaves if coloring.spec.kind == KIND_PRODUCT else [(coloring, 1, 0)]
    free_leaves: set[ColoringSpec] = set()
    decisions = []
    for leaf, mult, offset in leaves:
        spec = leaf.spec
        discharged = _lemma1_colors(spec, t)
        colors = [c for c in range(1, spec.ell + 1) if c not in discharged]
        witness, nodes, reused = None, 0, spec in free_leaves
        if spec.N >= t and not reused:
            graphs = color_class_graphs(leaf, colors)
            for c in colors:
                result = has_clique_of_order(graphs[c], t)
                nodes += result.nodes
                if result.found:
                    top = spec.N - 1
                    witness = MonoWitness(
                        offset + c, tuple((top - v) * mult for v in reversed(result.witness))
                    )
                    break
            else:
                free_leaves.add(spec)
        decisions.append(_Decision(tuple(offset + c for c in colors), witness, nodes, reused))
        if witness is not None:
            break
    return decisions


class Certificate(Record):
    """A verified (or failed) lower-bound witness for one coloring.

    verified holds exactly when the search was exhaustive and found no
    witness; such a certificate proves r(t; ell) >= N+1 for its spec.
    search_stats carries timing and node counts; everything else is
    deterministic in (spec, seed), so certificates are compared by
    certificate_core(cert.to_json_dict()).
    """

    spec: ColoringSpec
    seed: int
    t: int
    verified: bool
    exhaustive: bool
    witness: Optional[MonoWitness]
    expectation: Optional[ExpectationReport]
    search_stats: dict

    def certified_bound(self) -> Optional[int]:
        """The proven lower bound on r(t; ell): N+1 when verified."""
        return self.spec.N + 1 if self.verified else None

    def to_json_dict(self) -> dict:
        expectation = None
        if self.expectation is not None:
            expectation = self.expectation.to_json_dict()
            expectation["certified_bound"] = self.certified_bound()
        return {
            "format": CERTIFICATE_FORMAT,
            "spec": self.spec.to_json_dict(),
            "seed": self.seed,
            "t": self.t,
            "verified": self.verified,
            "exhaustive": self.exhaustive,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "expectation": expectation,
            "search_stats": dict(self.search_stats),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Certificate":
        """Parse a certificate document; ValueError names the first malformed field."""
        where = "certificate"
        _typed(d, dict, where)
        if d.get("format") != CERTIFICATE_FORMAT:
            raise ValueError(f"unsupported certificate format {d.get('format')!r}")
        _only_fields(d, ["format", *cls._fields], where)
        witness = _field(d, "witness", dict, where, nullable=True)
        expectation = _field(d, "expectation", dict, where, nullable=True)
        return cls(
            spec=_spec_from_json(_field(d, "spec", dict, where), f"{where}.spec"),
            seed=_field(d, "seed", int, where),
            t=_field(d, "t", int, where),
            verified=_field(d, "verified", bool, where),
            exhaustive=_field(d, "exhaustive", bool, where),
            witness=None if witness is None else _witness_from_json(witness, f"{where}.witness"),
            expectation=None
            if expectation is None
            else _expectation_from_json(expectation, f"{where}.expectation"),
            search_stats=dict(_typed(d.get("search_stats", {}), dict, f"{where}.search_stats")),
        )


def _expectation_from_json(d: dict, where: str) -> ExpectationReport:
    strings = ("per_set_mono_exact", "expected_count_exact", "expected_count")
    nullable = {"certified_bound": int, "p_ind_exact": str, "census_fingerprint": str}
    _only_fields(d, ["t", "m", "N", *strings, *nullable], where)
    t, m, N = (_field(d, key, int, where) for key in ("t", "m", "N"))
    per_set_mono, expected_count, _ = (_field(d, key, str, where) for key in strings)
    _, p_ind, fingerprint = (
        _field(d, key, kind, where, nullable=True) for key, kind in nullable.items()
    )
    try:
        return ExpectationReport(
            t, m, N, None if p_ind is None else Fraction(p_ind),
            Fraction(per_set_mono), Fraction(expected_count), fingerprint,
        )
    except (ValueError, ZeroDivisionError) as exc:  # a fraction string that does not parse
        raise ValueError(f"{where}: {exc}") from None


def canonical_json_bytes(d: dict) -> bytes:
    return (json.dumps(d, sort_keys=True, indent=2) + "\n").encode("ascii")


def certificate_core(d: dict) -> dict:
    """The deterministic part of a certificate dict: everything but timing."""
    return {k: v for k, v in d.items() if k != "search_stats"}


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_json_bytes(cert.to_json_dict()))


def verify_coloring(spec: ColoringSpec, seed: Optional[int] = None, census=None) -> Certificate:
    """Regenerate the coloring, search it for a K_{spec.t}, and wrap the outcome.

    The certificate's t is always spec.t. The expectation report is
    attached when ell = m + 2, to blowup and two-color uniform colorings.
    verified is True exactly when the exhaustive search found nothing. A
    spec that would build a class past EXHAUSTIVE_LIMIT raises ValueError
    before the coloring is drawn; a product is checked on its leaves,
    whose classes are the only ones built. search_stats is read off the
    leaf decisions (_decide_leaves): their nodes, the colors searched and
    those discharged by Lemma 1 up to the witness's color (every color
    when verified), and how many leaves were answered by an equal leaf.
    """
    used_seed = spec.seed if seed is None else rng.check_seed(seed)
    if spec.t < 2:
        raise ValueError(f"clique target must be at least 2, got {spec.t}")
    if spec.N < spec.t:
        raise ValueError(f"N={spec.N} is below the clique target t={spec.t}")
    for leaf in spec.factors or (spec,):
        _check_materializable(leaf.N)
    start = time.perf_counter()
    coloring = regenerate(spec, seed=used_seed)
    decisions = _decide_leaves(coloring, spec.t)
    elapsed = time.perf_counter() - start
    witness = decisions[-1].witness
    if witness is not None and not witness.holds_in(coloring):
        raise AssertionError("search produced a witness the coloring rejects")
    # the expectation formula covers the blowup family, m maps plus two leftover
    # colors: a two-color uniform coloring is its m = 0 member, a product none
    expectation = None
    if spec.ell == spec.m + 2:
        expectation = expected_mono_count(spec.t, spec.m, spec.N, census)
    asked = [c for decision in decisions for c in decision.colors]
    last = spec.ell if witness is None else witness.color
    return Certificate(
        spec=spec,
        seed=used_seed,
        t=spec.t,
        verified=witness is None,
        exhaustive=True,
        witness=witness,
        expectation=expectation,
        search_stats={
            "nodes": sum(decision.nodes for decision in decisions),
            "wall_time_sec": round(elapsed, 6),
            "tries": 1,
            "searched_colors": [c for c in asked if c <= last],
            "lemma1_colors": [c for c in range(1, last + 1) if c not in asked],
            "reused_factors": sum(decision.reused for decision in decisions),
        },
    )


def produce_certificate(
    spec: ColoringSpec, max_tries: int = 1, census=None
) -> tuple[Certificate, list[tuple[int, MonoWitness]]]:
    """Seed-retry loop: try spec.seed, spec.seed+1, ... until verification.

    Success per seed has probability at least 1 - E, so a handful of
    tries suffices whenever the expectation is comfortably below 1.
    Returns the final certificate (verified or not) and the failed
    (seed, witness) attempts.
    """
    if max_tries < 1:
        raise ValueError(f"max_tries must be positive, got {max_tries}")
    if spec.kind == KIND_PRODUCT:
        max_tries = 1  # all randomness is in the factors; retries would repeat
    failures: list[tuple[int, MonoWitness]] = []
    cert = None
    for k in range(max_tries):
        used_seed = (spec.seed + k) & rng.MASK64
        cert = verify_coloring(spec, seed=used_seed, census=census)
        cert.search_stats["tries"] = k + 1
        if cert.verified:
            break
        if cert.witness is not None:
            failures.append((used_seed, cert.witness))
    return cert, failures


def _first_difference(a, b, path: str) -> Optional[str]:
    """Dotted path of the first place two JSON values differ.

    Object keys are walked in b's order, then any key only a has; other
    values compare as canonical JSON, so a list of objects compares
    whatever order their keys were written in.
    """
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return None if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True) else path
    for key in {**b, **a}:
        sub = f"{path}.{key}"
        found = sub if (key in a) != (key in b) else _first_difference(a[key], b[key], sub)
        if found:
            return found
    return None


def recheck_certificate(doc: dict) -> Optional[str]:
    """Re-verify a certificate document from scratch: None if it reproduces, else why not.

    Validates the document (Certificate.from_json_dict raises ValueError
    naming a malformed field), replays verify_coloring once at its seed,
    and compares the document with the replayed certificate field by
    field, all but search_stats, in certificate order: every source field
    comes before the fields rendered from it, so the reason names the
    first field that does not reproduce. A product replays at its spec's
    seed 0, where its factors carry the randomness. A spec past the
    materialization guard raises ValueError before anything is drawn.
    """
    cert = Certificate.from_json_dict(doc)
    seed = None if cert.spec.kind == KIND_PRODUCT else cert.seed
    replayed = verify_coloring(cert.spec, seed=seed).to_json_dict()
    path = _first_difference(certificate_core(doc), certificate_core(replayed), "certificate")
    return None if path is None else f"{path} does not reproduce from its spec and seed"


def write_edge_dump(coloring: EdgeColoring, path) -> None:
    """Full edge listing (x,y,color CSV) for external auditing; small N only."""
    N = coloring.N
    if N > EDGE_DUMP_LIMIT:
        raise ValueError(f"edge dumps are limited to N <= {EDGE_DUMP_LIMIT}, got {N}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,color\n")
        for x in range(N):
            for y in range(x + 1, N):
                fh.write(f"{x},{y},{coloring.color_of(x, y)}\n")
