"""Edge colorings of complete graphs from random blowups, and their verification.

A blowup coloring with parameters (t, m, N, seed) overlays m random
blowups of the t-dimensional orthogonality graph onto K_N: m maps
f_1..f_m send each of the N vertices to a uniform graph vertex, a pair
{x, y} takes the least index i whose map separates it across an edge,
and pairs no map separates get one of two leftover colors by a fair
deterministic coin. Colors are never stored per pair: the m tables plus
the counter-based stream reconstruct every color on demand, so a spec
and a seed fully determine the coloring.

Verification accounts for every color class: a blowup class i cannot
hold a t-clique, because f_i maps one injectively onto a t-clique of the
orthogonality graph, whose clique number is at most t-1 (Lemma 1), so
every class is searched exhaustively or discharged by Lemma 1; a
product's classes are decided on its factors. The outcome, together
with the exact expectation arithmetic, goes into a Certificate. A
verified certificate at N vertices is a concrete proof that
r(t; m+2) >= N+1.

Color classes are built from the tables, not pair by pair: the class-i
row of x is the pullback through f_i of the graph neighborhood of f_i(x),
minus the rows of earlier classes, and only the pairs no map separates
draw a coin.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from . import rng
from .bounds import ExpectationReport, expected_mono_count
from .gf2 import check_construction_t
from .graphs import (
    BitGraph,
    CliqueSearch,
    _bits_to_list,
    build_g0,
    g0_census,
    has_clique_of_order,
)

KIND_BLOWUP = "blowup"
KIND_ERDOS = "erdos"
KIND_PRODUCT = "product"

TAG_BLOWUP = "blowup"
TAG_PAIR = "pair"

MAX_VERTICES = 1 << 32  # vertex-index capacity of one coloring
EXHAUSTIVE_LIMIT = 10_000  # largest N whose color classes are materialized
EDGE_DUMP_LIMIT = 2_000

CERTIFICATE_FORMAT = "ramseycert.certificate/1"


@dataclass(frozen=True)
class ColoringSpec:
    """Parameters that, with the seed, fully determine an edge coloring."""

    kind: str
    t: int
    m: int
    ell: int
    N: int
    seed: int
    factors: Optional[tuple["ColoringSpec", "ColoringSpec"]] = None

    def __post_init__(self) -> None:
        if not 1 <= self.N <= MAX_VERTICES:
            raise ValueError(f"N must be in 1..{MAX_VERTICES}, got {self.N}")
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
            if self.factors is None or len(self.factors) != 2:
                raise ValueError("product colorings need exactly two factors")
            f1, f2 = self.factors
            if self.N != f1.N * f2.N:
                raise ValueError(f"product N must be {f1.N * f2.N}, got {self.N}")
            if self.ell != f1.ell + f2.ell:
                raise ValueError(f"product ell must be {f1.ell + f2.ell}, got {self.ell}")
        else:
            raise ValueError(f"unknown coloring kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "t": self.t,
            "m": self.m,
            "ell": self.ell,
            "N": self.N,
            "seed": self.seed,
        }
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


def _spec_from_json(d, where: str) -> ColoringSpec:
    _typed(d, dict, where)
    factors = _typed(d.get("factors"), list, f"{where}.factors", nullable=True)
    if factors is not None:
        factors = tuple(_spec_from_json(f, f"{where}.factors[{i}]") for i, f in enumerate(factors))
    return ColoringSpec(
        kind=_field(d, "kind", str, where),
        t=_field(d, "t", int, where),
        m=_field(d, "m", int, where),
        ell=_field(d, "ell", int, where),
        N=_field(d, "N", int, where),
        seed=_field(d, "seed", int, where),
        factors=factors,
    )


class EdgeColoring:
    """A total symmetric coloring of the pairs of [N], values in 1..ell.

    Immutable after construction; color_of is a pure function of
    (spec, seed, pair).
    """

    def __init__(
        self,
        spec: ColoringSpec,
        g0: Optional[BitGraph] = None,
        tables: Optional[list[list[int]]] = None,
        factors: Optional[tuple["EdgeColoring", "EdgeColoring"]] = None,
    ):
        self.spec = spec
        self._g0 = g0
        self._tables = tables
        self._factors = factors

    @property
    def N(self) -> int:
        return self.spec.N

    @property
    def ell(self) -> int:
        return self.spec.ell

    def blowup_table(self, i: int) -> list[int]:
        """The i-th blowup map (1-based color index) as a vertex -> G0-index table."""
        if self._tables is None or not 1 <= i <= self.spec.m:
            raise ValueError(f"no blowup map {i}")
        return list(self._tables[i - 1])

    def color_of(self, x: int, y: int) -> int:
        if x == y:
            raise ValueError(f"self-pairs have no color (x = y = {x})")
        N = self.spec.N
        if not (0 <= x < N and 0 <= y < N):
            raise ValueError(f"pair ({x},{y}) out of range for N={N}")
        kind = self.spec.kind
        if kind == KIND_BLOWUP:
            adj = self._g0.adj
            for i, table in enumerate(self._tables, start=1):
                if (adj[table[x]] >> table[y]) & 1:
                    return i
            lo, hi = (x, y) if x < y else (y, x)
            return self.spec.m + 1 + rng.uniform_below(2, self.spec.seed, TAG_PAIR, lo, hi)
        if kind == KIND_ERDOS:
            lo, hi = (x, y) if x < y else (y, x)
            return 1 + rng.uniform_below(self.spec.ell, self.spec.seed, TAG_PAIR, lo, hi)
        # product: first factor colors pairs split by the first coordinate,
        # second factor (shifted palette) colors pairs inside one block
        c1, c2 = self._factors
        a1, b1 = divmod(x, c2.N)
        a2, b2 = divmod(y, c2.N)
        if a1 != a2:
            return c1.color_of(a1, a2)
        return c1.ell + c2.color_of(b1, b2)


def generate_blowup_coloring(t: int, m: int, N: int, seed: int) -> EdgeColoring:
    """Draw the m blowup maps for an (m+2)-coloring of K_N.

    Each table entry f_i(x) is an independent uniform index into the
    2^(t-1) graph vertices, keyed by (seed, "blowup", i, x); leftover
    pair colors are deferred to color_of. Same spec and seed always
    regenerate the identical coloring.
    """
    spec = ColoringSpec(kind=KIND_BLOWUP, t=t, m=m, ell=m + 2, N=N, seed=seed)
    g0 = build_g0(t)
    tables = [
        [rng.uniform_below(g0.n, seed, TAG_BLOWUP, i, x) for x in range(N)]
        for i in range(1, m + 1)
    ]
    return EdgeColoring(spec, g0=g0, tables=tables)


def generate_erdos_coloring(N: int, ell: int, seed: int, t: int = 0) -> EdgeColoring:
    """Uniform independent color per pair, the classic random coloring.

    t is carried only as the default clique target for later verification.
    """
    spec = ColoringSpec(kind=KIND_ERDOS, t=t, m=0, ell=ell, N=N, seed=seed)
    return EdgeColoring(spec)


def product_coloring(c1: EdgeColoring, c2: EdgeColoring) -> EdgeColoring:
    """Palette-disjoint product on N1*N2 vertices.

    Vertex v encodes the pair (v // N2, v % N2); pairs differing in the
    first coordinate take the first factor's color, pairs inside a block
    take the second factor's color shifted past the first palette.

    Product class c <= ell1 holds a K_t exactly when factor 1's class c
    does: such a clique has one vertex per block and projects injectively
    onto one, and a factor clique lifts to any choice of one vertex per
    block. Class ell1+c holds a K_t exactly when factor 2's class c does,
    since that clique lies inside one block. So the product holds a
    monochromatic K_t iff a factor does, and verification decides each
    product class on its factor.
    """
    if c1.N * c2.N > MAX_VERTICES:
        raise ValueError(f"product vertex count {c1.N * c2.N} exceeds capacity")
    spec = ColoringSpec(
        kind=KIND_PRODUCT,
        t=max(c1.spec.t, c2.spec.t),
        m=0,
        ell=c1.ell + c2.ell,
        N=c1.N * c2.N,
        seed=0,
        factors=(c1.spec, c2.spec),
    )
    return EdgeColoring(spec, factors=(c1, c2))


def regenerate(spec: ColoringSpec, seed: Optional[int] = None) -> EdgeColoring:
    """Rebuild a coloring from its spec, optionally overriding the seed.

    Product colorings carry all randomness in their factors, so their
    seed cannot be overridden.
    """
    if spec.kind == KIND_BLOWUP:
        return generate_blowup_coloring(
            spec.t, spec.m, spec.N, spec.seed if seed is None else seed
        )
    if spec.kind == KIND_ERDOS:
        return generate_erdos_coloring(
            spec.N, spec.ell, spec.seed if seed is None else seed, t=spec.t
        )
    if seed is not None and seed != spec.seed:
        raise ValueError("product colorings carry their randomness in the factors")
    f1, f2 = spec.factors
    return product_coloring(regenerate(f1), regenerate(f2))


@dataclass(frozen=True)
class MonoWitness:
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

    @classmethod
    def from_json_dict(cls, d: dict) -> "MonoWitness":
        return _witness_from_json(d, "witness")


def _witness_from_json(d, where: str) -> MonoWitness:
    _typed(d, dict, where)
    vertices = _field(d, "vertices", list, where)
    return MonoWitness(
        color=_field(d, "color", int, where),
        vertices=tuple(_typed(v, int, f"{where}.vertices[{i}]") for i, v in enumerate(vertices)),
    )


def _check_exhaustive(N: int) -> None:
    if N > EXHAUSTIVE_LIMIT:
        raise ValueError(f"N={N} exceeds the exhaustive materialization guard {EXHAUSTIVE_LIMIT}")


def color_class_graphs(
    coloring: EdgeColoring, colors: Optional[list[int]] = None
) -> dict[int, BitGraph]:
    """Materialize the requested color classes as graphs."""
    N, ell = coloring.N, coloring.ell
    _check_exhaustive(N)
    wanted = list(range(1, ell + 1)) if colors is None else list(colors)
    for c in wanted:
        if not 1 <= c <= ell:
            raise ValueError(f"no color {c} in a coloring with colors 1..{ell}")
    rows = _class_rows(coloring, set(wanted))
    return {c: BitGraph(N, rows[c]) for c in wanted}


def _class_rows(coloring: EdgeColoring, wanted: set[int]) -> dict[int, list[int]]:
    """Adjacency rows of the classes in `wanted`, keyed by color."""
    if not wanted:
        return {}
    kind = coloring.spec.kind
    if kind == KIND_BLOWUP:
        return _blowup_rows(coloring, wanted)
    if kind == KIND_PRODUCT:
        return _product_rows(coloring, wanted)
    # uniform random colorings have no structure to exploit: one pass over all pairs
    N = coloring.N
    rows = {c: [0] * N for c in wanted}
    color_of = coloring.color_of
    for x in range(N):
        for y in range(x + 1, N):
            row = rows.get(color_of(x, y))
            if row is not None:
                row[x] |= 1 << y
                row[y] |= 1 << x
    return rows


def _blowup_rows(coloring: EdgeColoring, wanted: set[int]) -> dict[int, list[int]]:
    """Blowup class rows by pullback; coins only for pairs no map separates.

    With fibers F[v] = {x : f_i(x) = v}, the pairs f_i separates across an
    edge at x are R[f_i(x)], R[v] = OR of F[u] over the neighbors u of v.
    """
    spec = coloring.spec
    N, m = spec.N, spec.m
    adj = coloring._g0.adj
    leftover = bool(wanted - set(range(1, m + 1)))
    last = m if leftover else max(wanted, default=0)
    rows: dict[int, list[int]] = {}
    taken = [0] * N  # pairs at x colored by the maps so far
    for i in range(1, last + 1):
        table = coloring._tables[i - 1]
        fibers: dict[int, int] = {}
        for x, v in enumerate(table):
            fibers[v] = fibers.get(v, 0) | (1 << x)
        image = 0
        for v in fibers:
            image |= 1 << v
        pulled = {}
        for v in fibers:
            r = 0
            for u in _bits_to_list(adj[v] & image):
                r |= fibers[u]
            pulled[v] = r
        row = [pulled[v] & ~done for v, done in zip(table, taken)]
        if i in wanted:
            rows[i] = row
        taken = [done | r for done, r in zip(taken, row)]
    if leftover:
        full = (1 << N) - 1
        heads = [0] * N  # pairs whose coin gives color m+2
        for x in range(N):
            bit = 1 << x
            unseparated = (full ^ taken[x]) >> (x + 1) << (x + 1)  # partners y > x
            ahead = rng.pair_coins(spec.seed, TAG_PAIR, x, unseparated)
            heads[x] |= ahead
            for y in _bits_to_list(ahead):
                heads[y] |= bit
        if m + 1 in wanted:
            rows[m + 1] = [
                full ^ (1 << x) ^ done ^ h for x, (done, h) in enumerate(zip(taken, heads))
            ]
        if m + 2 in wanted:
            rows[m + 2] = heads
    return rows


def _product_rows(coloring: EdgeColoring, wanted: set[int]) -> dict[int, list[int]]:
    """Product class rows from the factors' class rows.

    A first-factor class gives (a, b) the row of a with every bit widened
    to a block of N2 bits, shared by the N2 vertices of block a; a
    second-factor class gives (a, b) the row of b shifted into block a.
    """
    c1, c2 = coloring._factors
    N1, N2, ell1 = c1.N, c2.N, c1.ell
    rows: dict[int, list[int]] = {}
    first = _class_rows(c1, {c for c in wanted if c <= ell1})
    widen = {ord("0"): "0" * N2, ord("1"): "1" * N2}
    for c, factor_rows in first.items():
        wide = [int(format(r, "b").translate(widen), 2) for r in factor_rows]
        rows[c] = [r for r in wide for _ in range(N2)]
    second = _class_rows(c2, {c - ell1 for c in wanted if c > ell1})
    for c, factor_rows in second.items():
        rows[ell1 + c] = [r << (a * N2) for a in range(N1) for r in factor_rows]
    return rows


def _lemma1_colors(spec: ColoringSpec, t: int) -> set[int]:
    """Colors in which Lemma 1 rules out a t-clique of `spec`.

    Blowup class i of a t0-spec pulls back the order-t0 graph through
    f_i, which is injective on any clique of the class; Lemma 1 caps that
    graph's clique number at t0-1, so no class i <= m holds K_t once
    t >= t0. A product class is discharged when its factor's class is.
    """
    if spec.kind == KIND_BLOWUP:
        return set(range(1, spec.m + 1)) if t >= spec.t else set()
    if spec.kind == KIND_PRODUCT:
        f1, f2 = spec.factors
        return _lemma1_colors(f1, t) | {f1.ell + c for c in _lemma1_colors(f2, t)}
    return set()


def _first_clique_class(
    coloring: EdgeColoring, colors: list[int], t: int
) -> tuple[Optional[int], Optional[CliqueSearch], int]:
    """The first of `colors` (ascending) whose class holds a t-clique.

    Returns (that color or None, the search that found the clique, the
    search nodes spent). A product decides each class on the factor that
    owns it (see product_coloring), recursively, so only factor classes
    are built and the search it returns ran on a factor. A coloring on
    fewer than t vertices holds no t-clique.
    """
    if coloring.N < t or not colors:
        return None, None, 0
    if coloring.spec.kind == KIND_PRODUCT:
        c1, c2 = coloring._factors
        ell1 = c1.ell
        c, result, nodes = _first_clique_class(c1, [c for c in colors if c <= ell1], t)
        if c is not None:
            return c, result, nodes
        c, result, more = _first_clique_class(c2, [c - ell1 for c in colors if c > ell1], t)
        return None if c is None else ell1 + c, result, nodes + more
    graphs = color_class_graphs(coloring, colors)
    nodes = 0
    for c in colors:
        result = has_clique_of_order(graphs[c], t)
        nodes += result.nodes
        if result.found:
            return c, result, nodes
    return None, None, nodes


def _search_mono(
    coloring: EdgeColoring, t: int
) -> tuple[Optional[MonoWitness], int, list[int], list[int]]:
    """Search every color class Lemma 1 does not discharge for a t-clique.

    Returns (witness, search nodes, colors searched, colors decided on
    factors). Scans colors ascending and the per-class search is
    deterministic, so the witness is too; it is the one an all-class
    search finds, since discharged classes hold no t-clique. A product
    decides its classes on its factors and builds one product class, for
    the witness search, only at the first color a factor says holds a
    t-clique; its nodes are the factor searches' plus that search's.
    Past the materialization guard it raises ValueError.
    """
    if t < 1:
        raise ValueError(f"clique target must be positive, got {t}")
    if coloring.N < t:
        raise ValueError("target exceeds vertex count")
    _check_exhaustive(coloring.N)
    discharged = _lemma1_colors(coloring.spec, t)
    colors = [c for c in range(1, coloring.ell + 1) if c not in discharged]
    c, result, nodes = _first_clique_class(coloring, colors, t)
    searched = colors if c is None else colors[: colors.index(c) + 1]
    on_factors = searched if coloring.spec.kind == KIND_PRODUCT else []
    if c is None:
        return None, nodes, searched, on_factors
    if on_factors:
        result = has_clique_of_order(color_class_graphs(coloring, [c])[c], t)
        nodes += result.nodes
        if not result.found:
            raise AssertionError(f"a factor clique of class {c} did not lift to the product")
    return MonoWitness(c, tuple(sorted(result.witness))), nodes, searched, on_factors


def find_mono_clique(coloring: EdgeColoring, t: int) -> Optional[MonoWitness]:
    """First monochromatic t-clique in deterministic order, or None.

    A None return is exhaustive: every color class was fully searched or
    discharged by Lemma 1.
    """
    witness, _, _, _ = _search_mono(coloring, t)
    return witness


@dataclass(frozen=True)
class Certificate:
    """A verified (or failed) lower-bound witness for one coloring.

    verified holds exactly when the search was exhaustive and found no
    witness; such a certificate proves r(t; ell) >= N+1 for its spec.
    search_stats carries timing and is excluded from certificate
    comparisons; everything else is deterministic in (spec, seed).
    """

    spec: ColoringSpec
    seed: int
    t: int
    verified: bool
    exhaustive: bool
    witness: Optional[MonoWitness]
    expectation: Optional[ExpectationReport]
    search_stats: dict = field(default_factory=dict)

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
    for key in ("t", "m", "N"):
        _field(d, key, int, where)
    for key in ("per_set_mono_exact", "expected_count_exact"):
        _field(d, key, str, where)
    for key in ("p_ind_exact", "census_fingerprint"):
        _field(d, key, str, where, nullable=True)
    try:
        return ExpectationReport.from_json_dict(d)
    except (ValueError, ZeroDivisionError) as exc:  # a fraction string that does not parse
        raise ValueError(f"{where}: {exc}") from None


def canonical_json_bytes(d: dict) -> bytes:
    return (json.dumps(d, sort_keys=True, indent=2) + "\n").encode("ascii")


def certificate_core(d: dict) -> dict:
    """The deterministic part of a certificate dict: everything but timing."""
    return {k: v for k, v in d.items() if k != "search_stats"}


def certificates_match(a: dict, b: dict) -> bool:
    """Byte equality of the deterministic parts, after canonicalization."""
    return canonical_json_bytes(certificate_core(a)) == canonical_json_bytes(
        certificate_core(b)
    )


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "wb") as fh:
        fh.write(canonical_json_bytes(cert.to_json_dict()))


def load_certificate(path) -> Certificate:
    with open(path, "rb") as fh:
        return Certificate.from_json_dict(json.loads(fh.read().decode("ascii")))


def verify_coloring(
    spec: ColoringSpec,
    seed: Optional[int] = None,
    t: Optional[int] = None,
    census=None,
) -> Certificate:
    """Regenerate the coloring, search it, and wrap the outcome.

    The expectation report is attached for blowup and uniform random
    colorings (the closed-form census of the orthogonality graph is used
    when m > 0 and none is supplied); product colorings carry no
    expectation. verified is True exactly when the exhaustive search
    found nothing; N past EXHAUSTIVE_LIMIT raises ValueError before the
    coloring is drawn. search_stats lists the colors searched, those
    discharged by Lemma 1 and those decided on a product's factors.
    """
    used_seed = spec.seed if seed is None else rng.check_seed(seed)
    target = spec.t if t is None else t
    if target < 2:
        raise ValueError(f"clique target must be at least 2, got {target}")
    _check_exhaustive(spec.N)
    start = time.perf_counter()
    coloring = regenerate(spec, seed=used_seed)
    witness, nodes, searched, on_factors = _search_mono(coloring, target)
    elapsed = time.perf_counter() - start
    if witness is not None and not witness.holds_in(coloring):
        raise AssertionError("search produced a witness the coloring rejects")
    # the expectation formula covers the blowup family (m maps plus two
    # leftover colors); a uniform random coloring is its m = 0 member only
    # when it has exactly two colors
    expectation = None
    if spec.kind == KIND_BLOWUP or (spec.kind == KIND_ERDOS and spec.ell == 2):
        if spec.kind == KIND_BLOWUP and spec.m > 0 and census is None:
            census = g0_census(spec.t)
        expectation = expected_mono_count(target, spec.m, spec.N, census)
    return Certificate(
        spec=spec,
        seed=used_seed,
        t=target,
        verified=witness is None,
        exhaustive=True,
        witness=witness,
        expectation=expectation,
        search_stats={
            "nodes": nodes,
            "wall_time_sec": round(elapsed, 6),
            "tries": 1,
            "searched_colors": searched,
            "lemma1_colors": sorted(_lemma1_colors(spec, target)),
            "factor_colors": on_factors,
        },
    )


def produce_certificate(
    spec: ColoringSpec,
    t: Optional[int] = None,
    max_tries: int = 1,
    census=None,
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
        cert = verify_coloring(spec, seed=used_seed, t=t, census=census)
        cert.search_stats["tries"] = k + 1
        if cert.verified:
            break
        if cert.witness is not None:
            failures.append((used_seed, cert.witness))
    return cert, failures


# rendered by to_json_dict from other fields; the diff names the source instead
_RENDERED = {"certificate.expectation.expected_count", "certificate.expectation.certified_bound"}


def _first_difference(a, b, path: str) -> Optional[str]:
    """Dotted path of the first place two JSON values differ, object keys in sorted order."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return None if json.dumps(a) == json.dumps(b) else path
    for key in sorted(a.keys() | b.keys()):
        sub = f"{path}.{key}"
        found = sub not in _RENDERED and _first_difference(a.get(key), b.get(key), sub)
        if found:
            return found
    return None


def recheck_certificate(cert: Certificate, census=None) -> tuple[bool, list[str]]:
    """Re-verify a certificate from scratch.

    Checks internal consistency and the witness against the spec, replays
    the search at the certificate's seed, and compares the deterministic
    parts byte for byte; a mismatch names the first differing field.
    """
    reasons: list[str] = []
    if cert.verified != (cert.witness is None and cert.exhaustive):
        reasons.append(
            "inconsistent certificate: verified must mean exhaustive search with no witness"
        )
    if cert.expectation is not None and cert.expectation.t != cert.t:
        reasons.append(f"certificate.t {cert.t} does not match certificate.expectation.t")
    witness, spec = cert.witness, cert.spec
    if witness is not None:
        bad = [v for v in witness.vertices if not 0 <= v < spec.N]
        if len(witness.vertices) != cert.t:
            reasons.append(f"certificate.witness.vertices must hold t={cert.t} vertices")
        elif bad:
            reasons.append(f"certificate.witness.vertices: {bad[0]} out of range for N={spec.N}")
        elif witness.color > spec.ell:
            reasons.append(f"certificate.witness.color {witness.color} exceeds ell={spec.ell}")
        elif not witness.holds_in(regenerate(spec, seed=cert.seed)):
            reasons.append("certificate.witness is not monochromatic in the regenerated coloring")
    if reasons:
        return False, reasons
    stored = cert.to_json_dict()
    fresh = verify_coloring(spec, seed=cert.seed, t=cert.t, census=census).to_json_dict()
    if not certificates_match(fresh, stored):
        path = _first_difference(certificate_core(stored), certificate_core(fresh), "certificate")
        reasons.append(f"{path} does not reproduce from its spec and seed")
    return not reasons, reasons


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
