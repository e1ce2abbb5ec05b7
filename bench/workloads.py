"""The benchmark's three workloads: inputs from a seed, ops, and checks.

A workload is built from the imported `groundedl` package, a seed and a
scratch directory.  `op(k)` returns the k-th op of an endless,
deterministic stream as (call, check): `call()` is the timed work and
`check(result)` the untimed correctness check, which returns a bool.
Every library call goes through a module attribute at call time, so
the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _random_graph(gl, rng: random.Random, n: int, p: float):
    """A uniform graph on n vertices with exactly round(p * n(n-1)/2) edges:
    a fixed edge count keeps the size of a stratum's graphs, and so most
    of the spread of their cost between seeds, out of the draw."""
    pairs = list(combinations(range(1, n + 1), 2))
    return gl.Graph(n, frozenset(rng.sample(pairs, round(p * len(pairs)))))


def _natural(gl, g):
    return gl.OrderedGraph(g, gl.LinearOrder(tuple(range(1, g.n + 1))))


class Sweep:
    """One op: one ordered graph, n <= 6, natural order, through both
    of the paper's chains.  Check: the chains' answers agree."""

    name = "sweep"
    #: Percentile of op_tail_ms, fixed per workload so that runs compare.
    #: Ops take about 2 ms, so host stalls of a few ms land in the top
    #: percent: p99 read 2.5-2.9 ms or 4.3-4.6 ms by how often the host
    #: stalled in a run, and p99.9 moved by 2x.  p90 is the ops' own tail.
    TAIL_PCT = 90.0

    def __init__(self, gl, seed: int, workdir: Path) -> None:
        self.gl = gl
        self.graphs = [(n, mask) for n in range(1, 7)
                       for mask in range(1 << (n * (n - 1) // 2))]
        _rng("sweep", seed).shuffle(self.graphs)

    def _ordered(self, n: int, mask: int):
        pairs = combinations(range(1, n + 1), 2)
        g = self.gl.Graph(n, frozenset(p for b, p in enumerate(pairs) if mask >> b & 1))
        return _natural(self.gl, g)

    def warm_up(self) -> None:
        for k in range(200):
            self.op(k)[0]()

    def op(self, k: int):
        gl = self.gl
        og = self._ordered(*self.graphs[k % len(self.graphs)])

        def call():
            l_avoids = gl.avoids_patterns(og, (gl.P1, gl.P2))
            l_builds = gl.verify(gl.build_grounded_l(og), og).ok
            l_oracle = gl.lj_feasible(og, ("L",)) is not None
            mpt_avoids = gl.avoids_patterns(og, (gl.MPT_PAT,))
            mpt_builds = gl.verify(gl.build_mpt(og), og).ok
            return l_avoids, l_builds, l_oracle, mpt_avoids, mpt_builds

        def check(r) -> bool:
            return r[0] == r[1] == r[2] and r[3] == r[4]

        return call, check


class Search:
    """One op: an {L, J} feasibility decision at n = 7..9, an order
    enumeration at n = 7, or grounded-LJ recognition at n = 7, on fresh
    seeded graphs at two densities.  Ops cycle through a fixed list of
    strata, so every run has the same mix."""

    name = "search"
    TAIL_PCT = 90.0
    DENSITIES = (0.6, 0.75)
    #: {L, J} decisions at n = 9 cost about 0.1 s each with a standard
    #: deviation at least as large (the exhaustive type-vector walks of
    #: infeasible graphs), so they set most of the spread of ops_per_s
    #: between seeds: n = 9 is one stratum, at the density whose cost
    #: spread least (CV 1.0 at 0.85, 1.7 at 0.75, 1.8 at 0.5) and which
    #: still mixes feasible graphs (1 in 6) with infeasible ones.
    LJ9_DENSITY = 0.85
    PATTERN_SETS = ("P1,P2", "MPT", "INT")
    RECOGNIZE_BUDGET = 8

    def __init__(self, gl, seed: int, workdir: Path) -> None:
        self.gl = gl
        self.seed = seed
        self.patterns = {"P1,P2": (gl.P1, gl.P2), "MPT": (gl.MPT_PAT,),
                         "INT": (gl.INT_PAT,)}
        self.strata = ([("lj", n, p) for n in (7, 8) for p in self.DENSITIES]
                       + [("lj", 9, self.LJ9_DENSITY)]
                       + [("enum", pats, p) for pats in self.PATTERN_SETS
                          for p in self.DENSITIES]
                       + [("recognize", 7, p) for p in self.DENSITIES])

    def warm_up(self) -> None:
        gl = self.gl
        g = gl.cycle_graph(6)
        gl.lj_feasible(_natural(gl, g))
        for pats in self.patterns.values():
            gl.enumerate_avoiding_orders(g, pats, dedupe_equivalence=True)
        gl.recognize(gl.path_graph(5), gl.CLASS_GROUNDED_LJ, budget=2)

    def op(self, k: int):
        stratum = self.strata[k % len(self.strata)]
        cycle = k // len(self.strata)
        rng = _rng("search", self.seed, *stratum, cycle)
        kind, arg, p = stratum
        if kind == "lj":
            return self._lj(_natural(self.gl, _random_graph(self.gl, rng, arg, p)))
        if kind == "enum":
            g = _random_graph(self.gl, rng, 7, p)
            return self._enumerate(g, self.patterns[arg], dedupe=cycle % 2 == 1)
        return self._recognize(_random_graph(self.gl, rng, arg, p))

    def _lj(self, og):
        gl = self.gl

        def call():
            cert = gl.lj_feasible(og, ("L", "J"))
            if cert is None:
                return None
            return gl.verify(gl.realize_lj(cert, og), og)

        def check(report) -> bool:
            return report is None or report.ok

        return call, check

    def _enumerate(self, g, patterns, dedupe: bool):
        gl = self.gl

        def call():
            return gl.enumerate_avoiding_orders(g, patterns, dedupe_equivalence=dedupe)

        def check(orders) -> bool:
            perms = [o.perm for o in orders]
            if any(a >= b for a, b in zip(perms, perms[1:])):
                return False
            if not all(avoids(p) for p in perms):
                return False
            if not dedupe:
                return True
            # one order per shift/reversal class, the lexicographically first
            if len({min(_transforms(p)) for p in perms}) != len(perms):
                return False
            return not any(avoids(t) for p in perms for t in _transforms(p) if t < p)

        def avoids(perm) -> bool:
            return gl.avoids_patterns(gl.OrderedGraph(g, gl.LinearOrder(perm)), patterns)

        return call, check

    def _recognize(self, g):
        gl = self.gl

        def call():
            return gl.recognize(g, gl.CLASS_GROUNDED_LJ, budget=self.RECOGNIZE_BUDGET)

        def check(result) -> bool:
            if not result.member:
                return result.representation is None
            og = gl.OrderedGraph(g, result.order)
            return gl.verify(result.representation, og).ok

        return call, check


def _transforms(perm: tuple) -> list:
    """The cyclic shifts of perm and of its reversal."""
    return [q[i:] + q[:i] for q in (perm, perm[::-1]) for i in range(len(q))]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Documents:
    """One op: one in-process `groundedl` CLI call on files.  Per core:
    build, verify, extend, verify the extension, render it; a gadget
    check after every second core.  Cores avoid {P1, P2}: they come from
    random grounded-L layouts, relabelled by a random order.  Every core
    is fresh, so no input repeats within a run; the first two are fixed
    reference cores whose outputs must match byte digests recorded from
    the seed commit."""

    name = "documents"
    TAIL_PCT = 90.0
    CORE_SIZES = (6, 7, 8, 9, 10, 11, 12)
    REFERENCE_SIZES = (6, 12)
    #: (reference core, step) -> digest of the emitted JSON or SVG.
    REFERENCE = {
        (0, "build"): "f162b6f3f1b4d6db",
        (0, "extend"): "39e8d806739c1c63",
        (0, "render"): "049693af87cdc7e9",
        (1, "build"): "d804793d48ee86ec",
        (1, "extend"): "84ce4ade6aa6e7e2",
        (1, "render"): "49d4dc559424bd3a",
    }

    def __init__(self, gl, seed: int, workdir: Path) -> None:
        self.gl = gl
        self.seed = seed
        self.ops: list = []
        self.cores: list = []
        # one core's ops run in sequence, so every core uses the same files
        self.files = {name: str(workdir / f"core.{name}") for name in
                      ("txt", "rep.json", "ext.json", "ext.txt", "ext.svg")}

    def _core(self, c: int):
        """Ordered graph of a random grounded-L layout: position i has
        depth rank depth[i] and reach past position reach[i]; i < j are
        adjacent iff i's horizontal passes j and j's vertical is deeper."""
        if c < len(self.REFERENCE_SIZES):
            rng, n = _rng("documents", "reference", c), self.REFERENCE_SIZES[c]
        else:
            rng, n = _rng("documents", self.seed, c), self.CORE_SIZES[c % len(self.CORE_SIZES)]
        gl = self.gl
        depth = list(range(1, n + 1))
        rng.shuffle(depth)
        reach = [rng.randint(i, n) for i in range(1, n + 1)]
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        edges = {(perm[i - 1], perm[j - 1]) for i, j in combinations(range(1, n + 1), 2)
                 if reach[i - 1] >= j and depth[j - 1] > depth[i - 1]}
        return gl.OrderedGraph(gl.Graph(n, frozenset(edges)), gl.LinearOrder(tuple(perm)))

    def _add_core(self) -> None:
        c = len(self.cores)
        self.cores.append(self._core(c))
        f = self.files
        steps = [
            ("build", ["build", "-g", f["txt"], "--class", "grounded-l"]),
            ("verify", ["verify", "-g", f["txt"], "-r", f["rep.json"]]),
            ("extend", ["extend", "-g", f["txt"], "-r", f["rep.json"]]),
            ("verify-ext", ["verify", "-g", f["ext.txt"], "-r", f["ext.json"]]),
            ("render", ["render", "-r", f["ext.json"], "-o", f["ext.svg"], "--labels"]),
        ]
        if c % 2 == 1:
            steps.append(("gadget", ["gadget", "--id", "t3ii", "--check"]))
        self.ops += [(c, step, argv) for step, argv in steps]

    def warm_up(self) -> None:
        for k in range(6):
            call, check = self.op(k)
            check(call())

    def op(self, k: int):
        while k >= len(self.ops):
            self._add_core()
        core, step, argv = self.ops[k]
        files = self.files
        if step == "build":
            Path(files["txt"]).write_text(self.gl.emit_graph(self.cores[core]),
                                          encoding="utf-8")
        main = self.gl.cli.main

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            return code, out.getvalue()

        def check(result) -> bool:
            """Exit code 0 and a positive answer; writes the emitted
            representation (and the extension's graph) for later steps."""
            code, stdout = result
            if code != 0:
                return False
            if step == "build":
                Path(files["rep.json"]).write_text(stdout, encoding="utf-8")
                emitted = stdout
            elif step == "extend":
                Path(files["ext.json"]).write_text(stdout, encoding="utf-8")
                Path(files["ext.txt"]).write_text(
                    _extension_document(self.cores[core], stdout), encoding="utf-8")
                emitted = stdout
            elif step == "render":
                emitted = Path(files["ext.svg"]).read_text(encoding="utf-8")
                if not (emitted.startswith("<svg") and emitted.endswith("</svg>\n")):
                    return False
            elif step == "gadget":
                checks = json.loads(stdout)["checks"]
                return "checked-fail" not in checks.values()
            else:
                return json.loads(stdout)["ok"] is True
            recorded = self.REFERENCE.get((core, step))
            return recorded is None or recorded == _digest(emitted)

        return call, check


def _extension_document(og, rep_json: str) -> str:
    """Graph document of the cycle extension H of og, ordered by the
    anchors of the emitted representation: core position i is vertex i,
    cycle vertex j is n + j, and 5i on the cycle attaches to i."""
    n = og.n
    m = 5 * n
    pos = og.order.positions()
    edges = {tuple(sorted((pos[u], pos[v]))) for u, v in og.graph.edges}
    edges |= {(n + j, n + j + 1) for j in range(1, m)} | {(n + 1, n + m)}
    edges |= {(i, n + 5 * i) for i in range(1, n + 1)}
    shapes = json.loads(rep_json)["shapes"]
    order = sorted(shapes, key=lambda s: Fraction(s["anchor_x"]))
    lines = [f"{6 * n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]
    lines.append("order: " + " ".join(str(s["vertex"]) for s in order))
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (Sweep, Search, Documents)}
