"""Two-phase primal-dual PCST solver.

Phase one grows a dual value on every active maximal set of a laminar
family at unit rate, always by the largest step that keeps the duals
feasible.  A step ends in one of two events: a set exhausts its prize
mass and freezes (saturation), or an edge between two maximal sets
becomes tight and the sets merge, the edge joining the spanning forest.
Growth stops when a single active maximal set M remains.  Phase two
takes the forest restricted to M and repeatedly deletes any saturated
set that hangs off the tree by exactly one edge.

All event times are Fractions, so the saturation-versus-merge case
analysis is exact and never depends on a tolerance.  Ties are broken
deterministically: saturations before merges, then smallest set id,
then smallest edge index; two runs on the same instance produce
byte-identical traces.

The driving loop keeps a lazy priority queue of candidate event times
(entries are invalidated by a per-edge version counter whenever a merge
or saturation changes an edge's surroundings).  The tests drive the
same state with a full rescan of every constraint, recomputed from
definitions, and check that the two agree step for step.

Dual values are derived from growth intervals: a set grows from its
creation until it saturates, is merged away, or growth ends, so its
dual is just the clock span of that interval.  The state keeps only
these clocks and the set of saturated ids; ``dual_assignment`` turns
them into a DualAssignment for the solution, the certificate and the
invariant checks.
"""
from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from . import laminar as lam
from . import verify
from .instance import Instance, format_rational

PHASE_GROWTH = "growth"
PHASE_PRUNE = "prune"
PHASE_DONE = "done"

# default cutoff above which solve() skips per-step invariant checking
CHECK_DEFAULT_MAX_N = 64

_KIND_SAT = 0
_KIND_MERGE = 1


class InvariantError(RuntimeError):
    """A runtime invariant of the solver failed.  Always a bug in the
    solver (or corrupted state), never a problem with the input."""


@dataclass(frozen=True)
class Event:
    kind: str  # "saturation" | "merge" | "prune" | "phase"
    epsilon: Fraction
    time: Fraction
    ordinal: Optional[int] = None
    set_id: Optional[int] = None
    edge_index: Optional[int] = None
    edge: Optional[tuple[int, int]] = None
    new_set_id: Optional[int] = None
    phase: Optional[str] = None

    def to_json_obj(self) -> dict:
        obj: dict = {
            "ordinal": self.ordinal,
            "kind": self.kind,
            "epsilon": format_rational(self.epsilon),
            "time": format_rational(self.time),
        }
        if self.kind in ("saturation", "prune"):
            obj["set"] = self.set_id
        elif self.kind == "merge":
            obj["edge_index"] = self.edge_index
            obj["edge"] = list(self.edge)
            obj["new_set"] = self.new_set_id
        elif self.kind == "phase":
            obj["phase"] = self.phase
        return obj


def trace_json_lines(events) -> str:
    import json

    return "".join(json.dumps(ev.to_json_obj()) + "\n" for ev in events)


@dataclass(frozen=True)
class Solution:
    tree_vertices: frozenset[int]
    tree_edges: tuple[tuple[int, int], ...]
    tree_edge_indices: tuple[int, ...]
    cost: Fraction
    penalty: Fraction
    objective: Fraction
    lagrangean_objective: Fraction
    lower_bound: Fraction
    minimizing_vertex: int
    fam: lam.LaminarFamily
    duals: lam.DualAssignment
    trace: tuple[Event, ...]

    def tree(self) -> "verify.Tree":
        return verify.Tree(self.tree_vertices, self.tree_edges)


class SolverState:
    """Mutable run state: instance, family, growth clocks, forest, trace.

    The private clock fields implement growth lazily; see the module
    docstring.  External readers should go through dual_assignment().
    """

    def __init__(self, inst: Instance, *, check_invariants: bool = False,
                 emit_trace: bool = True):
        self.inst = inst
        self.fam = lam.LaminarFamily(inst.n)
        self.saturated: set[int] = set()
        self.forest: list[int] = []  # edge indices, in insertion order
        self.phase = PHASE_GROWTH
        self.trace: list[Event] = []
        self.clock = Fraction(0)
        self.final_maximal: Optional[int] = None
        self._check = check_invariants
        self._emit = emit_trace
        self._ordinal = 0
        self._steps = 0
        n = inst.n
        self._birth: list[Fraction] = [Fraction(0)] * n
        self._death: list[Optional[Fraction]] = [None] * n
        self._prize: list[Fraction] = list(inst.prizes)
        self._inner_birth: list[Fraction] = [Fraction(0)] * n
        self._chain_frozen: list[Fraction] = [Fraction(0)] * n  # per vertex
        self._active = n
        self._eversion = [0] * inst.m
        self._incident: dict[int, list[int]] = {v: [] for v in range(n)}
        for idx, (u, v, _) in enumerate(inst.edges):
            self._incident[u].append(idx)
            self._incident[v].append(idx)
        self._heap: list[tuple] = []
        for v in range(n):
            heapq.heappush(self._heap, (inst.prizes[v], _KIND_SAT, v))
        for idx, (u, v, c) in enumerate(inst.edges):
            heapq.heappush(self._heap, (c / 2, _KIND_MERGE, idx, 0))

    # -- clock-derived quantities ------------------------------------

    def _alive(self, sid: int) -> bool:
        return self._death[sid] is None

    def _dual_of(self, sid: int) -> Fraction:
        death = self._death[sid]
        return (self.clock if death is None else death) - self._birth[sid]

    def _chain_load(self, v: int) -> Fraction:
        """Dual mass on the sets containing vertex v, at the current clock."""
        top = self.fam.maximal_of(v)
        load = self._chain_frozen[v]
        if self._death[top] is None:
            load += self.clock - self._birth[top]
        return load

    def _saturation_clock(self, sid: int) -> Fraction:
        return self._birth[sid] + self._prize[sid] - self._inner_birth[sid]

    def dual_assignment(self) -> lam.DualAssignment:
        """The duals at the current clock, read off the growth clocks."""
        return lam.DualAssignment(
            {sid: self._dual_of(sid) for sid in self.fam.ids},
            set(self.saturated))

    # -- event application --------------------------------------------

    def _record(self, **kw):
        ev = Event(ordinal=self._ordinal, time=self.clock, **kw)
        self._ordinal += 1
        if self._emit:
            self.trace.append(ev)

    def _retouch_edges(self, edge_list: list[int]) -> list[int]:
        """Re-evaluate the merge candidacy of the listed edges after the
        loading rate of one of their extremes changed, returning the
        still-external survivors.

        A queued fire time stays correct as long as the edge stays
        external and both extremes keep their alive/frozen status, so
        this only needs to run when a status actually flips: on a
        saturation (all incident edges slow down) and on a merge that
        revives a frozen side.  Edges whose extremes merely merged with
        other live sets keep their old queue entries.
        """
        fam = self.fam
        edges = self.inst.edges
        kept: list[int] = []
        for idx in edge_list:
            u, v, c = edges[idx]
            tu = fam.maximal_of(u)
            tv = fam.maximal_of(v)
            self._eversion[idx] += 1
            if tu == tv:
                continue  # internal now and forever; drop
            kept.append(idx)
            rate = self._alive(tu) + self._alive(tv)
            if rate == 0:
                continue  # both sides frozen; growth cannot tighten it
            slack = c - self._chain_load(u) - self._chain_load(v)
            if slack < 0:
                raise InvariantError(
                    f"edge {idx} overloaded by {-slack} during growth")
            heapq.heappush(self._heap, (self.clock + slack / rate,
                                        _KIND_MERGE, idx, self._eversion[idx]))
        return kept

    def _fold_chain(self, sid: int):
        """Add the final dual of a newly dead set into its members'
        frozen chain loads."""
        value = self._dual_of(sid)
        if value != 0:
            frozen = self._chain_frozen
            for v in self.fam.vertices(sid):
                frozen[v] += value

    def _apply_saturation(self, sid: int, eps: Fraction):
        self.clock += eps
        if not (self._alive(sid) and self.fam.is_maximal(sid)):
            raise InvariantError(f"saturation of inactive set {sid}")
        if self._saturation_clock(sid) != self.clock:
            raise InvariantError(
                f"set {sid} saturating while its prize is not exhausted")
        self._death[sid] = self.clock
        self._fold_chain(sid)
        self.saturated.add(sid)
        self._active -= 1
        self._incident[sid] = self._retouch_edges(self._incident[sid])
        self._record(kind="saturation", epsilon=eps, set_id=sid)

    def _apply_merge(self, idx: int, eps: Fraction):
        self.clock += eps
        u, v, c = self.inst.edges[idx]
        a = self.fam.maximal_of(u)
        b = self.fam.maximal_of(v)
        if a == b:
            raise InvariantError(f"merge along internal edge {idx}")
        alive_ends = self._alive(a) + self._alive(b)
        if alive_ends == 0:
            raise InvariantError(f"merge along edge {idx} between frozen sets")
        if self._chain_load(u) + self._chain_load(v) != c:
            raise InvariantError(f"merge along edge {idx} before it is tight")
        frozen_children = [sid for sid in (a, b) if not self._alive(sid)]
        for sid in (a, b):
            if self._alive(sid):
                self._death[sid] = self.clock
                self._fold_chain(sid)
        nid = self.fam.merge(a, b)
        self._birth.append(self.clock)
        self._death.append(None)
        self._prize.append(self._prize[a] + self._prize[b])
        inner = Fraction(0)
        for sid in (a, b):
            inner += self._inner_birth[sid] + (self._death[sid] - self._birth[sid])
        self._inner_birth.append(inner)
        self.forest.append(idx)
        self._active += 1 - alive_ends
        # a frozen child's edges speed back up inside the live merged
        # set; a live child's edges keep their valid queue entries
        for sid in frozen_children:
            self._incident[sid] = self._retouch_edges(self._incident[sid])
        big = self._incident.pop(a)
        small = self._incident.pop(b)
        if len(big) < len(small):
            big, small = small, big
        big.extend(small)
        self._incident[nid] = big
        heapq.heappush(self._heap,
                       (self._saturation_clock(nid), _KIND_SAT, nid))
        self._record(kind="merge", epsilon=eps, edge_index=idx,
                     edge=(u, v), new_set_id=nid)

    def _pop_next(self) -> tuple[Fraction, int, int]:
        """Next valid (epsilon, kind, payload) from the event queue."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            when, kind = entry[0], entry[1]
            if kind == _KIND_SAT:
                sid = entry[2]
                if not self._alive(sid):
                    continue
            else:
                idx, version = entry[2], entry[3]
                if version != self._eversion[idx]:
                    continue
                u, v, _ = self.inst.edges[idx]
                if self.fam.maximal_of(u) == self.fam.maximal_of(v):
                    # swallowed by a merge of two live sets, which does
                    # not bump edge versions
                    continue
            eps = when - self.clock
            if eps < 0:
                raise InvariantError("event queue went backwards in time")
            return eps, kind, entry[2]
        raise InvariantError("no growth event available with several "
                             "active sets remaining")

    def _after_step(self):
        self._steps += 1
        if self._steps > 2 * self.inst.n - 2:
            raise InvariantError("growth phase exceeded its step budget")
        if self._check:
            check_growth_invariants(self)


# ---------------------------------------------------------------------------
# public operations


def init_state(inst: Instance, *, check_invariants: bool = False,
               emit_trace: bool = True) -> SolverState:
    return SolverState(inst, check_invariants=check_invariants,
                       emit_trace=emit_trace)


def run_phase1(state: SolverState):
    """Grow until one active maximal set remains (event-queue driven)."""
    if state.phase != PHASE_GROWTH:
        raise ValueError(f"run_phase1 needs the growth phase, "
                         f"state is in {state.phase!r}")
    while state._active > 1:
        eps, kind, payload = state._pop_next()
        if kind == _KIND_SAT:
            state._apply_saturation(payload, eps)
        else:
            state._apply_merge(payload, eps)
        state._after_step()
    survivors = [sid for sid in state.fam.maximal_ids() if state._alive(sid)]
    if len(survivors) != 1:
        raise InvariantError(f"growth ended with {len(survivors)} active "
                             "maximal sets")
    state.final_maximal = survivors[0]
    state.phase = PHASE_PRUNE
    state._record(kind="phase", epsilon=Fraction(0), phase=PHASE_PRUNE)


def run_phase2(state: SolverState) -> Solution:
    """Prune saturated sets that the tree touches by exactly one edge,
    smallest set id first, then assemble the certified solution."""
    if state.phase != PHASE_PRUNE:
        raise ValueError(f"run_phase2 needs the prune phase, "
                         f"state is in {state.phase!r}")
    inst = state.inst
    fam = state.fam
    sat = state.saturated
    tree_vs = set(fam.vertices(state.final_maximal))
    edge_alive: dict[int, bool] = {}
    crossing: dict[int, list[int]] = {}
    deg = {sid: 0 for sid in sat}
    for idx in state.forest:
        u, v, _ = inst.edges[idx]
        if u in tree_vs and v in tree_vs:
            edge_alive[idx] = True
            cross = [sid for sid in fam.crossing_sets(u, v) if sid in sat]
            crossing[idx] = cross
            for sid in cross:
                deg[sid] += 1
    candidates = [sid for sid, d in deg.items() if d == 1]
    heapq.heapify(candidates)
    prunes = 0
    while candidates:
        sid = heapq.heappop(candidates)
        if deg[sid] != 1:
            continue
        removed = tree_vs & fam.vertices(sid)
        tree_vs -= removed
        for idx, alive in edge_alive.items():
            if not alive:
                continue
            u, v, _ = inst.edges[idx]
            if u in removed or v in removed:
                edge_alive[idx] = False
                for other in crossing[idx]:
                    deg[other] -= 1
                    if deg[other] == 1:
                        heapq.heappush(candidates, other)
        prunes += 1
        if prunes > len(sat):
            raise InvariantError("prune phase exceeded its step budget")
        state._record(kind="prune", epsilon=Fraction(0), set_id=sid)
        if state._check:
            check_prune_invariants(state, tree_vs, [
                i for i, alive in edge_alive.items() if alive])
    if any(d == 1 for d in deg.values()):
        raise InvariantError("prune phase stopped with a pending bridge")

    kept = sorted(idx for idx, alive in edge_alive.items() if alive)
    cost = sum((inst.edges[idx][2] for idx in kept), Fraction(0))
    penalty = sum((inst.prizes[v] for v in range(inst.n)
                   if v not in tree_vs), Fraction(0))
    duals = state.dual_assignment()
    cert = verify.certificate(fam, duals)
    state.phase = PHASE_DONE
    state._record(kind="phase", epsilon=Fraction(0), phase=PHASE_DONE)
    sol = Solution(
        tree_vertices=frozenset(tree_vs),
        tree_edges=tuple(inst.edges[idx][:2] for idx in kept),
        tree_edge_indices=tuple(kept),
        cost=cost,
        penalty=penalty,
        objective=cost + penalty,
        lagrangean_objective=cost + 2 * penalty,
        lower_bound=cert.lower_bound,
        minimizing_vertex=cert.minimizing_vertex,
        fam=fam,
        duals=duals,
        trace=tuple(state.trace),
    )
    if sol.lagrangean_objective > 2 * cert.lower_bound:
        raise InvariantError(
            "certificate broken: cost + 2*penalty = "
            f"{sol.lagrangean_objective} exceeds twice the lower bound "
            f"{cert.lower_bound}")
    return sol


def solve(inst: Instance, *, check_invariants: Optional[bool] = None,
          emit_trace: bool = True) -> Solution:
    """Run both phases and return the certified solution.

    check_invariants defaults to on for n <= 64 and off above; setting
    the environment variable PCST_CHECK=1 forces it on everywhere.
    """
    if os.environ.get("PCST_CHECK") == "1":
        check = True
    elif check_invariants is None:
        check = inst.n <= CHECK_DEFAULT_MAX_N
    else:
        check = bool(check_invariants)
    state = init_state(inst, check_invariants=check, emit_trace=emit_trace)
    if check:
        check_growth_invariants(state)
    run_phase1(state)
    return run_phase2(state)


# ---------------------------------------------------------------------------
# runtime invariant checking (growth and prune loops)
#
# All recomputation here goes through the verifier's naive loops or plain
# breadth-first searches; none of it trusts the solver's incremental sums.


def _connected(vertices: set[int], adj: dict[int, list[int]]) -> bool:
    if not vertices:
        return True
    seen = set()
    stack = [next(iter(vertices))]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for nxt in adj.get(cur, ()):
            if nxt in vertices and nxt not in seen:
                stack.append(nxt)
    return seen == vertices


def _induced_adjacency(edge_pairs) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edge_pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _saturated_cover_gap(fam: lam.LaminarFamily, saturated: set[int],
                         region: frozenset[int]) -> int:
    """Vertices of region not covered by disjoint saturated sets inside
    it.  Zero means region is a union of saturated sets."""
    covered: set[int] = set()
    for sid in sorted((s for s in saturated
                       if fam.vertices(s) <= region),
                      key=lambda s: -fam.size(s)):
        vs = fam.vertices(sid)
        if vs & covered:
            continue  # nested inside one already taken
        covered |= vs
    return len(region) - len(covered)


def check_growth_invariants(state: SolverState):
    """Invariants maintained throughout the growth phase: the forest
    spans every family set connectedly, duals are feasible, forest edges
    are tight, saturated sets are exhausted, and no active maximal set
    is a union of saturated sets."""
    inst, fam, duals = state.inst, state.fam, state.dual_assignment()
    forest_pairs = [inst.edges[idx][:2] for idx in state.forest]
    adj = _induced_adjacency(forest_pairs)
    for sid in fam.ids:
        if not _connected(set(fam.vertices(sid)), adj):
            raise InvariantError(
                f"forest does not connect family set {sid}")
    bad = verify.check_feasibility(fam, duals, inst)
    if bad:
        raise InvariantError(f"duals infeasible during growth: {bad[0]}")
    for idx in state.forest:
        u, v, c = inst.edges[idx]
        load = verify.edge_dual_load(fam, duals, u, v)
        if load != c:
            raise InvariantError(
                f"forest edge {idx} not tight: load {load} vs cost {c}")
    for sid in sorted(duals.saturated):
        vs = fam.vertices(sid)
        prize = sum((inst.prizes[v] for v in vs), Fraction(0))
        if verify.inside_load(fam, duals, vs) != prize:
            raise InvariantError(f"saturated set {sid} not exhausted")
    sat = duals.saturated
    for sid in fam.maximal_ids():
        if sid not in sat and \
                _saturated_cover_gap(fam, sat, fam.vertices(sid)) == 0:
            raise InvariantError(
                f"active maximal set {sid} is a union of saturated sets")


def check_prune_invariants(state: SolverState, tree_vs: set[int],
                           tree_edge_indices) -> None:
    """Invariants of the prune loop: the tree stays a tree connected
    within every family set, and the region pruned off the final maximal
    set is a disjoint union of saturated sets."""
    inst, fam = state.inst, state.fam
    pairs = [inst.edges[idx][:2] for idx in tree_edge_indices]
    if len(pairs) != len(tree_vs) - 1:
        raise InvariantError("pruned subgraph is not a tree")
    adj = _induced_adjacency(pairs)
    if not _connected(set(tree_vs), adj):
        raise InvariantError("pruned subgraph is disconnected")
    for sid in fam.ids:
        inter = fam.vertices(sid) & tree_vs
        if inter and not _connected(set(inter), adj):
            raise InvariantError(
                f"tree is disconnected within family set {sid}")
    region = frozenset(fam.vertices(state.final_maximal) - tree_vs)
    gap = _saturated_cover_gap(fam, state.saturated, region)
    if gap:
        raise InvariantError(
            f"pruned region is not a union of saturated sets "
            f"({gap} vertices uncovered)")
