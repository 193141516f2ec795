"""Two-phase primal-dual PCST solver.

Phase one grows a dual value on every active maximal set of a laminar
family at unit rate, always by the largest step that keeps the duals
feasible.  A step ends in one of two events: a set exhausts its prize
mass and freezes (saturation), or an edge between two maximal sets
becomes tight and the sets merge, the edge joining the spanning forest.
Growth stops when a single active maximal set M remains.  Phase two
takes the forest restricted to M and repeatedly deletes any saturated
set that hangs off the tree by exactly one edge.

Growth and prune run on Python ints.  The instance fixes a scale S,
twice the lcm of every cost and prize denominator, and holds its costs
and prizes as ints at S; every clock, dual, load and slack is an
integer count of 1/S.  Sums and differences of such counts stay
integers, and so does a set's saturation clock, stored at its birth: a
singleton's is its prize, and a union born at clock t saturates at
t + (sat(a) - death(a)) + (sat(b) - death(b)), the prize its children
had left to fill when they died.  A merge time is a slack divided by
the number of live sets the edge joins, one or two, and every halving
is exact.  The scaled costs are even, and by induction over the
events, every vertex of a live maximal set has a chain load of the
parity of the clock, and every vertex of a frozen one that of the
set's death clock: growth adds the same amount to both, and a frozen
set only joins a live one along a tight edge, whose even cost is the
sum of its ends' loads, so the two parities agree at the merge.  A
slack between two live sets, an even cost minus two loads of one
parity, is then even.  An odd cost at set-up or an odd slack between
two live sets is an InvariantError.

The saturation-versus-merge case analysis is exact and never depends on
a tolerance, and the outputs do not depend on the scale: the solution's
totals are Fractions converted once from scaled ints, the duals carry
their scale, and each step is recorded as a plain tuple, its epsilon
and clock as ints, that becomes an Event, with its Fractions, only when
the trace is read; trace_json_lines writes the json lines of --trace
straight from those rows.  Ties are broken deterministically:
saturations before merges, then smallest set id, then smallest edge
index; two runs on the same instance produce byte-identical traces.

The driving loop keeps a lazy priority queue of candidate events, each
entry one int.  With W = max(m, 2n), a saturation of set s at clock t
is queued as t*2W + s and a merge along edge k as t*2W + W + k.  A set
id is below 2n - 1 and an edge index below m, so both payloads stay
below W: a key's quotient by 2W is its time, and its remainder is the
set id, or W plus the edge index.  Int order is therefore exactly the
order of (time, kind, payload) tuples, the tie-break above, however
many bits the time has.  An int holds no reference, so neither the heap
nor its stale entries give the cyclic garbage collector anything to
walk.

A saturation key is exact: a set's saturation clock is fixed at its
birth.  A merge key is only a lower bound on its edge's tight time.
``_ekey[k]`` is the key queued for edge k, or -1 for none; re-keying
overwrites it, so an older entry no longer matches and is dropped when
popped, as is the saturation of a set that has died and the merge
along an edge that a merge of two live sets swallowed.  An edge
between maximal sets with r of them live and slack x now is keyed at
clock + x/r.  Each chain load grows at unit rate at most, so a key
computed with both sides live stays a lower bound through any flip.  A
key computed with one side frozen stays one until that side revives,
so the edge is listed as waiting on that set; with both sides frozen
the edge gets no key, only the marker -(its key at a zero slack now)
in ``_ekey``, and waits on both.  A listing holds the key or marker
the edge had then, and is stale once that is overwritten.  So a
saturation touches no edge, a merge of two live sets touches none, and
a merge that revives a frozen child re-keys only the edges waiting on
it.  A merge key that pops while its edge is not tight at the key's
time is a recheck: the edge is re-keyed at the current rates, with the
parity check, and nothing is recorded or counted as a step.  A slack
below zero at the key's time is an InvariantError: the key was no
lower bound.

The event sequence is unchanged by the lower bounds.  Whenever a key
pops, every live set holds its exact saturation key, and every
external edge with a live side holds a queued key at most its exact
(time, kind, payload) key at the current rates: a key computed with
both sides live is one, a key computed with a side frozen is one while
that side stays frozen, and that side's revival re-keys the edge, as it
does an edge with no key.  A popped saturation, or a merge whose edge
is tight at the key's time, therefore has the smallest exact key of all
events, and is the step an exact queue takes, tie-break included.  A
recheck's new key is later than the popped one, because the slack left
is positive, so rechecks cannot repeat at one time.

Each edge k is pushed at most floor(log2 c) + F times, c its scaled
cost and F the number of saturations and revivals of sets that hold
exactly one of its ends; the initial keys are heapified, and besides
the edges' keys each merge pushes one saturation key.  An edge's key
is pushed only by a recheck or a revival's re-key.  A revival re-keys
k once at most, off its one current listing on the revived set.  A
recheck of a key computed with one side frozen follows a saturation of
the other side: the frozen side did not revive before the pop, and had
the other side stayed live the slack would have shrunk at the rate the
key assumed, to zero at the key's time.  A key computed with both
sides live waits half the slack; its recheck either at least halves
the slack, when at every moment of the wait one side grew, or follows
a saturation on each side, when both were frozen at one moment.  A
flip charged lies between the keying and the pop, so none is charged
twice.  Slack never grows and stays positive at a recheck, so at most
floor(log2 c) rechecks halve it.  F is not logarithmic: when a set
saturates and revives many times while edges wait on it, each of them
can be pushed at about every revival.

The tests drive the same state with a full rescan of every constraint,
recomputed from definitions, and check that the two agree step for
step.

Dual values are derived from growth intervals: a set grows from its
creation until it saturates, is merged away, or growth ends, so its
dual is just the clock span of that interval.  The state keeps only
these clocks and the set of saturated ids; ``dual_assignment`` reads
the spans, at the scale, for the solution, the certificate and the
invariant checks.

Neither phase, nor checked mode, lists the members of a set.

* Frozen loads on the solver's union-find.  The state keeps a
  disjoint-set index over the vertices whose classes are exactly the
  maximal sets: each root remembers its maximal set, and each maximal
  set its root, so a merge unions the two roots without listing any
  members.  Every edge slack needs chain loads, the dual mass on the
  sets holding a vertex.  A set's dual stops changing when it dies (it
  saturates or is merged away), and a dying set is maximal, so adding
  its final dual to all its members is one addition to an offset at
  its root.  A vertex's frozen load is the sum of the offsets on its
  path to the root: a union subtracts the new parent root's offset from
  the child root's, and path compression folds the skipped offsets into
  the node it relinks.  A chain load is then the vertex's frozen load
  plus the live dual of its maximal set, both read off one find
  (``_reach``, once per edge end when an edge's key pops or the edge
  is re-keyed at a revival).
* Prune counts from merge sets.  Forest edge k created set n + k, the
  lowest set holding both of its endpoints.  One ascending pass over
  the parent links, adding 1 at each endpoint of a tree edge and -2 at
  its merge set, gives every set the number of tree edges crossing it,
  and the XOR of their merge-set ids names the edge of a set crossed
  once.  Pruning such a set P removes that edge, which crosses exactly
  the sets below its merge set that hold one endpoint; outside P these
  are reached through nearest-saturated-ancestor links.  Edges inside P
  cross only sets inside P, which leave with it and are never read
  again.  The final tree is read off in one descending pass: the sets
  of the final maximal set that neither are nor lie in a pruned set.
* Checked mode runs the verifier on the state, keeping what the family
  makes permanent.  After every step it re-proves the invariants
  behind the factor-2 bound: feasible duals, a tight forest connected
  inside every set, exhausted saturated sets, and no active set that
  is a union of saturated ones.  The verifier's family index of the
  instance's edges, which reads the family's parent and links lists in
  place and never the union-find above, is cached on the state and
  extended by the sets each step appends, so each fact that cannot
  change is computed once, when its set appears:
  - a set's prize sum: its members are fixed;
  - an edge's lowest common set: the first set to hold both ends, and
    every later set lies above it;
  - the costs and prizes at the instance's scale, which the clocks
    share: the instance's own scaled ints, fixed with it.
  The forest check needs nothing more: a union is connected by the
  forest exactly when both of its children are and some forest edge
  joins them, that is, has the union as its lowest common set.  So
  the smallest union that is no forest edge's lowest common set is the
  smallest set the forest leaves in pieces.  What can move is held by
  the verifier's DualIndex: the duals from the clocks, one descending
  pass for chain loads and one ascending pass for inside loads, and
  the slack of every edge and every set; the tightness and exhaustion
  checks read it.  It is kept beside the family index and extended
  while the clock stands still: a step of length 0 moves no dual, and
  the sets it appends have none, so only their inside loads and set
  slacks are new (DualIndex.extend).  A step of positive
  length, like any changed birth, death or clock, changes a held dual
  and builds the index afresh.  Of the growth steps on the benchmark's
  twelve certify-64 instances (seed 1), 796 of 873 (91%) have length
  0; on gen_random(128, "1/16", 10, 8), 96%; with costs and prizes up
  to 1000, 17%; on random fractional instances, about 1%, where a check
  costs a full build and one list compare.  The cover check's gaps
  follow the same rule: a set's gap is settled once it has a parent,
  and only a maximal set saturates, so the pass resumes at the new sets
  while the saturated sets that had a parent stay as they were.  On
  those twelve instances a checked solve took 9.4 times an unchecked
  one with every step rebuilding the index, and takes 5.6 times now
  (best of 15, one core of a shared 2-core x86-64 VM).  A prune step
  checks the tree with the verifier's TreeIndex over the cached family
  index.  The family index, the dual index and the gaps are one cache
  on the state, keyed by the instance object and the family the family
  index was built from; when either is another object, the cache is
  rebuilt as a whole.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import add, mul
from typing import Optional

from . import laminar as lam
from . import verify
from .instance import Instance

PHASE_GROWTH = "growth"
PHASE_PRUNE = "prune"
PHASE_DONE = "done"

# default cutoff above which solve() skips per-step invariant checking
CHECK_DEFAULT_MAX_N = 128


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


# per event kind, the Event fields before its own that a recorded row
# leaves out: a saturation or prune row holds set_id, a merge row
# edge_index, edge and new_set_id, and a phase row the phase
_ROW_GAP = {"saturation": (), "prune": (), "merge": (None,),
            "phase": (None,) * 4}


def trace_json_lines(sol: Solution) -> str:
    """The trace as json lines, one object per step, written from the
    recorded rows: ordinal, kind, epsilon and time as "p/q" in lowest
    terms, then the kind's own fields, in json.dumps's layout.  A phase
    name, PHASE_PRUNE or PHASE_DONE, is plain text that json.dumps
    leaves as it is."""
    scale = sol.duals.scale
    lines = []
    for ordinal, (eps, clock, kind, *fields) in enumerate(sol.trace_rows):
        g, h = gcd(eps, scale), gcd(clock, scale)
        if kind == "merge":
            idx, (u, v), nid = fields
            own = f'"edge_index": {idx}, "edge": [{u}, {v}], "new_set": {nid}'
        elif kind == "phase":
            own = f'"phase": "{fields[0]}"'
        else:
            own = f'"set": {fields[0]}'
        lines.append(f'{{"ordinal": {ordinal}, "kind": "{kind}", '
                     f'"epsilon": "{eps // g}/{scale // g}", '
                     f'"time": "{clock // h}/{scale // h}", {own}}}\n')
    return "".join(lines)


@dataclass(frozen=True)
class Solution:
    """The certified solution.  trace_rows are the steps as the solver
    recorded them: epsilon and clock at the duals' scale, the event's
    kind and its own fields (see _ROW_GAP); trace builds the Events from
    them on first read."""

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
    trace_rows: tuple[tuple, ...]

    @cached_property
    def trace(self) -> tuple[Event, ...]:
        scale = self.duals.scale
        return tuple(Event(kind, Fraction(eps, scale), Fraction(clock, scale),
                           ordinal, *_ROW_GAP[kind], *fields)
                     for ordinal, (eps, clock, kind, *fields)
                     in enumerate(self.trace_rows))

    def tree(self) -> "verify.Tree":
        return verify.Tree(self.tree_vertices, self.tree_edges)


class SolverState:
    """Mutable run state: instance, family, growth clocks, forest, trace.

    The private fields hold growth in ints at the scale ``_scale``; see
    the module docstring.  External readers should go through
    dual_assignment(), the clock spans at that scale.
    """

    def __init__(self, inst: Instance, *, check_invariants: bool = False,
                 emit_trace: bool = True):
        self.inst = inst
        self._check = check_invariants
        self._emit = emit_trace
        n = inst.n
        self._scale = scale = inst.scale
        self._cost = cost = inst.scaled_costs
        if gcd(*cost) & 1:  # some cost is odd: c / 2 below is no int
            odd = next(idx for idx, c in enumerate(cost) if c & 1)
            raise InvariantError(
                f"edge {odd} has odd cost {cost[odd]} at scale {scale}")
        self.fam = lam.LaminarFamily(n)
        self.saturated: set[int] = set()
        self.forest: list[int] = []  # edge indices, in insertion order
        self.phase = PHASE_GROWTH
        self.trace: list[tuple] = []  # rows, see Solution
        self.clock = 0
        self.final_maximal: Optional[int] = None
        self._steps = 0
        self._birth: list[int] = [0] * n
        self._death: list[Optional[int]] = [None] * n
        # the clock at which each set exhausts its prize, if it grows on
        self._sat_clock: list[int] = list(inst.scaled_prizes)
        # union-find over vertices: parent links and load offsets per
        # vertex, the maximal set of each root, the root of each set
        self._dsu: list[int] = list(range(n))
        self._offset: list[int] = [0] * n
        self._top: list[int] = list(range(n))
        self._root: list[int] = list(range(n))
        self._active = n
        # heap keys, see the module docstring: a set id or an edge index
        # stays below W, and the edge's key is the one queued for it
        self._width = width = max(inst.m, 2 * n)
        # edge idx tightens at time c / 2, its key c/2 * 2W + W + idx
        self._ekey = list(map(add, map(mul, cost, repeat(width)),
                              range(width, width + len(cost))))
        # per frozen maximal set, the keys of the edges waiting on it
        self._waiting: dict[int, list[int]] = {}
        self._heap = list(map(add, map(mul, self._sat_clock,
                                       repeat(2 * width)), range(n)))
        self._heap += self._ekey
        heapq.heapify(self._heap)
        # checked mode's one cache, see _family_index
        self._check_cache: dict = {}

    # -- clock-derived quantities ------------------------------------

    def _alive(self, sid: int) -> bool:
        return self._death[sid] is None

    def _find(self, v: int) -> int:
        """Union-find root of vertex v; _reach asks only when v's parent
        is no root.  Relinking a node straight to the root adds the
        offsets it skips into its own."""
        dsu = self._dsu
        path = [v]
        v = dsu[v]
        while dsu[v] != v:
            path.append(v)
            v = dsu[v]
        offset = self._offset
        acc = offset[path[-1]]  # the root's child keeps its offset
        for node in reversed(path[:-1]):
            acc += offset[node]
            offset[node] = acc
            dsu[node] = v
        return v

    def _reach(self, v: int) -> tuple[int, int]:
        """The maximal set holding vertex v and v's chain load, the dual
        mass on the sets containing v at the current clock, off one
        find: the frozen duals of its dead sets, kept as offsets on the
        union-find, plus the growing dual of its maximal set if alive."""
        dsu = self._dsu
        root = dsu[v]
        if dsu[root] != root:
            root = self._find(v)
        load = self._offset[v]
        if root != v:
            load += self._offset[root]
        top = self._top[root]
        if self._death[top] is None:
            load += self.clock - self._birth[top]
        return top, load

    def dual_assignment(self) -> lam.DualAssignment:
        """The duals at the current clock, read off the growth clocks."""
        clock = self.clock
        return lam.DualAssignment(
            [(clock if death is None else death) - birth
             for birth, death in zip(self._birth, self._death)],
            self._scale, set(self.saturated))

    # -- event application --------------------------------------------

    def _record(self, eps: int, kind: str, *fields):
        """Record a step as a row of plain values (see Solution)."""
        if self._emit:
            self.trace.append((eps, self.clock, kind, *fields))

    def _rekey(self, idx: int, tu: int, load_u: int, tv: int,
               load_v: int):
        """Key external edge idx, between maximal sets tu and tv whose
        ends carry the given chain loads now, at the earliest time it
        can tighten at the current rates, and list it as waiting on each
        frozen side: with no live side it gets no key, only the marker
        -(its key at a zero slack now)."""
        death, ekey = self._death, self._ekey
        rate = (death[tu] is None) + (death[tv] is None)
        slack = self._cost[idx] - load_u - load_v
        if slack < 0:
            raise InvariantError(
                f"edge {idx} overloaded by "
                f"{Fraction(-slack, self._scale)} during growth")
        span = 2 * self._width
        key = self.clock * span + self._width + idx
        if rate == 0:
            key = -key
        else:
            if rate == 2:
                if slack & 1:
                    raise InvariantError(
                        f"odd slack {slack} on edge {idx} between two "
                        f"live sets at scale {self._scale}")
                slack >>= 1
            key += slack * span
            if key != ekey[idx]:  # an equal key is still queued
                heapq.heappush(self._heap, key)
        ekey[idx] = key
        for top in (tu, tv):
            if death[top] is not None:
                self._waiting.setdefault(top, []).append(key)

    def _revive(self, sid: int):
        """Re-key the edges waiting on frozen set sid, just merged into a
        live set.  A listed key that is no longer its edge's is stale."""
        ends, ekey, reach = self.inst.ends, self._ekey, self._reach
        span, width = 2 * self._width, self._width
        for key in self._waiting.pop(sid, ()):
            idx = abs(key) % span - width
            if ekey[idx] != key:
                continue
            u, v = ends[idx]
            tu, load_u = reach(u)
            tv, load_v = reach(v)
            if tu == tv:
                ekey[idx] = -1  # internal now and forever
            else:
                self._rekey(idx, tu, load_u, tv, load_v)

    def _kill(self, sid: int):
        """Stop the growth of maximal set sid now and add its final dual
        into its members' frozen chain loads, at its union-find root."""
        self._death[sid] = self.clock
        self._offset[self._root[sid]] += self.clock - self._birth[sid]

    def _merge(self, a: int, b: int) -> int:
        """Append the union of maximal sets a and b, born now, and union
        their classes.  A live child dies first: its final dual must land
        on its root before the union hangs one root under the other."""
        for sid in (a, b):
            if self._alive(sid):
                self._kill(sid)
        nid = self.fam.merge(a, b)
        ra, rb = self._root[a], self._root[b]
        if self.fam.size(a) < self.fam.size(b):
            ra, rb = rb, ra
        self._dsu[rb] = ra
        self._offset[rb] -= self._offset[ra]
        self._top[ra] = nid
        self._root.append(ra)
        self._birth.append(self.clock)
        self._death.append(None)
        return nid

    def _apply_saturation(self, sid: int, eps: int):
        self.clock += eps
        if not (self._alive(sid) and self.fam.parent[sid] is None):
            raise InvariantError(f"saturation of inactive set {sid}")
        if self._sat_clock[sid] != self.clock:
            raise InvariantError(
                f"set {sid} saturating while its prize is not exhausted")
        self._kill(sid)
        self.saturated.add(sid)
        self._active -= 1
        self._record(eps, "saturation", sid)

    def _apply_merge(self, idx: int, eps: int, a: int, b: int):
        """Merge along edge idx, tight after eps between maximal sets a
        and b, at least one of them live, as _pop_next found them."""
        self.clock += eps
        self._ekey[idx] = -1
        frozen = [sid for sid in (a, b) if not self._alive(sid)]
        nid = self._merge(a, b)
        sat, death = self._sat_clock, self._death
        sat.append(self.clock + (sat[a] - death[a]) + (sat[b] - death[b]))
        self.forest.append(idx)
        # a frozen child's waiting edges speed up inside the live merged
        # set; a live child's keys stay lower bounds
        if frozen:
            self._revive(frozen[0])
        else:
            self._active -= 1
        heapq.heappush(self._heap, sat[nid] * 2 * self._width + nid)
        u, v = self.inst.ends[idx]
        self._record(eps, "merge", idx, (u, v), nid)

    def _pop_next(self) -> tuple[int, int, Optional[tuple[int, int]]]:
        """Next event from the queue, as (epsilon, payload, sides): the
        sides are the maximal sets a merge joins, None for a saturation.
        A merge key whose edge is not tight at its time is a recheck,
        re-keyed here, and no event."""
        heap, width, ekey = self._heap, self._width, self._ekey
        death, reach, span = self._death, self._reach, 2 * width
        while heap:
            key = heapq.heappop(heap)
            when, payload = divmod(key, span)
            eps = when - self.clock
            if eps < 0:
                raise InvariantError("event queue went backwards in time")
            if payload < width:
                if death[payload] is not None:
                    continue
                sides = None
            else:
                payload -= width
                if key != ekey[payload]:
                    continue
                u, v = self.inst.ends[payload]
                a, load_u = reach(u)
                b, load_v = reach(v)
                if a == b:
                    # swallowed by a merge of two live sets, which leaves
                    # the edge's key queued
                    ekey[payload] = -1
                    continue
                rate = (death[a] is None) + (death[b] is None)
                slack = self._cost[payload] - load_u - load_v - rate * eps
                if slack < 0:
                    raise InvariantError(
                        f"edge {payload} overloaded at its key's time: "
                        "the key was no lower bound")
                if slack or not rate:
                    self._rekey(payload, a, load_u, b, load_v)
                    continue
                sides = (a, b)
            return eps, payload, sides
        raise InvariantError("no growth event available with several "
                             "active sets remaining")

    def _after_step(self):
        # A saturation or a merge of two live sets lowers the number of
        # active sets by one, from n to 1, so they come to exactly
        # n - 1 steps; only a merge with a frozen side leaves it.  The
        # last step lowers it while two maximal sets remain, so at most
        # n - 2 merges come before it, and at most 2n - 3 steps in all.
        # The star reaches the budget.
        self._steps += 1
        if self._steps > 2 * self.inst.n - 3:
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
        eps, payload, sides = state._pop_next()
        if sides is None:
            state._apply_saturation(payload, eps)
        else:
            state._apply_merge(payload, eps, *sides)
        state._after_step()
    survivors = [sid for sid in state.fam.maximal_ids() if state._alive(sid)]
    if len(survivors) != 1:
        raise InvariantError(f"growth ended with {len(survivors)} active "
                             "maximal sets")
    state.final_maximal = survivors[0]
    state.phase = PHASE_PRUNE
    state._record(0, "phase", PHASE_PRUNE)


def run_phase2(state: SolverState) -> Solution:
    """Prune saturated sets that the tree touches by exactly one edge,
    smallest set id first, then assemble the certified solution."""
    if state.phase != PHASE_PRUNE:
        raise ValueError(f"run_phase2 needs the prune phase, "
                         f"state is in {state.phase!r}")
    inst = state.inst
    fam = state.fam
    sat = state.saturated
    n = inst.n
    forest = state.forest
    if len(fam) != n + len(forest):
        raise InvariantError("family and forest are out of step")
    # one descending pass: the nearest saturated proper ancestor of every
    # set, and a leaf order in which each set's vertices are contiguous
    up: list[Optional[int]] = [None] * len(fam)
    first = [0] * len(fam)
    free = [0] * len(fam)
    placed = 0
    for sid in reversed(fam.ids):
        parent = fam.parent_of(sid)
        if parent is None:
            first[sid] = placed
            placed += fam.size(sid)
        else:
            first[sid] = free[parent]
            free[parent] += fam.size(sid)
            up[sid] = parent if parent in sat else up[parent]
        free[sid] = first[sid]

    def inside(v: int, sid: int) -> bool:
        return first[sid] <= first[v] < first[sid] + fam.size(sid)

    # per set, the number of tree edges crossing it and the XOR of their
    # merge sets (forest edge k created set n + k), over the forest edges
    # in the final maximal set; see the module docstring
    count = [0] * len(fam)
    merge_xor = [0] * len(fam)
    for k, idx in enumerate(forest):
        u, v = inst.ends[idx]
        if inside(u, state.final_maximal):
            count[u] += 1
            count[v] += 1
            count[n + k] -= 2
            merge_xor[u] ^= n + k
            merge_xor[v] ^= n + k
    for sid, parent in fam.links:
        count[parent] += count[sid]
        merge_xor[parent] ^= merge_xor[sid]

    candidates = [sid for sid in sat if count[sid] == 1]
    heapq.heapify(candidates)
    pruned: set[int] = set()
    prunes = 0
    while candidates:
        sid = heapq.heappop(candidates)
        if count[sid] != 1:
            continue
        # the bridge's other crossing sets outside sid: the saturated
        # ancestors of sid and of the outer endpoint below its merge set
        merge_set = merge_xor[sid]
        u, v = inst.ends[forest[merge_set - n]]
        if inside(u, sid) == inside(v, sid):
            raise InvariantError(
                f"bridge of set {sid} has both ends on one side")
        outer = v if inside(u, sid) else u
        count[sid] = 0
        for cur in (up[sid], outer if outer in sat else up[outer]):
            while cur is not None and cur < merge_set:
                count[cur] -= 1
                merge_xor[cur] ^= merge_set
                if count[cur] == 1:
                    heapq.heappush(candidates, cur)
                cur = up[cur]
        pruned.add(sid)
        prunes += 1
        if prunes > len(sat):
            raise InvariantError("prune phase exceeded its step budget")
        state._record(0, "prune", sid)
        if state._check:
            check_prune_invariants(state, *_pruned_tree(state, pruned))
    if any(count[sid] == 1 for sid in sat):
        raise InvariantError("prune phase stopped with a pending bridge")

    tree_vs, kept = _pruned_tree(state, pruned)
    kept.sort()
    # in units of 1/scale
    scale = state._scale
    cost = Fraction(sum(state._cost[idx] for idx in kept), scale)
    penalty = Fraction(sum(p for v, p in enumerate(inst.scaled_prizes)
                           if v not in tree_vs), scale)
    duals = state.dual_assignment()
    cert = verify.certificate(fam, duals)
    state.phase = PHASE_DONE
    state._record(0, "phase", PHASE_DONE)
    sol = Solution(
        tree_vertices=frozenset(tree_vs),
        tree_edges=tuple(inst.ends[idx] for idx in kept),
        tree_edge_indices=tuple(kept),
        cost=cost,
        penalty=penalty,
        objective=cost + penalty,
        lagrangean_objective=cost + 2 * penalty,
        lower_bound=cert.lower_bound,
        minimizing_vertex=cert.minimizing_vertex,
        fam=fam,
        duals=duals,
        trace_rows=tuple(state.trace),
    )
    if sol.lagrangean_objective > 2 * cert.lower_bound:
        raise InvariantError(
            "certificate broken: cost + 2*penalty = "
            f"{sol.lagrangean_objective} exceeds twice the lower bound "
            f"{cert.lower_bound}")
    return sol


def _kept_sets(state: SolverState, pruned) -> list[bool]:
    """Per set id: inside the final maximal set and not inside a pruned
    set.  A set's link comes after the links of its children, so one
    descending pass over the family's links settles every parent
    first; of the maximal sets, only the final one is kept."""
    kept = [False] * len(state.fam)
    kept[state.final_maximal] = True
    for sid, parent in reversed(state.fam.links):
        kept[sid] = kept[parent] and sid not in pruned
    return kept


def _pruned_tree(state: SolverState, pruned) -> tuple[set[int], list[int]]:
    """Vertices and forest edge indices (forest order) left in the tree
    once the given sets are pruned."""
    kept = _kept_sets(state, pruned)
    ends = state.inst.ends
    return ({v for v in range(state.inst.n) if kept[v]},
            [idx for idx in state.forest
             if kept[ends[idx][0]] and kept[ends[idx][1]]])


def solve(inst: Instance, *, check_invariants: Optional[bool] = None,
          emit_trace: bool = True) -> Solution:
    """Run both phases and return the certified solution.

    check_invariants defaults to on for n <= CHECK_DEFAULT_MAX_N and off
    above; True or False always wins.
    """
    if check_invariants is None:
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
# Everything here is read off the family's links, the instance, the
# forest and the growth clocks; none of it trusts the solver's
# union-find, its loads or its saturation clocks.


def _family_index(state: SolverState) -> verify.FamilyIndex:
    """The verifier's family index of the state's family and instance,
    held in the state's one cache: "inst", the instance it was built
    from, "family", the index, and beside it "duals", the DualIndex read
    off it, and "gaps", _growth_gaps'.  The index is extended by the
    sets appended since the last check; when the instance or the family
    is another object, the whole cache is built afresh, so what lies
    beside the index always reads this one."""
    cache = state._check_cache
    if cache.get("inst") is state.inst and cache["family"].fam is state.fam:
        cache["family"].extend()
    else:
        family = verify.FamilyIndex(state.fam, state.inst)
        state._check_cache = cache = {"inst": state.inst, "family": family}
    return cache["family"]


def _dual_index(state: SolverState,
                family: verify.FamilyIndex) -> verify.DualIndex:
    """The verifier's dual index of the state's duals, cached beside the
    family index it reads: extended while the duals it holds stand still
    and the new sets have none, and built afresh otherwise."""
    duals = state.dual_assignment()
    index = state._check_cache.get("duals")
    if index is None or not index.extend(duals):
        index = state._check_cache["duals"] = verify.DualIndex(
            state.fam, duals, state.inst, family)
    return index


def _cover_gaps(family: verify.FamilyIndex, saturated: set[int],
                members: list[int], gap: Optional[list[int]] = None
                ) -> list[int]:
    """Per set s: how many vertices of s off the tree lie in no
    saturated set that is inside s and misses the tree, given how many
    tree vertices each set holds.  Zero means s minus the tree is a
    union of saturated sets.  One ascending pass over the links: a set
    has the sum of its children's gaps, or none if it is saturated and
    misses the tree.  The pass settles a set when it passes the set up
    to its parent, so a maximal set's own saturation is not counted:
    the checks read the gaps of active maximal sets only.  Given the gap
    list of an earlier pass, with the same tree and the same saturated
    sets among those that had a parent then, the pass resumes at the
    links of the sets appended since."""
    n, taken = family.n, family.taken
    if gap is None:
        gap = [1 - count for count in members[:n]]
    held = len(gap)
    gap += [0] * (taken - held)
    for sid, up in family.links[2 * (held - n):2 * (taken - n)]:
        if sid in saturated and not members[sid]:
            gap[sid] = 0
        gap[up] += gap[sid]
    return gap


def _growth_gaps(state: SolverState,
                 family: verify.FamilyIndex) -> list[int]:
    """The cover gaps of the growth check, with no tree vertex, cached
    beside the family index with the saturated sets they were passed.
    A set's gap is settled once it has a parent, and only a maximal set
    saturates, so the pass resumes while every saturated set of the last
    pass still is one and each new one had no parent then; otherwise it
    starts over."""
    sat, parent = state.saturated, family.parent
    # with no pass held, nothing is new: gap stays None
    gap, held_sat = state._check_cache.get("gaps", (None, sat))
    if not sat >= held_sat or any(
            parent[sid] is not None and parent[sid] < len(gap)
            for sid in sat - held_sat):
        gap = None
    gap = _cover_gaps(family, sat, [0] * family.taken, gap)
    state._check_cache["gaps"] = (gap, set(sat))
    return gap


def check_growth_invariants(state: SolverState):
    """Invariants maintained throughout the growth phase: the forest
    spans every family set connectedly, duals are feasible, forest edges
    are tight, saturated sets are exhausted, and no active maximal set
    is a union of saturated sets.  The forest check reads the lowest
    common sets of the forest's edges from the cached family index (see
    the module docstring); the rest reads the verifier's DualIndex of
    the growth clocks, over every edge and every set, which is extended
    while the clock stands still and built afresh when it moves."""
    family = _family_index(state)
    joined = {family.tops[idx] for idx in state.forest} - {-1}
    if len(joined) < family.taken - family.n:
        unions = set(range(family.n, family.taken))
        raise InvariantError(
            f"forest does not connect family set {min(unions - joined)}")
    index = _dual_index(state, family)
    if index.violations:
        raise InvariantError(
            f"duals infeasible during growth: {index.violations[0]}")
    slack = index.edge_slack
    for idx in state.forest:
        if slack[idx]:
            load = index.value(index.costs[idx] - slack[idx])
            raise InvariantError(f"forest edge {idx} not tight: load {load} "
                                 f"vs cost {index.value(index.costs[idx])}")
    sat = state.saturated
    prizes, inside = index.prizes, index.inside
    for sid in sorted(sat):
        if prizes[sid] != inside[sid]:
            raise InvariantError(f"saturated set {sid} not exhausted")
    gaps = _growth_gaps(state, family)
    for sid in state.fam.maximal_ids():
        if sid not in sat and gaps[sid] == 0:
            raise InvariantError(
                f"active maximal set {sid} is a union of saturated sets")


def check_prune_invariants(state: SolverState, tree_vs: set[int],
                           tree_edge_indices) -> None:
    """Invariants of the prune loop: the tree stays a tree connected
    within every family set, and the region pruned off the final maximal
    set is a disjoint union of saturated sets.  The verifier's TreeIndex
    checks the tree, reading the lowest common sets of its edges from
    the cached family index."""
    family = _family_index(state)
    ends = state.inst.ends
    tree = verify.Tree(frozenset(tree_vs),
                       tuple(ends[idx] for idx in tree_edge_indices))
    index = verify.TreeIndex(state.fam, tree, state.inst, family,
                             tree_edge_indices)
    try:
        index.check(require_tree=True)
    except ValueError as exc:
        raise InvariantError(f"pruned subgraph: {exc}") from None
    sid = index.disconnected_set()
    if sid is not None:
        raise InvariantError(f"tree is disconnected within family set {sid}")
    gap = _cover_gaps(family, state.saturated,
                      index.members)[state.final_maximal]
    if gap:
        raise InvariantError(
            f"pruned region is not a union of saturated sets "
            f"({gap} vertices uncovered)")
