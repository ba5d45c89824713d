"""CDCL SAT solver with incremental, assumption-based solving.

The formal engines of the paper's cascade (SAT-based ATPG, bounded model
checking) need a SAT oracle; RuleBase-era industrial tools embedded
Chaff-class solvers.  This is a compact conflict-driven solver with the
standard ingredients: two-watched-literal propagation, first-UIP clause
learning, activity-based (VSIDS-style) branching with decay, and
geometric restarts.

Variables are positive integers; literals are signed integers
(``-v`` = negated ``v``).  Clauses are lists of literals.

Solver reuse semantics
----------------------
A :class:`SatSolver` is incremental: it may be reused across
:meth:`solve` calls, and clauses may be added between calls.

* **Persists across calls:** the clause database -- including clauses
  learned in earlier calls; conflict analysis only ever drops literals
  forced at decision level 0, so a learned clause never bakes in an
  assumption -- plus level-0 facts (unit clauses and literals derived
  from them), watcher lists (registered once, at :meth:`add_clause`
  time), variable activities, and the lifetime counters in
  :attr:`cumulative`.
* **Resets per call:** :attr:`stats` (a fresh :class:`SatStats` per
  call, so a reused solver cannot exhaust ``max_conflicts`` with a
  previous call's conflicts), the conflict budget itself (overridable
  per call via ``solve(max_conflicts=...)``), the restart schedule, and
  every assignment above level 0 -- in particular assumptions, which
  hold only for the duration of the call that passed them.

Assumptions are established MiniSat-style as decisions at their own
levels, never as level-0 facts, so an UNSAT-under-assumptions answer
does not poison later calls.  To make a clause group retractable (e.g.
one mutant's logic cone), allocate an activation literal
``act = solver.new_var()``, add each clause as ``[-act] + clause``, and
pass ``act`` among the assumptions to enable the group; adding the
permanent unit ``[-act]`` retires it for good.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.telemetry import metrics as _metrics

# Published once per solve() call, from its finally — the same place
# the per-call stats fold into the lifetime counters.
_SOLVES = _metrics.counter("repro_sat_solves_total", "SAT solve() calls")
_DECISIONS = _metrics.counter("repro_sat_decisions_total",
                              "SAT branching decisions")
_PROPAGATIONS = _metrics.counter("repro_sat_propagations_total",
                                 "SAT unit propagations")
_CONFLICTS = _metrics.counter("repro_sat_conflicts_total", "SAT conflicts")
_LEARNED = _metrics.counter("repro_sat_learned_total",
                            "SAT learned clauses")
_RESTARTS = _metrics.counter("repro_sat_restarts_total", "SAT restarts")


class SatResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SatStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0

    def accumulate(self, other: "SatStats") -> None:
        self.decisions += other.decisions
        self.propagations += other.propagations
        self.conflicts += other.conflicts
        self.restarts += other.restarts
        self.learned += other.learned


class SatSolver:
    """Incremental CDCL solver: add clauses, call :meth:`solve` repeatedly."""

    def __init__(self, max_conflicts: int = 2_000_000):
        self.max_conflicts = max_conflicts
        self.clauses: list[list[int]] = []
        self.num_vars = 0
        #: per-call counters; replaced with a fresh SatStats on every solve().
        self.stats = SatStats()
        #: lifetime totals across every solve() on this instance.
        self.cumulative = SatStats()
        # Internal solving state:
        self._assign: dict[int, bool] = {}
        self._level: dict[int, int] = {}
        self._reason: dict[int, Optional[list[int]]] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._watches: dict[int, list[list[int]]] = {}
        self._activity: dict[int, float] = {}
        self._var_inc = 1.0
        #: lazy VSIDS order heap of (-activity, var); may hold stale
        #: entries for assigned vars, skipped at pick time.  Every
        #: unassigned var always has an entry carrying its current
        #: activity, so picks are O(log n) instead of a full var scan
        #: while reproducing the original order exactly (max activity,
        #: lowest var on ties).
        self._order: list[tuple[float, int]] = []
        #: order-heap bookkeeping: built yet? / highest var with an entry.
        self._order_built = False
        self._order_vars = 0
        #: unit literals awaiting their level-0 enqueue at the next solve().
        self._pending: list[int] = []
        #: persistent propagation head into _trail.
        self._qhead = 0
        #: an explicitly empty clause was added: trivially UNSAT forever.
        self._has_empty = False
        #: a contradiction was derived at level 0: UNSAT forever.
        self._unsat = False

    # -- construction ----------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        clause = sorted(set(map(int, literals)), key=abs)
        if not clause:
            self.clauses.append([])
            self._has_empty = True
            return
        if clause[0] == 0:  # abs-sort puts 0 first
            raise ValueError("literal 0 is not allowed")
        for i in range(len(clause) - 1):
            if clause[i] == -clause[i + 1]:  # v/-v sit adjacent when sorted
                return  # tautology
        top = clause[-1]
        if top < 0:
            top = -top
        if top > self.num_vars:
            self.num_vars = top
        self.clauses.append(clause)
        if self._trail_lim:
            self._cancel_until(0)
        if len(clause) == 1:
            self._pending.append(clause[0])
            return
        assign = self._assign
        if assign:
            # Level-0 facts exist (a previous solve() ran): watches must
            # sit on non-false literals, or the clause could become unit
            # or conflicting without its watches ever being revisited.
            open_lits = []
            falsified = False
            for l in clause:
                v = assign.get(l if l > 0 else -l)
                if v is None:
                    open_lits.append(l)
                elif v is (l > 0):
                    return  # satisfied by a level-0 fact: never constrains
                else:
                    falsified = True
            if falsified:
                if not open_lits:
                    self._unsat = True
                    return
                if len(open_lits) == 1:
                    self._pending.append(open_lits[0])
                    return
                for slot in (0, 1):
                    where = clause.index(open_lits[slot])
                    clause[slot], clause[where] = clause[where], clause[slot]
        self._watch(clause[0], clause)
        self._watch(clause[1], clause)

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    # -- literal state helpers ----------------------------------------------------

    def _value(self, lit: int) -> Optional[bool]:
        var = abs(lit)
        if var not in self._assign:
            return None
        value = self._assign[var]
        return value if lit > 0 else not value

    def _watch(self, lit: int, clause: list[int]) -> None:
        self._watches.setdefault(lit, []).append(clause)

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        var = abs(lit)
        self._assign[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    # -- propagation -------------------------------------------------------------------

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation from the persistent head; returns a conflict or None.

        The literal-value tests are inlined (no :meth:`_value` calls):
        ``assign.get(var) is (lit > 0)`` reads "lit is assigned True" --
        this is by far the hottest loop in the solver.
        """
        assign = self._assign
        trail = self._trail
        watches = self._watches
        levels = self._level
        reasons = self._reason
        stats = self.stats
        head = self._qhead
        while head < len(trail):
            lit = trail[head]
            head += 1
            false_lit = -lit
            watchlist = watches.get(false_lit)
            if not watchlist:
                continue
            index = 0
            while index < len(watchlist):
                clause = watchlist[index]
                # Ensure false_lit is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fval = assign.get(first if first > 0 else -first)
                if fval is (first > 0):
                    index += 1
                    continue
                # Look for a replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    oval = assign.get(other if other > 0 else -other)
                    if oval is None or oval is (other > 0):
                        clause[1], clause[k] = other, clause[1]
                        watches.setdefault(other, []).append(clause)
                        watchlist[index] = watchlist[-1]
                        watchlist.pop()
                        moved = True
                        break
                if moved:
                    continue
                # No replacement: clause is unit or conflicting.
                if fval is not None:  # first is assigned False
                    self._qhead = head
                    return clause  # conflict
                var = first if first > 0 else -first
                assign[var] = first > 0
                levels[var] = len(self._trail_lim)
                reasons[var] = clause
                trail.append(first)
                stats.propagations += 1
                index += 1
        self._qhead = head
        return None

    # -- conflict analysis ------------------------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        current_level = len(self._trail_lim)
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        lit_iter = list(conflict)
        trail_index = len(self._trail) - 1
        asserting: Optional[int] = None

        while True:
            for lit in lit_iter:
                var = abs(lit)
                if var in seen:
                    continue
                seen.add(var)
                self._bump(var)
                if self._level[var] == current_level:
                    counter += 1
                elif self._level[var] > 0:
                    learned.append(lit)
            # Walk the trail backwards to the next seen literal.
            while trail_index >= 0 and abs(self._trail[trail_index]) not in seen:
                trail_index -= 1
            if trail_index < 0:
                break
            pivot = self._trail[trail_index]
            trail_index -= 1
            counter -= 1
            if counter == 0:
                asserting = -pivot
                break
            reason = self._reason[abs(pivot)]
            lit_iter = [l for l in (reason or []) if l != pivot]

        if asserting is not None:
            learned.insert(0, asserting)
        if len(learned) <= 1:
            return learned, 0
        levels = sorted((self._level[abs(l)] for l in learned[1:]), reverse=True)
        return learned, levels[0]

    def _bump(self, var: int) -> None:
        activity = self._activity.get(var, 0.0) + self._var_inc
        self._activity[var] = activity
        if var not in self._assign:
            heapq.heappush(self._order, (-activity, var))

    def _decay(self) -> None:
        self._var_inc /= 0.95
        if self._var_inc > 1e100:
            for var in self._activity:
                self._activity[var] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_order()  # every heap key just went stale

    def _rebuild_order(self) -> None:
        activity = self._activity
        assign = self._assign
        self._order = [(-activity.get(var, 0.0), var)
                       for var in range(1, self.num_vars + 1)
                       if var not in assign]
        heapq.heapify(self._order)
        self._order_built = True
        self._order_vars = self.num_vars

    def _sync_order(self) -> None:
        """Bring the order heap up to date at the start of a solve.

        The first solve builds it from scratch (exactly the original
        fresh-solver behaviour); later solves only add entries for vars
        created since -- :meth:`_bump` and :meth:`_backjump` already
        keep existing unassigned vars' entries current in between.
        """
        if not self._order_built:
            self._rebuild_order()
            return
        if self._order_vars >= self.num_vars:
            return
        activity = self._activity
        assign = self._assign
        entries = [(-activity.get(var, 0.0), var)
                   for var in range(self._order_vars + 1, self.num_vars + 1)
                   if var not in assign]
        self._order_vars = self.num_vars
        order = self._order
        if len(entries) > 4096:
            if len(order) + len(entries) > 2 * (self.num_vars - len(assign)):
                self._rebuild_order()
            else:
                order.extend(entries)
                heapq.heapify(order)
        else:
            for entry in entries:
                heapq.heappush(order, entry)

    def _backjump(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        order = self._order
        activity = self._activity
        assign = self._assign
        levels = self._level
        reasons = self._reason
        trail = self._trail
        mark = self._trail_lim[level]
        del self._trail_lim[level:]
        tail = trail[mark:]
        del trail[mark:]
        entries = []
        for lit in tail:
            var = lit if lit > 0 else -lit
            del assign[var]
            del levels[var]
            del reasons[var]
            entries.append((-activity.get(var, 0.0), var))
        if len(entries) > 4096:
            # A heap's pop sequence is the sorted order of its multiset,
            # so one O(n) heapify replaces n O(log n) pushes unobserved.
            if len(order) + len(entries) > 2 * (self.num_vars - len(assign)):
                # Mostly stale entries: compact instead.  Activities only
                # grow, so dropping superseded entries cannot change
                # which entry for a var surfaces first.
                self._rebuild_order()
            else:
                order.extend(entries)
                heapq.heapify(order)
        else:
            for entry in entries:
                heapq.heappush(order, entry)

    def _cancel_until(self, level: int) -> None:
        self._backjump(level)
        if self._qhead > len(self._trail):
            self._qhead = len(self._trail)

    def _pick_branch(self) -> Optional[int]:
        order = self._order
        assign = self._assign
        while order:
            __, var = heapq.heappop(order)
            if var not in assign:
                # negative polarity first: good for ATPG encodings
                return -var
        return None

    # -- main loop -----------------------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = (),
              max_conflicts: Optional[int] = None) -> SatResult:
        """Solve the current clause set; model available via :meth:`model`.

        ``assumptions`` hold for this call only; ``max_conflicts``
        overrides the instance-level conflict budget for this call only.
        """
        self.stats = SatStats()
        budget = self.max_conflicts if max_conflicts is None else max_conflicts
        assumed = list(assumptions)
        for lit in assumed:
            self.num_vars = max(self.num_vars, abs(lit))
        try:
            return self._search(assumed, budget)
        finally:
            self.cumulative.accumulate(self.stats)
            if _metrics.enabled:
                stats = self.stats
                _SOLVES.inc()
                _DECISIONS.inc(stats.decisions)
                _PROPAGATIONS.inc(stats.propagations)
                _CONFLICTS.inc(stats.conflicts)
                _LEARNED.inc(stats.learned)
                _RESTARTS.inc(stats.restarts)

    def _search(self, assumptions: list[int], budget: int) -> SatResult:
        if self._has_empty or self._unsat:
            return SatResult.UNSAT
        self._cancel_until(0)
        if self._pending:
            pending, self._pending = self._pending, []
            for lit in pending:
                value = self._value(lit)
                if value is False:
                    self._unsat = True
                    return SatResult.UNSAT
                if value is None:
                    self._enqueue(lit, None)
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return SatResult.UNSAT
        self._sync_order()

        restart_limit = 100
        conflicts_since_restart = 0
        while True:
            if len(self._trail_lim) < len(assumptions):
                # Establish (or re-establish after a restart/backjump)
                # the next assumption before any free decision.
                lit = assumptions[len(self._trail_lim)]
                value = self._value(lit)
                if value is False:
                    return SatResult.UNSAT  # UNSAT under these assumptions
                if value is True:
                    self._trail_lim.append(len(self._trail))  # dummy level
                    continue
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
            else:
                decision = self._pick_branch()
                if decision is None:
                    return SatResult.SAT
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(decision, None)
            while True:
                conflict = self._propagate()
                if conflict is None:
                    break
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if self.stats.conflicts > budget:
                    self._cancel_until(0)
                    return SatResult.UNKNOWN
                if not self._trail_lim:
                    self._unsat = True
                    return SatResult.UNSAT
                learned, back_level = self._analyze(conflict)
                self._backjump(back_level)
                self._qhead = len(self._trail)
                self._decay()
                if not learned:
                    self._unsat = True
                    return SatResult.UNSAT
                if len(learned) == 1:
                    if self._value(learned[0]) is False:
                        self._unsat = True
                        return SatResult.UNSAT
                    if self._value(learned[0]) is None:
                        self._enqueue(learned[0], None)
                else:
                    self.clauses.append(learned)
                    self.stats.learned += 1
                    self._watch(learned[0], learned)
                    self._watch(learned[1], learned)
                    if self._value(learned[0]) is None:
                        self._enqueue(learned[0], learned)
                if conflicts_since_restart >= restart_limit:
                    conflicts_since_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self.stats.restarts += 1
                    self._backjump(0)
                    self._qhead = len(self._trail)
                    break

    def model(self) -> dict[int, bool]:
        """Satisfying assignment after a SAT answer (unassigned -> False)."""
        return {v: self._assign.get(v, False) for v in range(1, self.num_vars + 1)}
