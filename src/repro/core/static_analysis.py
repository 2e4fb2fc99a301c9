"""Static compilation of the runtime automaton (Section IV, Figure 6).

Given a non-recursive DTD and a set of projection paths the analysis

1. selects a set ``S`` of DTD-automaton states:

   (a) every state whose document branch is *relevant* (Definition 5),
   (b) minus the interior states of subtrees that are copied wholesale
       ("copy on"/"copy off" nodes -- once such a node is matched, the
       runtime only needs to find its closing tag, Example 12),
   (c) plus, to a fixpoint, the parent states of look-alike states the
       runtime could otherwise confuse after skipping input (Example 11);

2. computes the subgraph automaton ``D|S`` (Definition 4);
3. determinises it, which preserves homogeneity, yielding the runtime
   automaton whose states the lookup tables of Figure 3 are attached to.

Deviation from the paper's Figure 6 step (b): the paper removes the interior
states of a dual pair whenever all of them are relevant.  We additionally
require the pair itself to satisfy condition C2 (its whole subtree is
copied), because only then is skipping the interior matches safe.  For
``#``-flagged subtrees (the situation of Example 12) the two formulations
coincide.

Relevance (step 1(a)) is decided here in one pre-order pass over the
occurrence pairs of the DTD-automaton (:class:`_RelevancePass`), not by the
token-level :class:`~repro.projection.relevance.RelevanceChecker`: a pair's
branch is its parent's branch plus one tag, so the branch positions every
projection path selects extend from the parent's in O(path steps).  The
checker stays the reference projector's literal Definition 3, and the test
suite asserts the two agree on every occurrence pair.

The DTD-automaton itself is built once per :class:`~repro.dtd.model.Dtd`
object (:meth:`Dtd.automaton`) and shared, read-only, by every query
compiled against that schema.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.dtd.automaton import CLOSE, OPEN, DtdAutomaton, Symbol
from repro.dtd.model import Dtd
from repro.errors import CompilationError
from repro.projection.paths import Axis, PathStep, ProjectionPath, ensure_default_paths


# ----------------------------------------------------------------------
# Runtime automaton (the determinised subgraph automaton)
# ----------------------------------------------------------------------
@dataclass
class RuntimeState:
    """One state of the determinised runtime automaton.

    ``nfa_states`` records which DTD-automaton states this DFA state stands
    for; ``symbol`` is the incoming transition label (None only for the
    initial state) -- well-defined because homogeneity is preserved by the
    subset construction.
    """

    state_id: int
    nfa_states: frozenset[int]
    symbol: Symbol | None
    is_final: bool = False


@dataclass
class RuntimeAutomaton:
    """Deterministic, homogeneous runtime automaton."""

    states: list[RuntimeState] = field(default_factory=list)
    initial: int = 0
    transitions: dict[int, dict[Symbol, int]] = field(default_factory=dict)

    def successors(self, state_id: int) -> dict[Symbol, int]:
        """Outgoing transitions of ``state_id``."""
        return self.transitions.get(state_id, {})

    def state(self, state_id: int) -> RuntimeState:
        """The state object for ``state_id``."""
        return self.states[state_id]

    def final_states(self) -> set[int]:
        """All accepting states."""
        return {state.state_id for state in self.states if state.is_final}

    def state_count(self) -> int:
        """Number of DFA states."""
        return len(self.states)


# ----------------------------------------------------------------------
# Static analysis
# ----------------------------------------------------------------------
@dataclass
class AnalysisResult:
    """Everything the table construction needs."""

    dtd: Dtd
    paths: list[ProjectionPath]
    automaton: DtdAutomaton
    selected: set[int]
    runtime: RuntimeAutomaton
    #: DFA state -> shortest skippable prefix before any frontier token.
    initial_jumps: dict[int, int]
    #: NFA state id -> True when its document branch satisfies C2.
    keeps_subtree: dict[int, bool]
    #: NFA state id -> True when its document branch is relevant.
    relevant: dict[int, bool]
    analysis_seconds: float = 0.0


# ----------------------------------------------------------------------
# Step 1(a): relevance of DTD-automaton states (Definitions 3 and 5)
# ----------------------------------------------------------------------
class _RelevancePass:
    """Definition 5 relevance and the C2 flag of every DTD-automaton state.

    ``P+`` (the paths plus all their prefixes) is held as a trie of distinct
    step prefixes; node 0 is the root path ``/``.  Each node is one bit of
    two masks kept per occurrence pair:

    * ``sel`` -- the prefixes that select the pair's own element (the leaf
      of its document branch);
    * ``seen`` -- the prefixes that select some node of the branch or the
      virtual document node above it.

    A pair's branch is its parent's plus one tag, so both masks follow from
    the parent's: a child-axis step selects the leaf when its prefix
    selected the parent, a descendant-axis step when its prefix selected
    any ancestor or the document node, and in both cases its name test must
    accept the tag.  The document node -- the parent of the root occurrence
    -- is selected by the root path alone.  For the element of a pair with
    parent ``p``:

    * C1 holds when some non-root prefix is in its ``sel``;
    * C2 holds when a ``#``-flagged path is in the ``sel`` of the pair or of
      an ancestor (inherited down the tree; it is also the subtree-copy
      flag of the action table);
    * C3 holds when a child-axis prefix whose parent prefix is in
      ``sel(p)`` and a descendant-axis prefix whose parent prefix is in
      ``seen(p)`` end in the same name.  It depends on the parent alone, so
      it is decided once per parent.  Wildcard last steps can be left out:
      such a prefix selects every child of ``p``, so C1 already holds
      wherever a ``*`` would make C3 hold.
    """

    def __init__(self, paths: Sequence[ProjectionPath]) -> None:
        node_of: dict[tuple[PathStep, ...], int] = {(): 0}
        #: Per non-root trie node: (bit, parent prefix bit, last step).
        self._nodes: list[tuple[int, int, PathStep]] = []
        self._flagged = 0
        for path in paths:
            for length in range(1, len(path.steps) + 1):
                prefix = path.steps[:length]
                if prefix not in node_of:
                    node_of[prefix] = len(node_of)
                    self._nodes.append(
                        (1 << node_of[prefix], 1 << node_of[prefix[:-1]], prefix[-1])
                    )
            if path.keep_subtree and path.steps:
                self._flagged |= 1 << node_of[path.steps]
        # C3 side tables: concrete last-step name -> mask of the parent
        # prefixes of the child-axis (resp. descendant-axis) prefixes
        # ending in it.
        self._child_last: dict[str, int] = {}
        self._descendant_last: dict[str, int] = {}
        for _, parent_bit, step in self._nodes:
            if step.name == "*":
                continue
            side = (
                self._child_last if step.axis is Axis.CHILD else self._descendant_last
            )
            side[step.name] = side.get(step.name, 0) | parent_bit
        self._moves: dict[str, tuple[tuple[tuple[int, int], ...], ...]] = {}

    def run(self, automaton: DtdAutomaton) -> tuple[dict[int, bool], dict[int, bool]]:
        """``(relevant, keeps_subtree)`` keyed by DTD-automaton state id."""
        relevant: dict[int, bool] = {}
        keeps_subtree: dict[int, bool] = {automaton.initial_state: False}
        # (sel, seen, C2, C3 of its children) per pair, pairs being numbered
        # in pre-order; the document node heads the root occurrence.
        document = (1, 1, False, self._c3(1, 1))
        context: list[tuple[int, int, bool, bool]] = []
        for pair in automaton.pairs:
            sel_parent, seen_parent, c2_parent, c3 = (
                document if pair.parent_pair is None else context[pair.parent_pair]
            )
            child_moves, descendant_moves = self._moves_for(pair.element)
            sel = 0
            for bit, parent_bit in child_moves:
                if sel_parent & parent_bit:
                    sel |= bit
            for bit, parent_bit in descendant_moves:
                if seen_parent & parent_bit:
                    sel |= bit
            seen = seen_parent | sel
            c2 = c2_parent or bool(sel & self._flagged)
            context.append(
                (sel, seen, c2, self._c3(sel, seen) if pair.children else False)
            )
            decision = bool(sel) or c2 or c3
            relevant[pair.open_state] = relevant[pair.close_state] = decision
            keeps_subtree[pair.open_state] = keeps_subtree[pair.close_state] = c2
        relevant[automaton.initial_state] = True
        return relevant, keeps_subtree

    def _moves_for(self, tag: str) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The ``(bit, parent prefix bit)`` of every prefix whose last name
        test accepts ``tag``: child-axis ones, then descendant-axis ones."""
        moves = self._moves.get(tag)
        if moves is None:
            child: list[tuple[int, int]] = []
            descendant: list[tuple[int, int]] = []
            for bit, parent_bit, step in self._nodes:
                if step.matches_name(tag):
                    side = child if step.axis is Axis.CHILD else descendant
                    side.append((bit, parent_bit))
            moves = self._moves[tag] = (tuple(child), tuple(descendant))
        return moves

    def _c3(self, sel: int, seen: int) -> bool:
        """C3 for the children of a node with masks ``sel`` and ``seen``."""
        return any(
            sel & mask and seen & self._descendant_last.get(name, 0)
            for name, mask in self._child_last.items()
        )


class StaticAnalyzer:
    """Runs the Figure 6 compilation.

    The analyzer reads the schema's shared DTD-automaton
    (:meth:`Dtd.automaton`, built once per ``Dtd`` object) and never
    mutates it, so any number of analyzers over the same schema -- the
    members of a multi-query engine, say -- pay for one automaton.
    Relevance and the C2 subtree flag of every state come from one
    incremental pre-order pass over its occurrence pairs
    (:class:`_RelevancePass`).
    """

    def __init__(
        self,
        dtd: Dtd,
        paths: Sequence[ProjectionPath | str],
        add_default_paths: bool = True,
    ) -> None:
        parsed = [
            path if isinstance(path, ProjectionPath) else ProjectionPath.parse(path)
            for path in paths
        ]
        if add_default_paths:
            parsed = ensure_default_paths(parsed)
        if not parsed:
            raise CompilationError("at least one projection path is required")
        self.dtd = dtd
        self.paths = parsed
        self.automaton = dtd.automaton()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def analyse(self) -> AnalysisResult:
        """Run the full static analysis."""
        start = time.perf_counter()
        relevant, keeps_subtree = _RelevancePass(self.paths).run(self.automaton)
        selected = self._select_states(relevant, keeps_subtree)
        runtime = self._determinize(self._subgraph_transitions(selected), selected)
        initial_jumps = self._compute_initial_jumps(runtime, selected)
        elapsed = time.perf_counter() - start
        return AnalysisResult(
            dtd=self.dtd,
            paths=self.paths,
            automaton=self.automaton,
            selected=selected,
            runtime=runtime,
            initial_jumps=initial_jumps,
            keeps_subtree=keeps_subtree,
            relevant=relevant,
            analysis_seconds=elapsed,
        )

    # ------------------------------------------------------------------
    # Step 1(b) + 1(c): state selection
    # ------------------------------------------------------------------
    def _select_states(
        self, relevant: dict[int, bool], keeps_subtree: dict[int, bool]
    ) -> set[int]:
        selected = {
            state_id
            for state_id, is_relevant in relevant.items()
            if is_relevant and state_id != self.automaton.initial_state
        }

        # Step (b): prune the interiors of wholesale-copied subtrees.
        for pair in self.automaton.pairs:
            if pair.open_state not in selected or not keeps_subtree[pair.open_state]:
                continue
            interior = self.automaton.subtree_states(pair.pair_id)
            if interior:
                # When the pair's subtree is copied wholesale every interior
                # state is relevant (C2 is inherited), so the paper's
                # "R is a subset of S" condition holds and the interior can be
                # skipped by the runtime.
                selected -= interior

        # Step (c): add disambiguating parent states until a fixpoint.
        changed = True
        while changed:
            changed = False
            sources = list(selected) + [self.automaton.initial_state]
            for source in sources:
                in_selected, outside = self._frontier_reachability(source, selected)
                if not outside:
                    continue
                labels_in_selected = {
                    self._state_label(state_id) for state_id in in_selected
                }
                for candidate in outside:
                    if self._state_label(candidate) not in labels_in_selected:
                        continue
                    for parent in self.automaton.parent_states(candidate):
                        if parent != self.automaton.initial_state and parent not in selected:
                            selected.add(parent)
                            dual = self.automaton.dual_of(parent)
                            if dual is not None and dual not in selected:
                                selected.add(dual)
                            changed = True
        return selected

    def _state_label(self, state_id: int) -> tuple[str, str]:
        state = self.automaton.state(state_id)
        return (OPEN if state.is_opening else CLOSE, state.tag)

    def _frontier_reachability(
        self, source: int, selected: set[int]
    ) -> tuple[set[int], set[int]]:
        """States reachable from ``source`` through non-selected intermediates.

        Returns ``(hits, outside)`` where ``hits`` are the selected states at
        which the exploration stops and ``outside`` are the non-selected
        states traversed on the way.
        """
        hits: set[int] = set()
        outside: set[int] = set()
        seen: set[int] = {source}
        stack = [source]
        while stack:
            current = stack.pop()
            for _, target in self.automaton.successors(current):
                if target in seen:
                    continue
                seen.add(target)
                if target in selected:
                    hits.add(target)
                else:
                    outside.add(target)
                    stack.append(target)
        return hits, outside

    # ------------------------------------------------------------------
    # Step 2: subgraph automaton (Definition 4)
    # ------------------------------------------------------------------
    def _subgraph_transitions(
        self, selected: set[int]
    ) -> tuple[dict[int, dict[Symbol, set[int]]], set[int]]:
        """Transitions of ``D|S`` plus its final states."""
        members = set(selected) | {self.automaton.initial_state}
        transitions: dict[int, dict[Symbol, set[int]]] = {state: {} for state in members}
        finals: set[int] = set()
        dtd_finals = self.automaton.final_states
        for source in members:
            if source in dtd_finals:
                finals.add(source)
            seen: set[int] = {source}
            stack = [source]
            while stack:
                current = stack.pop()
                for symbol, target in self.automaton.successors(current):
                    if target in members:
                        transitions[source].setdefault(symbol, set()).add(target)
                        continue
                    if target in dtd_finals:
                        finals.add(source)
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
        return transitions, finals

    # ------------------------------------------------------------------
    # Step 3: determinisation (subset construction)
    # ------------------------------------------------------------------
    def _determinize(
        self,
        subgraph: tuple[dict[int, dict[Symbol, set[int]]], set[int]],
        selected: set[int],
    ) -> RuntimeAutomaton:
        transitions, finals = subgraph
        runtime = RuntimeAutomaton()
        initial_set = frozenset({self.automaton.initial_state})
        state_index: dict[frozenset[int], int] = {}

        def intern(nfa_states: frozenset[int], symbol: Symbol | None) -> int:
            existing = state_index.get(nfa_states)
            if existing is not None:
                return existing
            state_id = len(runtime.states)
            runtime.states.append(
                RuntimeState(
                    state_id=state_id,
                    nfa_states=nfa_states,
                    symbol=symbol,
                    is_final=bool(nfa_states & finals),
                )
            )
            runtime.transitions[state_id] = {}
            state_index[nfa_states] = state_id
            return state_id

        runtime.initial = intern(initial_set, None)
        pending = [initial_set]
        while pending:
            current = pending.pop()
            current_id = state_index[current]
            merged: dict[Symbol, set[int]] = {}
            for nfa_state in current:
                for symbol, targets in transitions.get(nfa_state, {}).items():
                    merged.setdefault(symbol, set()).update(targets)
            for symbol, targets in merged.items():
                target_set = frozenset(targets)
                known = target_set in state_index
                target_id = intern(target_set, symbol)
                runtime.transitions[current_id][symbol] = target_id
                if not known:
                    pending.append(target_set)
        return runtime

    # ------------------------------------------------------------------
    # Initial jump offsets (table J, Example 1 / Example 3)
    # ------------------------------------------------------------------
    def _compute_initial_jumps(
        self, runtime: RuntimeAutomaton, selected: set[int]
    ) -> dict[int, int]:
        """Shortest guaranteed prefix before any frontier token, per DFA state.

        For every DTD-automaton state the minimum over all paths to a
        selected state of the summed :meth:`DtdAutomaton.skip_weight` of the
        intermediate (skipped) states is computed with a Dijkstra search; the
        DFA value is the minimum over its constituent NFA states.  Using an
        under-approximating weight guarantees the jump can never overshoot a
        frontier token.
        """
        import heapq

        members = set(selected) | {self.automaton.initial_state}
        nfa_jump: dict[int, int] = {}
        for source in members:
            best = None
            # Dijkstra over non-selected intermediate states.
            heap: list[tuple[int, int]] = []
            distances: dict[int, int] = {source: 0}
            heapq.heappush(heap, (0, source))
            while heap:
                cost, current = heapq.heappop(heap)
                if cost > distances.get(current, cost):
                    continue
                if best is not None and cost >= best:
                    continue
                for _, target in self.automaton.successors(current):
                    if target in members:
                        if best is None or cost < best:
                            best = cost
                        continue
                    new_cost = cost + self.automaton.skip_weight(target)
                    if new_cost < distances.get(target, new_cost + 1):
                        distances[target] = new_cost
                        heapq.heappush(heap, (new_cost, target))
            nfa_jump[source] = best if best is not None else 0

        jumps: dict[int, int] = {}
        for state in runtime.states:
            values = [nfa_jump.get(nfa_state, 0) for nfa_state in state.nfa_states]
            jumps[state.state_id] = min(values) if values else 0
        return jumps
