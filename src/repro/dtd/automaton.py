"""The document-level DTD-automaton (Figure 5 of the paper).

A DTD-automaton is a finite-state automaton that recognises exactly the
well-formed documents valid with respect to a non-recursive DTD.  Its states
come in *dual pairs*: an opening state ``q`` entered by reading ``<t>`` and a
closing state ``q_hat`` entered by reading ``</t>``.  All transitions into a
state carry the same label (*homogeneity*), which the static analysis relies
on when attaching actions to states.

Construction
------------
Each element type's content model is compiled into a Glushkov position
automaton.  The document automaton is obtained by hierarchically expanding
positions: every position (an occurrence of a child element name within a
parent's content model) becomes a fresh dual state pair, and the child's own
content model is expanded recursively inside that pair.  Because the DTD is
non-recursive the expansion terminates; the expansion of one element type may
appear several times (once per occurrence context), exactly as in the paper
where states ``q4`` and ``q5`` are both ``b``-labelled occurrences inside
``c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import CompilationError
from repro.dtd.model import Dtd

#: Transition symbols: ("open", tag) for ``<tag>`` and ("close", tag) for ``</tag>``.
Symbol = tuple[str, str]

OPEN = "open"
CLOSE = "close"

#: Safety valve against pathological DTDs whose hierarchical expansion explodes.
MAX_STATES = 500_000


def open_symbol(tag: str) -> Symbol:
    """The transition symbol for the opening tag of ``tag``."""
    return (OPEN, tag)


def close_symbol(tag: str) -> Symbol:
    """The transition symbol for the closing tag of ``tag``."""
    return (CLOSE, tag)


@dataclass
class DtdState:
    """One state of the DTD-automaton.

    Attributes
    ----------
    state_id:
        Dense integer identifier.
    tag:
        The element name carried by every incoming transition ("" for the
        initial state ``q0``).
    is_opening:
        True for the dual ``q`` (reads ``<tag>``), False for ``q_hat``
        (reads ``</tag>``); False for ``q0``.
    pair_id:
        Identifier of the occurrence pair this state belongs to (-1 for q0).
    depth:
        Nesting depth of the occurrence (root element = 1, q0 = 0).
    """

    state_id: int
    tag: str
    is_opening: bool
    pair_id: int
    depth: int

    @property
    def is_initial(self) -> bool:
        """True for ``q0``."""
        return self.pair_id < 0

    def describe(self) -> str:
        """Human-readable name, e.g. ``q3<item>`` or ``q3^</item>``."""
        if self.is_initial:
            return "q0"
        marker = f"<{self.tag}>" if self.is_opening else f"</{self.tag}>"
        return f"q{self.state_id}{marker}"


@dataclass
class OccurrencePair:
    """A dual (opening, closing) state pair for one element occurrence."""

    pair_id: int
    element: str
    open_state: int
    close_state: int
    parent_pair: int | None
    depth: int
    children: list[int] = field(default_factory=list)

    def states(self) -> tuple[int, int]:
        """The two state ids of the pair."""
        return (self.open_state, self.close_state)


class DtdAutomaton:
    """The document-level automaton of a non-recursive DTD."""

    def __init__(self, dtd: Dtd) -> None:
        self.dtd = dtd
        self.states: list[DtdState] = []
        self.pairs: list[OccurrencePair] = []
        self.transitions: dict[int, dict[Symbol, set[int]]] = {}
        self.initial_state = self._new_state(tag="", is_opening=False, pair_id=-1, depth=0)
        self.root_pair = self._expand(dtd.root_name, parent_pair=None, depth=1)
        self._add_transition(
            self.initial_state, open_symbol(dtd.root_name), self.pairs[self.root_pair].open_state
        )
        self.final_states: set[int] = {self.pairs[self.root_pair].close_state}
        # The automaton is only read from here on; the static analysis walks
        # this adjacency several times per compiled query.
        self._successors: list[tuple[tuple[Symbol, int], ...]] = [
            tuple(
                (symbol, target)
                for symbol, targets in by_symbol.items()
                for target in targets
            )
            for by_symbol in self.transitions.values()
        ]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_state(self, tag: str, is_opening: bool, pair_id: int, depth: int) -> int:
        if len(self.states) >= MAX_STATES:
            raise CompilationError(
                f"DTD-automaton exceeds {MAX_STATES} states; the schema's "
                "hierarchical expansion is too large for SMP compilation"
            )
        state = DtdState(
            state_id=len(self.states),
            tag=tag,
            is_opening=is_opening,
            pair_id=pair_id,
            depth=depth,
        )
        self.states.append(state)
        self.transitions[state.state_id] = {}
        return state.state_id

    def _new_pair(self, element: str, parent_pair: int | None, depth: int) -> int:
        pair_id = len(self.pairs)
        open_state = self._new_state(tag=element, is_opening=True, pair_id=pair_id, depth=depth)
        close_state = self._new_state(tag=element, is_opening=False, pair_id=pair_id, depth=depth)
        pair = OccurrencePair(
            pair_id=pair_id,
            element=element,
            open_state=open_state,
            close_state=close_state,
            parent_pair=parent_pair,
            depth=depth,
        )
        self.pairs.append(pair)
        if parent_pair is not None:
            self.pairs[parent_pair].children.append(pair_id)
        return pair_id

    def _add_transition(self, source: int, symbol: Symbol, target: int) -> None:
        self.transitions[source].setdefault(symbol, set()).add(target)

    def _expand(self, element: str, parent_pair: int | None, depth: int) -> int:
        """Create the pair for one occurrence of ``element`` and expand its content."""
        pair_id = self._new_pair(element, parent_pair, depth)
        pair = self.pairs[pair_id]
        declaration = self.dtd.element(element)
        if not declaration.allows_children() or not declaration.child_names():
            # Text-only / EMPTY / ANY-without-structure content: the closing
            # tag may follow the opening tag directly.
            self._add_transition(pair.open_state, close_symbol(element), pair.close_state)
            return pair_id

        glushkov = self.dtd.glushkov(element)
        position_pairs: dict[int, int] = {}
        for position, child_name in glushkov.positions.items():
            position_pairs[position] = self._expand(child_name, pair_id, depth + 1)

        for position in glushkov.first:
            child_pair = self.pairs[position_pairs[position]]
            self._add_transition(
                pair.open_state, open_symbol(child_pair.element), child_pair.open_state
            )
        for position, followers in glushkov.follow.items():
            source_pair = self.pairs[position_pairs[position]]
            for follower in followers:
                target_pair = self.pairs[position_pairs[follower]]
                self._add_transition(
                    source_pair.close_state,
                    open_symbol(target_pair.element),
                    target_pair.open_state,
                )
        for position in glushkov.last:
            child_pair = self.pairs[position_pairs[position]]
            self._add_transition(
                child_pair.close_state, close_symbol(element), pair.close_state
            )
        if glushkov.nullable:
            self._add_transition(pair.open_state, close_symbol(element), pair.close_state)
        return pair_id

    # ------------------------------------------------------------------
    # Accessors used by the static analysis
    # ------------------------------------------------------------------
    def state(self, state_id: int) -> DtdState:
        """The state object with identifier ``state_id``."""
        return self.states[state_id]

    def pair_of(self, state_id: int) -> OccurrencePair | None:
        """The occurrence pair of a state (None for ``q0``)."""
        pair_id = self.states[state_id].pair_id
        if pair_id < 0:
            return None
        return self.pairs[pair_id]

    def dual_of(self, state_id: int) -> int | None:
        """The dual state (opening <-> closing) of ``state_id`` (None for q0)."""
        pair = self.pair_of(state_id)
        if pair is None:
            return None
        return pair.close_state if state_id == pair.open_state else pair.open_state

    def parent_states(self, state_id: int) -> tuple[int, ...]:
        """The parent states of ``state_id`` in the sense of Example 8.

        For a state belonging to an occurrence whose parent occurrence is
        ``P``, the parent states are ``P``'s dual pair; for the root
        occurrence the single parent state is ``q0``.
        """
        pair = self.pair_of(state_id)
        if pair is None:
            return ()
        if pair.parent_pair is None:
            return (self.initial_state,)
        parent = self.pairs[pair.parent_pair]
        return parent.states()

    def subtree_states(self, pair_id: int) -> set[int]:
        """States of all occurrences strictly below ``pair_id``.

        These are exactly the states via which a path from the pair's opening
        state to its closing state can travel (the set ``R`` of step 1(b) in
        Figure 6).
        """
        result: set[int] = set()
        stack = list(self.pairs[pair_id].children)
        while stack:
            child_id = stack.pop()
            child = self.pairs[child_id]
            result.update(child.states())
            stack.extend(child.children)
        return result

    def branch_names(self, state_id: int) -> list[str]:
        """Element names on the document branch of ``state_id`` (root first).

        The branch of ``q0`` is empty; the branch of any other state is the
        chain of ancestor element names ending with the state's own element
        (Example 9 of the paper).
        """
        pair = self.pair_of(state_id)
        names: list[str] = []
        while pair is not None:
            names.append(pair.element)
            pair = self.pairs[pair.parent_pair] if pair.parent_pair is not None else None
        return list(reversed(names))

    def iter_transitions(self) -> Iterator[tuple[int, Symbol, int]]:
        """Yield all transitions as ``(source, symbol, target)`` triples."""
        for source, by_symbol in self.transitions.items():
            for symbol, targets in by_symbol.items():
                for target in targets:
                    yield source, symbol, target

    def successors(self, state_id: int) -> tuple[tuple[Symbol, int], ...]:
        """The ``(symbol, target)`` pairs of the outgoing transitions."""
        return self._successors[state_id]

    def state_count(self) -> int:
        """Number of states, including ``q0``."""
        return len(self.states)

    def transition_count(self) -> int:
        """Total number of transitions."""
        return sum(map(len, self._successors))

    # ------------------------------------------------------------------
    # Weights for initial-jump computation (table J)
    # ------------------------------------------------------------------
    def skip_weight(self, state_id: int) -> int:
        """Minimal characters consumed by reading the tag that enters this state.

        The weights deliberately *under*-estimate so that jump offsets derived
        from them can never overshoot a token the runtime needs to see:

        * opening state of ``c``: ``len("<c") + required attributes + 1``
          (the shortest opening tag, also covering the prefix of a bachelor
          tag ``<c .../>`` minus its final two characters),
        * closing state: ``1`` (the ``>`` that any closing or bachelor form
          must still contribute).

        Together a skipped (open, close) pair costs ``len(c) + 3 + atts``,
        the exact length of the minimal bachelor tag -- this reproduces the
        offsets of the paper's Example 1 (25 characters) and Example 3
        (4 characters).
        """
        state = self.states[state_id]
        if state.is_initial:
            return 0
        if state.is_opening:
            declaration = self.dtd.element(state.tag)
            return len(state.tag) + 2 + declaration.required_attribute_length()
        return 1
