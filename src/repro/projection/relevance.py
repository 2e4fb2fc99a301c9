"""Relevance of tokens and automaton states (Definition 3 of the paper).

A token is *relevant* with respect to a set of projection paths ``P`` when
one of three conditions holds:

* **C1** - the leaf of its document branch is matched by a path in ``P+``
  (the paths plus all their prefixes),
* **C2** - some node of its document branch is matched by a ``#``-flagged
  path (the token lies inside a subtree that must be kept whole),
* **C3** - there is a tag ``t`` such that ``P+`` contains a child-axis path
  ending in ``t`` and a descendant-axis path ending in ``t`` which both match
  the leaf of the branch with its leaf replaced by ``t`` (the token is a
  necessary "stop-over" that keeps ancestor-descendant relationships intact,
  Example 6).

:class:`RelevanceChecker` is the literal, token-level Definition 3 used by
the reference projector -- the oracle the SMP output is checked against.
The static analysis does not call it: it decides Definition 5 (a
DTD-automaton state is relevant iff the leaf of its document branch is) in
its own incremental pass (:mod:`repro.core.static_analysis`), and the test
suite asserts that both agree on every automaton state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.projection.paths import (
    Axis,
    ProjectionPath,
    ensure_default_paths,
    extend_with_prefixes,
)


@dataclass(frozen=True)
class RelevanceDecision:
    """The outcome of a relevance check, with the condition that fired."""

    relevant: bool
    condition: str | None = None  # "C1", "C2", "C3" or None

    def __bool__(self) -> bool:
        return self.relevant


class RelevanceChecker:
    """Evaluates Definition 3 for document branches.

    Parameters
    ----------
    paths:
        The projection paths ``P``.  The default ``/*`` path is *not* added
        automatically here; callers that need the paper's default behaviour
        should pass paths through
        :func:`repro.projection.paths.ensure_default_paths` first.
    alphabet:
        The set of tag names of the schema.  It is only needed to resolve
        wildcard last steps when evaluating condition C3; when omitted, C3
        candidate tags are taken from the paths themselves.
    """

    def __init__(
        self,
        paths: Sequence[ProjectionPath],
        alphabet: set[str] | None = None,
    ) -> None:
        self.paths = list(paths)
        self.extended_paths = extend_with_prefixes(self.paths)
        self.flagged_paths = [path for path in self.extended_paths if path.keep_subtree]
        self._alphabet = set(alphabet or ())
        self._child_last: list[ProjectionPath] = []
        self._descendant_last: list[ProjectionPath] = []
        for path in self.extended_paths:
            last = path.last_step
            if last is None:
                continue
            if last.axis is Axis.CHILD:
                self._child_last.append(path)
            else:
                self._descendant_last.append(path)
        self._c3_candidates = self._compute_c3_candidates()
        self._branch_cache: dict[tuple[tuple[str, ...], str | None], RelevanceDecision] = {}

    # ------------------------------------------------------------------
    # Candidate tags for condition C3
    # ------------------------------------------------------------------
    def _compute_c3_candidates(self) -> set[str]:
        child_names = {path.last_step.name for path in self._child_last if path.last_step}
        descendant_names = {
            path.last_step.name for path in self._descendant_last if path.last_step
        }
        candidates: set[str] = set()
        if "*" in child_names or "*" in descendant_names:
            # A wildcard last step can stand for any schema tag; fall back to
            # the full alphabet plus all concrete names mentioned.
            candidates.update(self._alphabet)
            candidates.update(name for name in child_names | descendant_names if name != "*")
        else:
            candidates.update(child_names & descendant_names)
            # Concrete names on one side can still pair with a wildcard-free
            # but differently-named path only if identical, so the
            # intersection suffices in this branch.
        return candidates

    # ------------------------------------------------------------------
    # Relevance of tokens
    # ------------------------------------------------------------------
    def decide(self, ancestors: Sequence[str], leaf_tag: str | None) -> RelevanceDecision:
        """Decide relevance of a token.

        Parameters
        ----------
        ancestors:
            Element names strictly above the token (root first).
        leaf_tag:
            The token's own tag name for tag tokens, or None for character
            data.
        """
        key = (tuple(ancestors), leaf_tag)
        cached = self._branch_cache.get(key)
        if cached is not None:
            return cached
        decision = self._decide_uncached(list(ancestors), leaf_tag)
        self._branch_cache[key] = decision
        return decision

    def is_relevant(self, ancestors: Sequence[str], leaf_tag: str | None) -> bool:
        """Boolean shortcut for :meth:`decide`."""
        return self.decide(ancestors, leaf_tag).relevant

    def branch_relevant(self, branch: Sequence[str]) -> RelevanceDecision:
        """Relevance of a *tag* token whose document branch is ``branch``.

        This is the form of Definition 5 for DTD-automaton states: the leaf
        of the branch is the state's own tag.
        """
        if not branch:
            # The empty branch belongs to q0; it is matched by the root path.
            return self._decide_empty()
        return self.decide(tuple(branch[:-1]), branch[-1])

    def _decide_empty(self) -> RelevanceDecision:
        for path in self.extended_paths:
            if not path.steps:
                return RelevanceDecision(True, "C1")
        return RelevanceDecision(False, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _decide_uncached(self, ancestors: list[str], leaf_tag: str | None) -> RelevanceDecision:
        if leaf_tag is not None:
            chain = ancestors + [leaf_tag]
            # C1: the leaf is matched by any path in P+.
            for path in self.extended_paths:
                if path.matches_leaf(chain):
                    return RelevanceDecision(True, "C1")
            c2_chain = chain
        else:
            # Character data can never be matched by an element name test,
            # so C1 cannot hold for text tokens.
            c2_chain = ancestors

        # C2: some node of the branch is matched by a #-flagged path.
        for path in self.flagged_paths:
            if path.matches_any(c2_chain):
                return RelevanceDecision(True, "C2")

        # C3: a child-axis path and a descendant-axis path both target the
        # same tag below this token's parent.
        for tag in self._c3_candidates:
            substituted = ancestors + [tag]
            child_hit = any(
                path.last_step is not None
                and path.last_step.matches_name(tag)
                and path.matches_leaf(substituted)
                for path in self._child_last
            )
            if not child_hit:
                continue
            descendant_hit = any(
                path.last_step is not None
                and path.last_step.matches_name(tag)
                and path.matches_leaf(substituted)
                for path in self._descendant_last
            )
            if descendant_hit:
                return RelevanceDecision(True, "C3")
        return RelevanceDecision(False, None)

    # ------------------------------------------------------------------
    # Subtree-copy classification (used for the action table T)
    # ------------------------------------------------------------------
    def keeps_subtree(self, branch: Sequence[str]) -> bool:
        """True if the node with document branch ``branch`` satisfies C2.

        The static analysis assigns "copy on"/"copy off" to the dual states
        of such nodes (the whole subtree is required) and "copy tag" to
        merely structurally relevant nodes.
        """
        if not branch:
            return False
        for path in self.flagged_paths:
            if path.matches_any(branch):
                return True
        return False


def build_checker(
    paths: Sequence[ProjectionPath | str],
    alphabet: set[str] | None = None,
    add_default: bool = True,
) -> RelevanceChecker:
    """Convenience constructor accepting strings and adding ``/*`` by default."""
    parsed = [
        path if isinstance(path, ProjectionPath) else ProjectionPath.parse(path)
        for path in paths
    ]
    if add_default:
        parsed = ensure_default_paths(parsed)
    return RelevanceChecker(parsed, alphabet=alphabet)
