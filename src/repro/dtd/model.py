"""The :class:`Dtd` model: element declarations plus derived information.

This is the schema object handed to the SMP compiler.  Besides giving access
to the parsed declarations it provides the derived quantities the static
analysis needs:

* the root element (from the DOCTYPE name or inferred),
* a recursion check (the paper requires a non-recursive schema),
* minimal serialized lengths of elements and content models, which feed the
  initial-jump offsets of table ``J`` (Example 1 / Example 3 of the paper),
* the set of tag names, used to detect tag names that are prefixes of each
  other (the ``Abstract`` / ``AbstractText`` special case of Section II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import DtdRecursionError, DtdValidationError
from repro.dtd.ast import ContentKind, ElementDecl
from repro.dtd.glushkov import GlushkovAutomaton, build_glushkov, minimal_child_sequence
from repro.dtd.parser import parse_dtd_text

if TYPE_CHECKING:
    from repro.dtd.automaton import DtdAutomaton


@dataclass
class Dtd:
    """A parsed, validated DTD.

    Use :meth:`Dtd.parse` to build one from DTD text, or construct it
    directly from a mapping of :class:`~repro.dtd.ast.ElementDecl` objects
    (the synthetic workload schemas do the latter).
    """

    elements: dict[str, ElementDecl]
    root_name: str
    _glushkov_cache: dict[str, GlushkovAutomaton] = field(
        default_factory=dict, repr=False, compare=False
    )
    _min_length_cache: dict[str, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    _automaton: "DtdAutomaton | None" = field(
        default=None, repr=False, compare=False
    )
    _prefix_pairs: tuple[tuple[str, str], ...] | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, root: str | None = None) -> "Dtd":
        """Parse DTD text and validate it.

        Parameters
        ----------
        text:
            A ``<!DOCTYPE ...>`` declaration or a bare internal subset.
        root:
            Explicit root element name; overrides the DOCTYPE name.
        """
        parsed = parse_dtd_text(text)
        root_name = root or parsed.doctype_name
        dtd = cls.from_elements(parsed.elements, root=root_name)
        return dtd

    @classmethod
    def from_elements(
        cls, elements: Mapping[str, ElementDecl], root: str | None = None
    ) -> "Dtd":
        """Build and validate a DTD from element declarations."""
        element_map = dict(elements)
        if not element_map:
            raise DtdValidationError("DTD declares no elements")
        if root is not None:
            root_name = root
        else:
            try:
                root_name = _infer_root(element_map)
            except DtdValidationError:
                # A cycle makes every element "referenced"; report the more
                # informative recursion error in that case.
                cycle = _find_cycle(element_map)
                if cycle:
                    raise DtdRecursionError(cycle) from None
                raise
        if root_name not in element_map:
            raise DtdValidationError(f"root element {root_name!r} is not declared")
        dtd = cls(elements=element_map, root_name=root_name)
        dtd.validate()
        return dtd

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check referential integrity and non-recursiveness."""
        for declaration in self.elements.values():
            for child in declaration.child_names():
                if child not in self.elements:
                    raise DtdValidationError(
                        f"element {declaration.name!r} references undeclared "
                        f"element {child!r}"
                    )
        cycle = self.find_recursion()
        if cycle:
            raise DtdRecursionError(cycle)

    def find_recursion(self) -> list[str] | None:
        """Return a cycle of element names if the DTD is recursive, else None."""
        return _find_cycle(self.elements)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> ElementDecl:
        """The root element declaration."""
        return self.elements[self.root_name]

    def element(self, name: str) -> ElementDecl:
        """The declaration of element ``name``."""
        try:
            return self.elements[name]
        except KeyError:
            raise DtdValidationError(f"element {name!r} is not declared") from None

    def tag_names(self) -> set[str]:
        """All declared element names."""
        return set(self.elements)

    def prefix_pairs(self) -> list[tuple[str, str]]:
        """Pairs ``(short, long)`` where ``short`` is a proper prefix of ``long``.

        These are the tag names that require the extra verification step of
        the runtime algorithm (the ``Abstract`` / ``AbstractText`` case).
        """
        if self._prefix_pairs is None:
            names = sorted(self.elements)
            self._prefix_pairs = tuple(
                (short, long)
                for index, short in enumerate(names)
                for long in names[index + 1:]
                if long.startswith(short) and long != short
            )
        return list(self._prefix_pairs)

    def glushkov(self, name: str) -> GlushkovAutomaton:
        """The Glushkov automaton of element ``name``'s content model (cached)."""
        if name not in self._glushkov_cache:
            self._glushkov_cache[name] = build_glushkov(self.element(name).content)
        return self._glushkov_cache[name]

    def automaton(self) -> "DtdAutomaton":
        """The document-level DTD-automaton of this schema (built once).

        The automaton is fully built by its constructor and only read
        afterwards, so every query compiled against this ``Dtd`` object
        shares it.  It is cached on the object, never by schema content:
        a freshly parsed ``Dtd`` builds its own.  Racing first calls from
        two threads may each build one; both are equivalent and read-only.
        """
        if self._automaton is None:
            from repro.dtd.automaton import DtdAutomaton

            self._automaton = DtdAutomaton(self)
        return self._automaton

    def __getstate__(self) -> dict:
        # The automaton is a derived cache; workers rebuild it on demand
        # rather than receiving it over a pipe.
        state = dict(self.__dict__)
        state["_automaton"] = None
        return state

    # ------------------------------------------------------------------
    # Minimal serialized lengths (for the J table)
    # ------------------------------------------------------------------
    def minimal_element_length(self, name: str) -> int:
        """Minimal number of characters a complete ``<name>...</name>`` occupies.

        An element whose content can be empty serializes minimally as a
        bachelor tag ``<name/>`` (plus required attributes); otherwise the
        opening tag, the minimal content, and the closing tag are counted.
        """
        cached = self._min_length_cache.get(name)
        if cached is not None:
            return cached
        declaration = self.element(name)
        required_attributes = declaration.required_attribute_length()
        content_minimum = self.minimal_content_length(name)
        if content_minimum == 0:
            # "<name/>" possibly with required attributes.
            total = len(name) + 3 + required_attributes
        else:
            # "<name>" + content + "</name>".
            total = (len(name) + 2 + required_attributes) + content_minimum + (len(name) + 3)
        self._min_length_cache[name] = total
        return total

    def minimal_content_length(self, name: str) -> int:
        """Minimal serialized length of the content of element ``name``."""
        declaration = self.element(name)
        if declaration.kind in (ContentKind.EMPTY, ContentKind.PCDATA, ContentKind.ANY):
            return 0
        lengths = {
            child: self.minimal_element_length(child)
            for child in declaration.child_names()
        }
        return minimal_child_sequence(declaration.content, lengths)

    def minimal_opening_tag_length(self, name: str) -> int:
        """Minimal length of an opening tag ``<name ...>`` including attributes."""
        return len(name) + 2 + self.element(name).required_attribute_length()

    # ------------------------------------------------------------------
    # Serialization helpers
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Render the DTD back to ``<!ELEMENT>`` / ``<!ATTLIST>`` declarations."""
        lines: list[str] = []
        for name in sorted(self.elements):
            declaration = self.elements[name]
            lines.append(f"<!ELEMENT {name} {_content_text(declaration)}>")
            for attribute in declaration.attributes:
                default = attribute.default.value
                if attribute.default_value is not None and default != "#FIXED":
                    default = f'"{attribute.default_value}"'
                elif attribute.default_value is not None:
                    default = f'#FIXED "{attribute.default_value}"'
                lines.append(
                    f"<!ATTLIST {name} {attribute.name} {attribute.attribute_type} {default}>"
                )
        return "\n".join(lines)

    def to_doctype(self) -> str:
        """Render as a full ``<!DOCTYPE root [ ... ]>`` declaration."""
        return f"<!DOCTYPE {self.root_name} [\n{self.to_text()}\n]>"


def _content_text(declaration: ElementDecl) -> str:
    if declaration.kind is ContentKind.EMPTY:
        return "EMPTY"
    if declaration.kind is ContentKind.ANY:
        return "ANY"
    if declaration.kind is ContentKind.PCDATA:
        return "(#PCDATA)"
    if declaration.kind is ContentKind.MIXED:
        names = sorted(declaration.content.child_names())
        return "(#PCDATA | " + " | ".join(names) + ")*"
    text = str(declaration.content)
    if not text.startswith("("):
        text = f"({text})"
    return text


def _find_cycle(elements: Mapping[str, ElementDecl]) -> list[str] | None:
    """Depth-first search for a cycle in the element reference graph."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {name: WHITE for name in elements}
    stack: list[str] = []

    def visit(name: str) -> list[str] | None:
        colour[name] = GREY
        stack.append(name)
        for child in sorted(elements[name].child_names()):
            if child not in colour:
                continue
            if colour[child] == GREY:
                return stack[stack.index(child):] + [child]
            if colour[child] == WHITE:
                cycle = visit(child)
                if cycle:
                    return cycle
        stack.pop()
        colour[name] = BLACK
        return None

    for name in sorted(elements):
        if colour[name] == WHITE:
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def _infer_root(elements: Mapping[str, ElementDecl]) -> str:
    """Infer the root: an element that no other element references."""
    referenced: set[str] = set()
    for declaration in elements.values():
        referenced.update(declaration.child_names())
    candidates = [name for name in elements if name not in referenced]
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise DtdValidationError(
            "cannot infer the root element: every element is referenced "
            "(pass root= explicitly)"
        )
    raise DtdValidationError(
        "cannot infer the root element: candidates are "
        + ", ".join(sorted(candidates))
        + " (pass root= explicitly)"
    )


def load_dtd(text_or_elements: str | Mapping[str, ElementDecl], root: str | None = None) -> Dtd:
    """Convenience loader accepting DTD text or a declaration mapping."""
    if isinstance(text_or_elements, str):
        return Dtd.parse(text_or_elements, root=root)
    return Dtd.from_elements(text_or_elements, root=root)
