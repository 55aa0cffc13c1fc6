"""The DTD graph ``G_D`` (proof of Theorem 4.1).

``G_D`` has the element types as vertices and an edge ``(A, B)`` whenever
``B`` occurs in ``P(A)``.  Because content models cannot denote the empty
language, an edge exists exactly when some conforming ``A`` element can have
a ``B`` child, so graph reachability coincides with "some conforming tree
has a ``B`` descendant below an ``A`` node" (for terminating types).
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from repro.dtd.model import DTD


class DTDGraph:
    """Reachability and cycle structure of a DTD's dependency graph."""

    def __init__(self, dtd: DTD):
        self.dtd = dtd
        self.edges: dict[str, frozenset[str]] = {
            element_type: dtd.child_types(element_type)
            for element_type in dtd.element_types
        }

    @cached_property
    def reverse_edges(self) -> dict[str, frozenset[str]]:
        reverse: dict[str, set[str]] = {name: set() for name in self.edges}
        for source, targets in self.edges.items():
            for target in targets:
                reverse[target].add(source)
        return {name: frozenset(parents) for name, parents in reverse.items()}

    def children(self, element_type: str) -> frozenset[str]:
        return self.edges[element_type]

    def reachable_from(self, element_type: str, *, proper: bool = False) -> frozenset[str]:
        """Element types reachable from ``element_type``.

        With ``proper=True`` the start vertex is included only if it lies on
        a cycle (i.e. reachable by a non-empty path) — this matches the
        semantics of a strict-descendant step; the paper's ``↓*`` semantics
        (descendant-or-self) always includes the start and is obtained with
        the default ``proper=False``.
        """
        seen: set[str] = set()
        queue = deque(self.edges[element_type])
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(self.edges[current] - seen)
        if not proper:
            seen.add(element_type)
        return frozenset(seen)

    @cached_property
    def reachable_from_root(self) -> frozenset[str]:
        return self.reachable_from(self.dtd.root)

    def shortest_path(self, source: str, target: str) -> list[str] | None:
        """A shortest path ``source, ..., target`` in ``G_D`` (vertex list,
        including both endpoints); ``None`` if unreachable.  A zero-length
        path is returned when ``source == target``.  Children are visited
        in sorted order, so the path does not depend on the string-hash
        seed."""
        if source == target:
            return [source]
        parents: dict[str, str] = {}
        queue = deque([source])
        seen = {source}
        while queue:
            current = queue.popleft()
            for child in sorted(self.edges[current]):
                if child in seen:
                    continue
                parents[child] = current
                if child == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                seen.add(child)
                queue.append(child)
        return None

    @cached_property
    def has_cycle(self) -> bool:
        """Whether ``G_D`` has a cycle, i.e. whether the DTD is recursive.

        A depth-first search with an explicit stack, so a deep schema
        cannot exhaust the interpreter's recursion limit."""
        in_progress: set[str] = set()
        done: set[str] = set()
        for start in self.edges:
            if start in done:
                continue
            in_progress.add(start)
            stack = [(start, iter(self.edges[start]))]
            while stack:
                vertex, pending = stack[-1]
                for child in pending:
                    if child in in_progress:
                        return True
                    if child not in done:
                        in_progress.add(child)
                        stack.append((child, iter(self.edges[child])))
                        break
                else:
                    stack.pop()
                    in_progress.discard(vertex)
                    done.add(vertex)
        return False

    @cached_property
    def longest_acyclic_depth(self) -> int:
        """For nonrecursive DTDs: the maximum number of edges on any path
        from the root, i.e. the maximum document depth minus one.

        Raises ``ValueError`` on recursive DTDs (depth is unbounded).
        """
        if self.has_cycle:
            raise ValueError("recursive DTD has unbounded document depth")
        # a post-order walk with an explicit stack: a vertex's depth is set
        # once all its children have theirs, and a deep schema cannot
        # exhaust the interpreter's recursion limit
        depth: dict[str, int] = {}
        stack = [(self.dtd.root, iter(self.edges[self.dtd.root]))]
        while stack:
            vertex, pending = stack[-1]
            for child in pending:
                if child not in depth:
                    stack.append((child, iter(self.edges[child])))
                    break
            else:
                stack.pop()
                children = self.edges[vertex]
                depth[vertex] = 1 + max(depth[c] for c in children) if children else 0
        return depth[self.dtd.root]
