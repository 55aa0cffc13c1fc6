"""Random DTD generation for workloads and property tests.

The generator guarantees every element type terminates, the paper's
standing assumption (Section 2.1).  It does not make every type reachable
from the root: each type draws its children at random, and a type no
reachable type draws is declared but can occur in no conforming tree.
Over seeds 0–199 with ``n_types=12``, 44% of the generated types are
unreachable, and the two 48-type schemas of the pooled EXPTIME workload
(seeds 11 and 12) reach 26 and 24 types.  Shape knobs control the
Section 6 classes: pass ``allow_union=False`` for disjunction-free DTDs,
``allow_recursion=False`` for nonrecursive ones, ``allow_star=False`` for
no-star ones.
"""

from __future__ import annotations

import random

from repro.dtd.model import DTD
from repro.dtd.properties import terminating_types
from repro.regex import ast as rx


def random_dtd(
    rng: random.Random | None = None,
    n_types: int = 6,
    max_parts: int = 3,
    allow_union: bool = True,
    allow_star: bool = True,
    allow_recursion: bool = True,
    attribute_names: tuple[str, ...] = (),
    attr_probability: float = 0.5,
) -> DTD:
    """Generate a random well-formed DTD with ``n_types`` element types.

    Types are named ``r, E1, E2, ...``; the dependency structure is layered
    (type ``i`` references types ``> i``) unless ``allow_recursion``, in
    which case back-edges are added and termination is re-established by
    wrapping offending back-references in ``?``/``*``.
    """
    rng = rng or random.Random()
    names = ["r"] + [f"E{i}" for i in range(1, n_types)]
    productions: dict[str, rx.Regex] = {}

    for index, name in enumerate(names):
        later = names[index + 1:]
        if not later:
            productions[name] = rx.Epsilon()
            continue
        n_parts = rng.randint(1, max_parts)
        parts: list[rx.Regex] = []
        for _ in range(n_parts):
            target_pool = later
            if allow_recursion and rng.random() < 0.25:
                target_pool = names  # may create a cycle
            target = rx.sym(rng.choice(target_pool))
            roll = rng.random()
            part: rx.Regex = target
            if allow_star and roll < 0.3:
                part = rx.star(target)
            elif allow_union and roll < 0.5:
                # e? counts as disjunction (e + ε), so it needs allow_union
                part = rx.Optional(target)
            parts.append(part)
        if allow_union and len(parts) >= 2 and rng.random() < 0.4:
            productions[name] = rx.union(*parts)
        else:
            productions[name] = rx.concat(*parts) if len(parts) > 1 else parts[0]

    dtd = _repair_termination(
        names, productions, allow_union=allow_union, allow_star=allow_star
    )

    attributes: dict[str, frozenset[str]] = {}
    if attribute_names:
        for name in names:
            chosen = frozenset(
                attr for attr in attribute_names if rng.random() < attr_probability
            )
            if chosen:
                attributes[name] = chosen
    return DTD(root="r", productions=dtd.productions, attributes=attributes)


def _repair_termination(
    names: list[str],
    productions: dict[str, rx.Regex],
    allow_union: bool = True,
    allow_star: bool = True,
) -> DTD:
    """Make every type terminating by weakening offending references.

    Non-terminating types have some reference chain that can never bottom
    out; wrapping every reference to a non-terminating type in ``?`` (or
    ``*``, or dropping it, depending on which constructs are allowed)
    makes the empty choice available, which terminates everything while
    keeping the overall shape.
    """
    candidate = DTD(root=names[0], productions=productions)
    bad = candidate.element_types - terminating_types(candidate)
    if not bad:
        return candidate

    def soften(symbol: rx.Regex) -> rx.Regex:
        if allow_union:
            return rx.Optional(symbol)
        if allow_star:
            return rx.star(symbol)
        return rx.Epsilon()

    def weaken(node: rx.Regex) -> rx.Regex:
        if isinstance(node, rx.Symbol) and node.name in bad:
            return soften(node)
        if isinstance(node, rx.Concat):
            return rx.concat(*[weaken(part) for part in node.parts])
        if isinstance(node, rx.Union):
            return rx.union(*[weaken(part) for part in node.parts])
        if isinstance(node, rx.Star):
            return rx.star(weaken(node.inner))
        if isinstance(node, rx.Optional):
            inner = weaken(node.inner)
            return inner if isinstance(inner, (rx.Optional, rx.Star)) else rx.Optional(inner)
        return node

    repaired = {name: weaken(production) for name, production in productions.items()}
    result = DTD(root=names[0], productions=repaired)
    missing = result.element_types - terminating_types(result)
    if missing:
        # pathological corner: give the offenders empty productions
        final = dict(repaired)
        for name in missing:
            final[name] = rx.Epsilon()
        result = DTD(root=names[0], productions=final)
    return result
