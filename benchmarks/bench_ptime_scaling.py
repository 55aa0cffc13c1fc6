"""S1 — the PTIME upper bounds as scaling series (Theorems 4.1, 6.8,
6.11(1), 6.11(2), 7.1, and the DC/DF-restrained schemas of
arXiv:1308.0769).

For each polynomial decision procedure: time it across growing inputs and
fit the apparent polynomial degree of the (size, time) series.  The paper
claims low-degree polynomials; the regenerated table reports the fits.
The ``realworld`` row times :func:`~repro.sat.realworld.sat_realworld`
on the corpus schemas (:mod:`repro.workloads.realworld`) with their
prepared contexts, as the engine calls it; the schemas are fixed, so its
sizes are query sizes.
"""

from __future__ import annotations

import time


from benchmarks.conftest import format_table
from repro.dtd import random_dtd
from repro.errors import ReproError
from repro.sat import (
    sat_conjunctive_no_dtd,
    sat_disjunction_free,
    sat_downward,
    sat_no_dtd,
    sat_sibling,
)
from repro.sat.realworld import prepare_realworld, sat_realworld
from repro.workloads import fit_polynomial_degree, random_query
from repro.workloads.realworld import realworld_schemas
from repro.xpath import fragments as frag
from repro.xpath.fragments import Fragment

CONJ_FRAGMENT = Fragment(
    "conjunctive",
    frozenset({frag.Feature.WILDCARD, frag.Feature.PARENT, frag.Feature.QUALIFIER,
               frag.Feature.DATA, frag.Feature.LABEL_TEST}),
)


def _series(rng, make_input, run, sizes):
    xs, ys = [], []
    for parameter in sizes:
        inputs = [make_input(parameter) for _ in range(8)]
        start = time.perf_counter()
        for item in inputs:
            run(item)
        elapsed = (time.perf_counter() - start) / len(inputs)
        xs.append(sum(_input_size(i) for i in inputs) / len(inputs))
        ys.append(max(elapsed, 1e-7))
    return xs, ys


def _input_size(item) -> float:
    query, dtd = item
    return query.size() + (dtd.size() if dtd is not None else 0)


def _sized_query(rng, fragment, target_size: int, labels=("A", "B", "C")):
    """A query of roughly ``target_size`` AST nodes: grow by composing
    random depth-2 pieces until the target is reached."""
    from repro.xpath import ast

    labels = list(labels)
    query = random_query(rng, fragment, labels, max_depth=2)
    while query.size() < target_size:
        piece = random_query(rng, fragment, labels, max_depth=1)
        query = ast.Seq(query, piece)
    return query


def _realworld_series(rng, sizes=(8, 16, 32, 64), per_schema=8):
    """``(query sizes, seconds per decision)`` of ``sat_realworld`` over
    ``per_schema`` queries per corpus schema and size, each schema's
    context prepared once; a query the decider declines (a budget trip)
    is redrawn."""
    schemas = realworld_schemas()
    contexts = {name: prepare_realworld(dtd) for name, dtd in schemas.items()}
    xs, ys = [], []
    for size in sizes:
        items = []
        for name, dtd in sorted(schemas.items()):
            drawn = 0
            while drawn < per_schema:
                query = _sized_query(
                    rng, frag.DOWNWARD_QUAL, size, sorted(dtd.element_types)
                )
                try:
                    sat_realworld(query, dtd, contexts[name])
                except ReproError:
                    continue
                items.append((query, dtd, contexts[name]))
                drawn += 1
        start = time.perf_counter()
        for query, dtd, context in items:
            sat_realworld(query, dtd, context)
        ys.append(max((time.perf_counter() - start) / len(items), 1e-7))
        xs.append(sum(query.size() for query, _d, _c in items) / len(items))
    return xs, ys


def test_thm41_downward(benchmark, rng):
    dtd = random_dtd(rng, n_types=8)
    query = random_query(rng, frag.DOWNWARD, sorted(dtd.element_types), max_depth=3)
    benchmark(lambda: sat_downward(query, dtd))


def test_thm6111_no_dtd(benchmark, rng):
    query = random_query(rng, frag.DOWNWARD_QUAL, ["A", "B", "C"], max_depth=3)
    benchmark(lambda: sat_no_dtd(query))


def test_ptime_report(report, rng, benchmark):
    def build():
        rows = []
        series_specs = [
            (
                "Thm 4.1  X(child,dos,union)",
                lambda p: (
                    random_query(
                        rng, frag.DOWNWARD,
                        sorted(random_dtd(rng, n_types=p).element_types), max_depth=3
                    ),
                    random_dtd(rng, n_types=p),
                ),
                lambda item: sat_downward(*item),
                (4, 8, 16, 32),
            ),
            (
                "Thm 6.11(1) no DTD",
                lambda p: (
                    _sized_query(rng, frag.DOWNWARD_QUAL, p),
                    None,
                ),
                lambda item: sat_no_dtd(item[0]),
                (8, 16, 32, 64),
            ),
            (
                "Thm 6.11(2) conjunctive",
                lambda p: (
                    _sized_query(rng, CONJ_FRAGMENT, p),
                    None,
                ),
                lambda item: sat_conjunctive_no_dtd(item[0]),
                (8, 16, 32, 64),
            ),
            (
                "Thm 7.1  X(rs,ls)",
                lambda p: (
                    random_query(
                        rng, frag.SIBLING,
                        sorted(random_dtd(rng, n_types=p).element_types), max_depth=3
                    ),
                    random_dtd(rng, n_types=p),
                ),
                lambda item: sat_sibling(*item),
                (4, 8, 16, 32),
            ),
        ]
        for name, make_input, run, sizes in series_specs:
            xs, ys = _series(rng, make_input, run, sizes)
            degree = fit_polynomial_degree(xs, ys)
            rows.append([
                name,
                " ".join(f"{x:.0f}" for x in xs),
                " ".join(f"{y * 1e6:.0f}" for y in ys),
                f"{degree:.2f}",
            ])
            assert degree < 4.0, name
        # disjunction-free PTIME (Thm 6.8)
        xs, ys = [], []
        for n_types in (4, 8, 16, 32):
            dtd = random_dtd(rng, n_types=n_types, allow_union=False)
            queries = []
            while len(queries) < 8:
                q = random_query(rng, frag.DOWNWARD_QUAL,
                                 sorted(dtd.element_types), max_depth=2)
                if frag.Feature.LABEL_TEST not in frag.features_of(q):
                    queries.append(q)
            start = time.perf_counter()
            for q in queries:
                sat_disjunction_free(q, dtd)
            ys.append(max((time.perf_counter() - start) / len(queries), 1e-7))
            xs.append(dtd.size())
        degree = fit_polynomial_degree(xs, ys)
        rows.append([
            "Thm 6.8  disjunction-free",
            " ".join(f"{x:.0f}" for x in xs),
            " ".join(f"{y * 1e6:.0f}" for y in ys),
            f"{degree:.2f}",
        ])
        assert degree < 4.0
        xs, ys = _realworld_series(rng)
        degree = fit_polynomial_degree(xs, ys)
        rows.append([
            "arXiv:1308.0769 realworld (DC/DF)",
            " ".join(f"{x:.0f}" for x in xs),
            " ".join(f"{y * 1e6:.0f}" for y in ys),
            f"{degree:.2f}",
        ])
        assert degree < 4.0, "realworld"
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table = format_table(
        ["procedure", "input sizes", "mean us per decision", "fitted degree"],
        rows,
    )
    report("s1_ptime_scaling", table)
