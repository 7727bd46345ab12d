"""Benchmark workloads: the operations each one runs, built from a seed.

An operation is one verification case, one ``compute`` call, one lemma
sweep or one corollary check.  Each is either a ``cli`` operation (the
argument list ``ubern.cli.main`` receives, exactly what a CLI user
types) or a ``corollary`` operation (a direct call of
``check_corollary_3_4``, which has no CLI command).  The program only
ever sees these generated lists; the grids are copied here rather than
read from ``ubern`` so that the benchmark's input cannot move with the
code it measures.
"""

from __future__ import annotations

import random

# The shipped verification grids (``ubern sweep --theorem all``): 47 cases.
GRID_3_5 = ((5, 1, 5), (5, 2, 5), (5, 1, 10), (7, 1, 7), (3, 3, 3), (3, 4, 3), (3, 5, 3), (3, 4, 9))
GRID_4_8 = tuple(range(12, 41, 2))
GRID_4_9 = tuple((m, k, 3) for k in (1, 3) for m in range(7, 17)) + tuple((m, 1, 4) for m in range(9, 13))

# Negative controls: one +1 mutation per family; each must fail with
# exactly one failure record.
CONTROLS = (("3.5", (5, 1, 5)), ("4.8", (12,)), ("4.9", (7, 1, 3)))

# Corollary 3.4 acceptance grid: (p, s range, i range).
COROLLARY_GRID = ((3, range(1, 5), range(5)), (5, range(1, 3), range(3)))

LEMMA_IDS = ("2.1", "2.2", "2.4", "2.5", "2.6", "3.2", "4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7")

# Weight of the compute-cache polynomial: p(46) = 105,558 terms, about
# 11 MB of JSONL, large enough that writing, reading and the canonical
# sort each take seconds.
COMPUTE_N = 46

WORKLOADS = {
    # What users verify.  The exact backend builds every left-hand
    # Fraction and diffs it in poly_congruent; it does almost no
    # unit-residue work, so a pruned padic path must leave it flat.
    "grid-exact": "the 47 shipped grid cases and 3 mutation controls on the exact backend: Fraction building and poly_congruent dominate",
    # The same inputs on the padic backend: enumeration and digit-sum
    # valuations dominate and only 0.41 % of the monomials need a unit
    # residue, so this is where valuation pruning and a lighter partition
    # generator show.
    "grid-padic": "the same 50 cases on the padic backend: partition enumeration and digit-sum valuations dominate",
    # A cache miss (compute and write) then a hit (read, validate, emit)
    # in two fresh processes: the only workload that writes beside reads
    # in the bernoulli layer, so moving the canonical sort or the
    # serialization cost shows here.
    "compute-cache": "compute --n 46 twice with one cache dir, a miss then a hit: coefficient building, cache write/read and JSON emit",
    # Without it the lemmas layer and the scalar padic helpers would go
    # unmeasured; its enumerations are small and bounded by degree.
    "identities": "the 13 identity sweeps, the corollary 3.4 grid and classical --n-max 30: the lemma sweeps and scalar padic helpers",
}


def _verify_argv(theorem: str, params: tuple, backend: str, perturb: bool) -> list[str]:
    names = {"3.5": ("p", "s", "l"), "4.8": ("n",), "4.9": ("m", "k", "N")}[theorem]
    argv = ["verify", "--theorem", theorem]
    for name, value in zip(names, params):
        argv += [f"--{name}", str(value)]
    argv += ["--backend", backend, "--format", "json"]
    if perturb:
        argv.append("--perturb")
    return argv


def _case_id(theorem: str, params: tuple, perturb: bool) -> str:
    kind = "control" if perturb else "verify"
    return f"{kind}/{theorem}/" + ",".join(str(v) for v in params)


def grid_cases() -> list[tuple[str, tuple]]:
    return (
        [("3.5", c) for c in GRID_3_5]
        + [("4.8", (n,)) for n in GRID_4_8]
        + [("4.9", c) for c in GRID_4_9]
    )


def _grid_ops(backend: str) -> list[dict]:
    ops = []
    for theorem, params in grid_cases():
        ops.append({"id": _case_id(theorem, params, False), "kind": "cli",
                    "argv": _verify_argv(theorem, params, backend, False)})
    for theorem, params in CONTROLS:
        ops.append({"id": _case_id(theorem, params, True), "kind": "cli",
                    "argv": _verify_argv(theorem, params, backend, True)})
    return ops


def _identity_ops() -> list[dict]:
    ops = [{"id": f"lemma/{name}", "kind": "cli", "argv": ["lemma", "--name", name, "--format", "json"]}
           for name in LEMMA_IDS]
    for p, s_range, i_range in COROLLARY_GRID:
        for s in s_range:
            for i in i_range:
                ops.append({"id": f"corollary/3.4/{p},{s},{i}", "kind": "corollary", "args": [p, s, i]})
    ops.append({"id": "classical/30", "kind": "cli", "argv": ["classical", "--n-max", "30", "--format", "json"]})
    return ops


def compute_ops(cache_dir: str) -> list[dict]:
    """The miss and the hit; each runs in its own fresh interpreter."""
    argv = ["compute", "--n", str(COMPUTE_N), "--format", "json", "--cache-dir", cache_dir]
    return [{"id": f"compute/{COMPUTE_N}/miss", "kind": "cli", "argv": argv},
            {"id": f"compute/{COMPUTE_N}/hit", "kind": "cli", "argv": argv}]


def build(workload: str, seed: int) -> list[dict]:
    """The seed permutes the operation order; the set of operations, and so
    the work done, is the same for every seed.  compute-cache has a fixed
    order (miss before hit) and is built per pass by compute_ops."""
    if workload == "grid-exact":
        ops = _grid_ops("exact")
    elif workload == "grid-padic":
        ops = _grid_ops("padic")
    elif workload == "identities":
        ops = _identity_ops()
    else:
        raise ValueError(f"workload {workload!r} has no seeded operation list")
    random.Random(seed).shuffle(ops)
    return ops
