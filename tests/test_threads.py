"""The README promises that library operations are pure and safe to share
across threads.  A module-level memo breaks that: two threads extending
one list at once leave it holding wrong values, and every later call reads
them.  So the racing calls below are checked against sympy, and no ubern
module may hold a module-level list at all.
"""

import importlib
import pkgutil
import sys
import threading
from fractions import Fraction

import pytest

import ubern
from ubern.bernoulli import classical_bernoulli
from ubern.partitions import count_partitions

THREADS = 8
TRIALS = 12


def test_racing_calls_return_the_sympy_values():
    sympy = pytest.importorskip("sympy")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a thread switch every few bytecodes
    try:
        for trial in range(TRIALS):
            # larger on each trial than on any before, and than any other
            # test asks for, so a memo would have to grow during the race
            n = 200 + 20 * trial
            b = 70 + 2 * trial  # even: sympy's B_1 differs in sign
            q = sympy.bernoulli(b)
            want = (int(sympy.partition(n)), Fraction(int(q.p), int(q.q)))
            barrier = threading.Barrier(THREADS)
            got = [None] * THREADS

            def work(i):
                try:
                    barrier.wait(timeout=30)
                    got[i] = (count_partitions(n), classical_bernoulli(b))
                except Exception as exc:  # reported by the assert below
                    got[i] = exc

            threads = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads), trial
            assert got == [want] * THREADS, (trial, n, b)
    finally:
        sys.setswitchinterval(old)


def test_no_module_keeps_a_list():
    # a memo needs mutable module state; a list is how both old memos were kept
    held = {}
    for info in pkgutil.iter_modules(ubern.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"ubern.{info.name}")
        for name, value in vars(module).items():
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and isinstance(value, list):
                held[f"{module.__name__}.{name}"] = len(value)
    assert held == {}
