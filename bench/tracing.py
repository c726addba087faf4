"""Per-layer timing by swapping the module-global names the layers call.

The package's layers call each other through module globals (for example
``selectors.gen_pell_selfridge`` calls ``selectors.selfridge_gen_pell`` and
``selectors.generalized_pell_test``; ``primality.generalized_pell_test``
calls ``primality.conic_pow``).  Inside ``with Tracer() as tr:`` those
names point at timing wrappers, so a scan or verdict run in this process
records a span at each layer boundary; leaving the block restores the
originals.  Spans are aggregated in memory (calls, nanoseconds, exponent
bits per span name), not stored one by one.  Worker processes are not
traced, so traced scans run with ``jobs=1``.
"""

from __future__ import annotations

import time

from pellprime import primality, search, selectors
from pellprime.primality import Verdict

LADDERS = ("lucas_pair", "tilde_pair", "conic_pow", "pow_mod")

# (module, names, span); a span name of None means "the function's own name".
_TARGETS = (
    (selectors, ("selfridge_classic", "selfridge_matrix", "selfridge_gen_pell"),
     "walk"),
    (selectors, ("jacobi",), "jacobi_walk"),
    (primality, ("jacobi",), "jacobi_test"),
    (selectors, ("lucas_test", "double_lucas_test", "matrix_test",
                 "generalized_pell_test"), "test"),
    (search, ("fermat_test", "strong_base_test", "lucas_test",
              "double_lucas_test", "matrix_test", "pell_test",
              "strong_pell_test", "strong_pell_test_param",
              "generalized_pell_test", "pell_variant_test"), "test"),
    (primality, LADDERS, None),
    (search, ("is_prime",), "oracle"),
)


class Tracer:
    """Aggregated spans: ``calls[span]``, ``ns[span]``, ``bits[span]``.

    ``short`` counts selector walks that settled the candidate themselves
    (returned a Verdict instead of parameters).
    """

    def __init__(self) -> None:
        spans = {"walk", "jacobi_walk", "jacobi_test", "test", "oracle", *LADDERS}
        self.calls = dict.fromkeys(spans, 0)
        self.ns = dict.fromkeys(spans, 0)
        self.bits = dict.fromkeys(spans, 0)
        self.short = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrapper(self, fn, span: str):
        calls, ns, bits = self.calls, self.ns, self.bits
        clock = time.perf_counter_ns
        if span in LADDERS:  # ladder(x, k, ...): record the exponent's bits
            def ladder(*args):
                t = clock()
                result = fn(*args)
                ns[span] += clock() - t
                calls[span] += 1
                bits[span] += args[1].bit_length()
                return result
            return ladder
        if span == "walk":
            def walk(n):
                t = clock()
                result = fn(n)
                ns[span] += clock() - t
                calls[span] += 1
                if isinstance(result, Verdict):
                    self.short += 1
                return result
            return walk

        def plain(*args, **kwargs):
            t = clock()
            result = fn(*args, **kwargs)
            ns[span] += clock() - t
            calls[span] += 1
            return result
        return plain

    def __enter__(self) -> "Tracer":
        for module, names, span in _TARGETS:
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrapper(original, span or name))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
