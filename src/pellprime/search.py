"""The method table, :data:`METHODS`, and :func:`build_test`, which turns
a method and its parameters into a per-n test.

The scan, its pool, grids and checkpoints are in :mod:`pellprime.scan`,
which loads at the first scan: the scan names this module still offers
are handed out by a module ``__getattr__``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import partial

from .conic import ConicParams
from .primality import (
    VARIANTS,
    Outcome,
    Verdict,
    double_lucas_test,
    fermat_test,
    first_congruence,
    generalized_pell_test,
    is_prime,
    lucas_test,
    matrix_test,
    pell_test,
    pell_variant_test,
    strong_base_test,
    strong_pell_test,
    strong_pell_test_param,
)
from .recurrence import LucasParams, MatrixParams
from .selectors import (
    CLASSIC,
    GEN_PELL,
    MATRIX,
    Bulk,
    double_lucas_selfridge,
    gen_pell_selfridge,
    lucas_selfridge,
    matrix_selfridge,
)

__all__ = [
    "GRID_METHODS",
    "METHODS",
    "VARIANTS",
    "ScanReport",
    "build_test",
    "grid_scan",
    "is_prime",
    "read_checkpoint",
    "scan_range",
    "write_checkpoint",
]

# pellprime.scan's names that this module hands out, loading it at the first
# use.  Only these: the import machinery asks this module for __path__ at
# each "from .search import ...", which must not load the scan.
_SCAN_NAMES = ("ScanReport", "grid_scan", "read_checkpoint", "scan_range",
               "write_checkpoint")

# ---------------------------------------------------------------------------
# method table


# One way to give a method's parameters: the names it requires, in canonical
# order; a fixed canonical string, or None for "name=value,..."; make, which
# build_test and each stripe call once with the names' values (selfridge's
# aside) to get (test(n), the form's Bulk, or None when the scan runs
# the test on every n), and which looks its test up when called, so that it
# sees the names a tracer swapped in; and the values of names that may go
# unsaid.
_Form = namedtuple("_Form", "names canonical make defaults", defaults=({},))


def _fixed(test: Callable, params: LucasParams | MatrixParams | ConicParams,
           **contract) -> tuple[Callable[[int], Verdict], Bulk | None]:
    """test with fixed parameters, and its Bulk, with the contract's fields
    where they differ from Bulk's defaults; None for the Bulk when D, Q' or
    the scale is 0, parameters for which the test rejects n by n."""
    D, _, Q, scale = first_congruence(params)
    return partial(test, params=params), (
        Bulk(D, lambda d: params, **contract) if D and Q and scale else None)


def _norm_one(test: Callable, D: int, x: int,
              y: int) -> tuple[Callable[[int], Verdict], Bulk | None]:
    """pell and strong-pell reject every n beyond |norm - 1| unless the
    base point has norm 1, and then no n shares a prime with the norm."""
    params = ConicParams(D, x, y)
    test, bulk = _fixed(test, params)
    return test, bulk if first_congruence(params)[2] == 1 else None


# build_test takes a method's first form whose names are all given.  The
# keys, in this order, are the CLI's --method choices.
METHODS: dict[str, tuple[_Form, ...]] = {
    "fermat": (_Form(("a",), None,
                     lambda a: (partial(fermat_test, a=a), None)),),
    "strong-base": (_Form(("a",), None,
                          lambda a: (partial(strong_base_test, a=a), None)),),
    "lucas": (
        _Form(("selfridge",), "selfridge",
              lambda: (lucas_selfridge, Bulk(*CLASSIC))),
        _Form(("P", "Q"), None,
              lambda P, Q: _fixed(lucas_test, LucasParams(P, Q)))),
    "double-lucas": (
        _Form(("selfridge",), "selfridge",
              lambda: (double_lucas_selfridge, Bulk(*CLASSIC))),
        _Form(("P", "Q"), None,
              lambda P, Q: _fixed(double_lucas_test, LucasParams(P, Q)))),
    "matrix": (
        _Form(("selfridge", "variant"), None, lambda variant: (
            partial(matrix_selfridge, variant=variant),
            Bulk(*MATRIX, primes_pass=variant == "v-companion")),
            {"variant": "v-companion"}),
        _Form(("P", "Q", "R", "variant"), None, lambda P, Q, R, variant: _fixed(
            partial(matrix_test, variant=variant), MatrixParams(P, Q, R),
            primes_pass=variant == "v-companion"),
            {"variant": "u-companion"})),
    "pell": (_Form(("D", "x", "y"), None,
                   lambda D, x, y: _norm_one(pell_test, D, x, y)),),
    "strong-pell": (
        _Form(("D", "a"), None, lambda D, a: (
            partial(strong_pell_test_param, D=D, a=a), None)),
        _Form(("D", "x", "y"), None,
              lambda D, x, y: _norm_one(strong_pell_test, D, x, y))),
    "gen-pell": (
        _Form(("selfridge",), "selfridge", lambda: (
            gen_pell_selfridge, Bulk(*GEN_PELL, shared=Outcome.COMPOSITE))),
        _Form(("D", "x", "y"), None, lambda D, x, y: _fixed(
            generalized_pell_test, ConicParams(D, x, y),
            shared=Outcome.COMPOSITE))),
    "pell-variant": (_Form((), "none", lambda: (pell_variant_test, None)),),
}


def _resolve(method: str, params: dict) -> tuple[_Form, list, str]:
    """The form build_test takes, its arguments and the canonical string."""
    forms = METHODS.get(method)
    if forms is None:
        raise ValueError(f"unknown method: {method!r}")
    given = {k: v for k, v in params.items() if v is not None}
    if given.pop("selfridge", False):
        given["selfridge"] = "true"
    if "variant" in given and given["variant"] not in VARIANTS:
        raise ValueError(f"unknown variant: {given['variant']!r}")
    for k in ("P", "Q", "R", "D", "x", "y", "a"):
        if k in given and (isinstance(given[k], bool)
                           or not isinstance(given[k], int)):
            raise ValueError(f"{k} must be an int, got {given[k]!r}")
    for form in forms:
        names = form.names
        values = form.defaults | given
        if not values.keys() >= set(names):
            continue
        if values.keys() - set(names):
            raise ValueError(f"method {method!r} with {list(names)} does not "
                             f"use {sorted(values.keys() - set(names))}")
        args = [values[k] for k in names if k != "selfridge"]
        return form, args, form.canonical or ",".join(
            f"{k}={values[k]}" for k in names)
    raise ValueError(f"method {method!r} needs parameters "
                     + " or ".join(str(list(f.names)) for f in forms))


def build_test(method: str,
               params: dict) -> tuple[Callable[[int], Verdict], str]:
    """Resolve (method, params) to a per-n callable and a canonical string.

    ``params`` uses the CLI vocabulary: P, Q, R, D, x, y, a, selfridge,
    variant; None, or a false selfridge, counts as not given.  The
    callable is ``test(n)``.  ``variant`` defaults to v-companion with
    selfridge and to u-companion without.  Raises ValueError for an
    unknown method or variant, a P, Q, R, D, x, y or a that is not an int
    (a bool is not taken for one), missing parameters, or one the matching
    form does not use.
    """
    form, args, canonical = _resolve(method, params)
    return form.make(*args)[0], canonical


# Methods with a form that takes P, Q[, R] and at most a variant besides:
# a grid spans those parameters.
GRID_METHODS = tuple(m for m, forms in METHODS.items() if any(
    {"P", "Q"} <= set(f.names) <= {"R", "P", "Q", "variant"} for f in forms))


def __getattr__(name: str):
    if name in _SCAN_NAMES:
        from . import scan
        return getattr(scan, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
