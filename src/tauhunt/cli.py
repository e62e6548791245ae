"""Command-line frontend: every verb reads arguments, runs the library,
and prints one deterministic JSON document to stdout.

A verb imports the layers it calls inside its own branch, so a process
loads only those: verify-tables reaches curves and catalog, tau only
newform, and none of them loads the Thue layer.  admissible hands the
target as written to lehmer.check_admissibility, and reproduce calls
lehmer.reproduce: lehmer owns the target grammar and the theorem sweep.

Exit codes: 0 success, 1 domain error (bad mathematical input), 2 usage
error.  Output is byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import sys
import tempfile
from functools import lru_cache
from typing import TYPE_CHECKING

from . import bounds
from .arith import DomainError, is_prime

if TYPE_CHECKING:
    from .newform import NewformSpec
    from .thue import ThueForm

# encoder chunks joined into one write
_EMIT_BATCH = 1 << 12
# bytes of a document held in memory before it is spooled to disk
_EMIT_IN_MEMORY = 1 << 20


def _emit(obj, out_path: str | None) -> None:
    """Write obj as indented JSON to out_path, if given, and to stdout.

    The encoder's chunks go in batches to a spooled temporary file, held
    in memory up to _EMIT_IN_MEMORY bytes and moved to an unnamed file on
    disk past that (tau's 3 MB document), so a long text is never held
    whole.  They are copied out once encoding has finished: an integer
    too long for str() or an out_path that cannot be opened raises before
    anything is written.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    with tempfile.SpooledTemporaryFile(_EMIT_IN_MEMORY, "w+") as spool:
        try:
            while batch := "".join(itertools.islice(chunks, _EMIT_BATCH)):
                spool.write(batch)
        except ValueError:  # json writes ints with str(), which has this digit limit
            raise DomainError(
                f"the result holds an integer of more than {sys.get_int_max_str_digits()} digits"
            ) from None
        spool.write("\n")
        if out_path:
            with open(out_path, "w") as fh:
                spool.seek(0)
                shutil.copyfileobj(spool, fh)
        spool.seek(0)
        shutil.copyfileobj(spool, sys.stdout)


def _load_form(args) -> NewformSpec:
    from . import newform
    if getattr(args, "spec", None):
        with open(args.spec, "rb") as fh:  # json.loads finds the encoding of the bytes
            return newform.NewformSpec.from_json(fh.read())
    return newform.delta_newform(1000)


def _bounds_from(args) -> bounds.SearchBounds:
    return bounds.SearchBounds(x_max=args.xmax, x_small=args.x_small, x_mid=args.x_mid)


_DEFAULT_BOUNDS = bounds.SearchBounds()


def _add_curve_bound(p):
    p.add_argument("--xmax", type=int, default=_DEFAULT_BOUNDS.x_max,
                   help="curve search bound on |x|")


def _add_thue_bounds(p):
    p.add_argument("--x-small", type=int, default=_DEFAULT_BOUNDS.x_small, dest="x_small",
                   help="exhaustive Thue bound on |x|")
    p.add_argument("--x-mid", type=int, default=_DEFAULT_BOUNDS.x_mid, dest="x_mid",
                   help="convergent-pruned Thue bound on |x|")


def _add_bounds(p):
    _add_curve_bound(p)
    _add_thue_bounds(p)


def _add_form(p):
    p.add_argument("--spec", help="path to a newform JSON description")


@lru_cache(maxsize=1)  # parse_args leaves the parser unchanged; built once per process
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tauhunt",
        description="Exact newform coefficients, Lucas defects, and bounded "
        "Diophantine searches deciding whether +-ell^m can be a coefficient.",
    )
    ap.add_argument("--out", help="also write the JSON report to this path")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("tau", help="discriminant-form coefficients tau(1..N)")
    p.add_argument("--up-to", type=int, required=True, dest="up_to")

    p = sub.add_parser("coeff", help="a_f(n) for a built-in or user form")
    _add_form(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lucas", help="Lucas terms, ranks, and defect classification")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--ell", type=int)

    p = sub.add_parser("thue-gen", help="coefficients of F_2m or a reduced form")
    p.add_argument("--m", type=int)
    p.add_argument("--reduced-p", type=int, dest="reduced_p")

    p = sub.add_parser("thue-solve", help="bounded Thue solving")
    p.add_argument("--m", type=int)
    p.add_argument("--reduced-p", type=int, dest="reduced_p")
    p.add_argument("--rhs", type=int, required=True)
    _add_thue_bounds(p)

    p = sub.add_parser("curve-search", help="integer points on Y^2 = f(X)")
    p.add_argument("--family", choices=["C", "H"], required=True)
    p.add_argument("--d", type=int, required=True,
                   help="C: exponent is 2d-1; H: exponent is 2d")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    p.add_argument("--m", type=int, default=1)
    _add_curve_bound(p)

    p = sub.add_parser("verify-tables", help="replay the point catalogs")
    _add_curve_bound(p)

    p = sub.add_parser("admissible", help="can sign*ell^m be a coefficient?")
    _add_form(p)
    p.add_argument("--target", type=int, required=True)
    _add_bounds(p)

    p = sub.add_parser("omega-bound", help="lower bound on Omega(a_f(n))")
    _add_form(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("decompose", help="split an odd target by multiplicativity")
    _add_form(p)
    p.add_argument("--target", type=int, required=True)

    p = sub.add_parser("weight-bound", help="weight-aspect exclusion constants")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sign", choices=["plus", "minus"], required=True)
    p.add_argument("--pre-rounding", action="store_true", dest="pre_rounding")

    p = sub.add_parser("reproduce", help="re-run a headline exclusion sweep")
    p.add_argument("what", choices=["thm1.2"])
    _add_bounds(p)

    return ap


def _run(args) -> dict | tuple:
    verb = args.verb
    if verb == "tau":
        from . import newform
        return newform.delta_expansion(args.up_to)
    if verb == "coeff":
        from . import newform
        spec = _load_form(args)
        return {"form": spec.name or "custom", "n": args.n,
                "coefficient": newform.coeff(spec, args.n)}
    if verb == "lucas":
        from . import lucas
        pair = lucas.LucasPair(args.a, args.b)
        modular = pair.satisfies_modularity
        out = {
            "A": args.a,
            "B": args.b,
            "terms": lucas.lucas_terms(pair, args.count),
            "discriminant": pair.discriminant,
            "satisfies_modularity_shape": modular,
        }
        if modular:
            out["defects"] = lucas.classify_defects(pair)
        if args.ell is not None:
            rank, reason = lucas.rank_of_apparition(pair, args.ell)
            out["rank_of_apparition"] = {"ell": args.ell, "rank": rank, "reason": reason}
        return out
    if verb in ("thue-gen", "thue-solve"):
        from . import thue
        form = _pick_form(args)
        if verb == "thue-gen":
            name, coeffs = ((form.name, form.coeffs) if args.m is None
                            else (f"F_{form.n - 1}", thue.unreduced_coeffs(form)))
            return {"form": name, "degree": form.degree, "coeffs_by_x_power": list(coeffs)}
        solve = thue.solve_bounded if args.m is None else thue.solve_unreduced
        return dict(solve(form, args.rhs, args.x_small, args.x_mid).to_dict(),
                    bounds={"x_small": args.x_small, "x_mid": args.x_mid})
    if verb == "curve-search":
        from . import curves
        w = 2 * args.d - 1 if args.family == "C" else args.d
        spec = curves.CurveSpec(args.family, w, args.ell, 1 if args.sign == "plus" else -1,
                                args.m)
        return curves.search_points(spec, args.xmax).to_dict()
    if verb == "verify-tables":
        from . import curves
        return curves.verify_tables(args.xmax)
    if verb == "admissible":
        from . import lehmer
        return lehmer.check_admissibility(_load_form(args), args.target, _bounds_from(args))
    if verb == "omega-bound":
        from . import lehmer
        spec = _load_form(args)
        return {"form": spec.name or "custom", "n": args.n,
                "omega_lower_bound": lehmer.omega_lower_bound(spec, args.n)}
    if verb == "decompose":
        from . import lehmer
        spec = _load_form(args)
        return lehmer.decompose_odd_target(spec, args.target)
    if verb == "weight-bound":
        sign = 1 if args.sign == "plus" else -1
        return bounds.weight_bound_M(sign, args.ell, args.m, args.pre_rounding)
    if verb == "reproduce":
        from . import lehmer
        return lehmer.reproduce(_load_form(args), _bounds_from(args))
    raise DomainError(f"unknown verb {verb}")  # pragma: no cover


def _pick_form(args) -> ThueForm:
    """Fhat_p for --reduced-p p, or Fhat_(2m+1), which gives F_2m, for --m m."""
    from . import thue
    if (args.m is None) == (args.reduced_p is None):
        raise DomainError("give exactly one of --m or --reduced-p")
    if args.m is not None and args.m < 1:
        raise DomainError("F_{2m} needs n = 2m + 1 with m >= 1")
    if args.m is None and (args.reduced_p < 3 or not is_prime(args.reduced_p)):
        raise DomainError("p must be an odd prime")
    return thue.build_reduced_form(args.reduced_p if args.m is None else 2 * args.m + 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(_run(args), args.out)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
