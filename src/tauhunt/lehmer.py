"""The decision pipeline: which n could have |a_f(n)| = ell^m?

For a newform with integer coefficients, even weight 2k >= 4 and even
Hecke eigenvalues away from 2N, such a coefficient forces n = m0 p^(d-1)
with m0 in the unit set, p prime not dividing N, and d an odd prime
dividing ell(ell^2 - 1).  Each admissible d turns into one concrete
Diophantine condition:

    d = 3   (p, a_f(p))                on  Y^2 = X^(2k-1) + alpha
    d = 5   (p, 2 a_f(p)^2 - 3 p^(2k-1)) on Y^2 = 5 X^(2(2k-1)) + 4 alpha
    d >= 7  (p^(2k-1), a_f(p)^2)       solves F_{d-1}(X, Y) = alpha

with alpha = sign * ell^m.  Every Thue condition is solved as
Fhat_d(X, Z) = alpha and mapped back by Y = Z + 2X, exact as
F_{d-1}(X, Y) = Fhat_d(X, Y - 2X) (thue.solve_unreduced).

enumerate_conditions is the one branch on d: it gives each condition
its equation text, its search problem, a CurveSpec(family, w, ell,
sign, m) or Fhat_d, and its closing call, curves.close (the curve holds
the target) or thue.close bound to the target.  The problem is built on
enumeration, so a form over the degree ceiling is refused before any
search; d = ell is always a condition, so an Fhat_ell over the ceiling
is refused before ell(ell^2 - 1) is factored.  check_admissibility
takes the signed target as written, splits it into (sign, ell, m) or
refuses it, finds the unit set once and takes every condition down one
path to the tauhunt-admissibility/1 document that admissible prints;
reproduce runs it over THEOREM_TARGETS and projects the
tauhunt-reproduction/1 document that reproduce prints.  _verdict
closes the condition within the bounds (its points, the bound proven_to
below which every point is found, its certificate and catalog row),
takes the row's outcome up to proven_to from catalog.judge and hands
every point to _dispose, which recovers p and the possible |a_f(p)|
behind it and checks each against the Deligne bound, the stored a_f(p)
and the trivial-mod-2 parity.  The unit set and those checks read only
spec.ap, never Delta's tau(p) past it.  Both facts about the Lucas pair
(a_f(p), p^(w-1)) are computed, not listed: unit_set finds the units
a_f(2^e), and achievable_ranks the ranks of apparition that the
congruences of tau (TAU_CONGRUENCES) allow, which prune the conditions
of the built-in discriminant form.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import partial

from . import catalog, curves, thue
from .arith import (
    BHV_BOUND,
    DomainError,
    factor,
    frozen_record,
    is_perfect_square,
    is_prime,
    lucas_ladder,
    prime_power_root,
)
from .bounds import SearchBounds
from .newform import NewformSpec, eigenvalue

__all__ = ["unit_set", "DiophantineCondition", "enumerate_conditions", "achievable_ranks",
           "check_admissibility", "reproduce", "omega_lower_bound", "decompose_odd_target",
           "THEOREM_TARGETS"]

# decompose_odd_target refuses a target with more scenarios than this.
# The costliest accepted targets, such as the product of the first 14 odd
# primes (8,192 scenarios of 14 blocks each), take the CLI 0.7-1.3 s and
# 43 MiB on a 2-vCPU Xeon; 3^24 (47,156 scenarios) would take 4.5 s and
# 160 MiB.
_DECOMPOSE_BUDGET = 10_000

# the unconditional exclusion list for the discriminant form
THEOREM_TARGETS = (
    1, -1, 3, -3, 5, -5, 7, -7, 13, -13, 17, -17, -19, 23, -23, 37, -37, 691, -691,
)

# the classical congruences tau(p) = p^a + p^b (mod ell), p != ell, as ell: (a, b)
TAU_CONGRUENCES = {3: (2, 3), 5: (1, 2), 7: (1, 4), 691: (0, 11)}


def unit_set(spec: NewformSpec) -> tuple[int, ...]:
    """The n with |a_f(n)| = 1 under the unit classification, for a spec
    whose trivial-mod-2 flag and stored parities are checked here: 1 and
    each 2^e with |U_(e+1)| = 1, a_f(2^e) = U_(e+1) of (a, B = 2^(w-1)), a
    the stored a_f(2) at an odd level.  An even a makes every U_(e+1)
    even; an odd a gives a Lucas pair, whose U_(e+1) holds a primitive
    prime past e = BHV_BOUND - 1.  As U_(e+1) = a^e - (e - 1) a^(e-2) B
    (mod B^2), |U_(e+1)| = 1 at e >= 2 needs B | a^e -+ 1 != 0 or
    B | e - 1: no B above |a|^(BHV_BOUND - 1) + BHV_BOUND is built."""
    if not spec.trivial_mod2:
        raise DomainError("unit classification needs the trivial-mod-2 flag")
    _check_even_eigenvalues(spec)
    a = spec.ap.get(2, 0) if spec.level % 2 else 0
    if a % 2 == 0 or (abs(a) ** (BHV_BOUND - 1) + BHV_BOUND).bit_length() < spec.weight:
        return (1, 2) if abs(a) == 1 else (1,)
    B = spec.norm(2)
    return (1,) + tuple(2**e for e in range(1, BHV_BOUND) if abs(lucas_ladder(e, a, B)[1]) == 1)


def _check_even_eigenvalues(spec: NewformSpec) -> None:
    """The trivial-mod-2 flag is trusted only when every stored a_f(p),
    p not dividing 2N, is even (NewformSpec.odd_eigenvalues, found once
    per spec)."""
    odd = spec.odd_eigenvalues
    if odd:
        listed = ", ".join(f"a_f({p}) = {spec.ap[p]}" for p in odd)
        raise DomainError(f"trivial_mod2 is set but {listed} is odd")


@frozen_record
class DiophantineCondition:
    d: int
    kind: str  # "curve-C" | "curve-H" | "thue"
    equation: str
    problem: curves.CurveSpec | thue.ThueForm  # the curve, or Fhat_d for "thue"
    close: Callable  # close(problem, bounds): curves.close, or thue.close bound to the target


def enumerate_conditions(
    spec: NewformSpec, ell: int, m: int, sign: int
) -> list[DiophantineCondition]:
    """One condition per odd prime d | ell(ell^2 - 1), sorted by d, each
    with its equation, its search problem and its closing call.  The
    d = 3 curve, a condition at every ell, is built first, and refuses a
    sign, ell or m out of range; then Fhat_ell, so a Fhat_d over the
    degree ceiling is refused before the factoring: every other d divides
    ell^2 - 1 and so is at most (ell + 1)/2, below ell."""
    w = spec.weight - 1
    curve_c = curves.CurveSpec("C", w, ell, sign, m)
    if ell > 5:
        thue.build_reduced_form(ell)  # refuses an Fhat_ell over the ceiling
    alpha = curve_c.constant
    out = []
    for d in (p for p, _ in factor(ell * (ell * ell - 1)) if p > 2):
        if d == 3:
            cond = ("curve-C", f"Y^2 = X^{w} + ({alpha})", curve_c, curves.close)
        elif d == 5:
            cond = ("curve-H", f"Y^2 = 5*X^{2 * w} + ({4 * alpha})",
                    curves.CurveSpec("H", w, ell, sign, m), curves.close)
        else:
            cond = ("thue", f"F_{d - 1}(X, Y) = {alpha}", thue.build_reduced_form(d),
                    partial(thue.close, rhs=alpha))
        out.append(DiophantineCondition(d, *cond))
    return out


def achievable_ranks(ell: int) -> set[int]:
    """Every rank over the primes p != ell: the first n with
    ell | tau(p^n) = u_(n+1) of the pair (tau(p), p^11).  Mod ell its
    roots are p^a and p^b (TAU_CONGRUENCES; p^(a+b) = p^11), so
    u_(n+1) = p^(an) (1 + r + ... + r^n), r = p^(b-a), and n + 1 is ord(r),
    or ell when r = 1; as p runs over the primes, r runs over the
    subgroup of order h = (ell - 1)/gcd(ell - 1, b - a)."""
    if ell not in TAU_CONGRUENCES:
        raise DomainError("congruence filters exist only for ell in {3, 5, 7, 691}")
    a, b = TAU_CONGRUENCES[ell]
    h = (ell - 1) // math.gcd(ell - 1, b - a)
    return {d - 1 for d in range(2, h + 1) if h % d == 0} | {ell - 1}


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def _condition(cond: DiophantineCondition, mode: str, source: str, grh: bool,
               hits, dispositions: list, certificate: dict) -> dict:
    """One entry of the report's conditions list.  mode is
    "fixture+search", "search" or "congruence-excluded"."""
    return {"d": cond.d, "kind": cond.kind, "equation": cond.equation, "mode": mode,
            "source": source, "grh_conditional": grh, "raw_hits": [list(h) for h in hits],
            "dispositions": dispositions, "certificate": certificate}


def _dispose(spec: NewformSpec, cond: DiophantineCondition, units: tuple[int, ...],
             x: int, y: int) -> dict:
    """Recover p and the possible |a_f(p)| behind one point, then test
    each magnitude against the Deligne bound, the stored a_f(p) and the
    trivial-mod-2 parity, an even a_f(p) at every odd p not dividing the
    level (unit_set has refused a spec without the flag); a candidate
    predicts each m0 p^(d-1), m0 in units.  The points are (p, |a|) on
    C, (+-p, +-(2a^2 - 3p^w)) on H and (p^w, a^2) for Thue, w = 2k - 1."""
    w = spec.weight - 1

    def filtered(reason: str) -> dict:
        return {"point": [x, y], "status": "filtered", "reason": reason}

    if cond.kind == "thue":
        p = prime_power_root(x, w)
        if p is None:
            return filtered(f"X must equal p^{w} for a prime p" if x < 2
                            else f"X is not a prime power p^{w}")
    else:
        p = abs(x) if cond.kind == "curve-H" else x
        if p < 2 or not is_prime(p):
            return filtered("X is not a positive prime")
    if spec.level % p == 0:
        return filtered("p divides the level")
    B = p**w
    if cond.kind == "curve-C":
        magnitudes = [y]
    elif cond.kind == "curve-H":
        # a^2 = (3B +- Y) / 2
        halves = [3 * B + s * y for s in (1, -1)]
        magnitudes = [is_perfect_square(h // 2) for h in halves if h % 2 == 0]
        magnitudes = [a for a in magnitudes if a is not None]
        if not magnitudes:
            return filtered("no integer a_f(p) with 2a^2 - 3p^(2k-1) = +-Y")
    else:
        if y < 0:
            return filtered("Y = a_f(p)^2 must be nonnegative")
        a = is_perfect_square(y)
        if a is None:
            return filtered("Y = a_f(p)^2 must be a perfect square")
        magnitudes = [a]
    ok, faults = [], []
    for a in magnitudes:
        if a * a > 4 * B:
            faults.append("Deligne bound violated (non-modular point)")
        elif p in spec.ap and abs(spec.ap[p]) != a:
            faults.append(f"stored a_f({p}) = {spec.ap[p]} differs from +-{a}")
        elif p != 2 and a % 2 == 1:
            faults.append("a_f(p) must be even (trivial mod 2)")
        else:
            ok.append(a)
    if not ok:
        return filtered(faults[0])
    return {
        "point": [x, y],
        "status": "candidate",
        "p": p,
        "eigenvalue_magnitudes": sorted(ok),
        "predicted_n": [m0 * p ** (cond.d - 1) for m0 in units if math.gcd(m0, p) == 1],
    }


def _verdict(spec: NewformSpec, cond: DiophantineCondition, units: tuple[int, ...],
             bounds: SearchBounds) -> dict:
    """Close the condition, judge the closure's catalog row (if any)
    against its points up to proven_to, below which every point is found,
    and dispose of every point."""
    closure = cond.close(cond.problem, bounds)
    hits, cert, row = closure["points"], closure["certificate"], closure["row"]
    mode, source, grh = "search", closure["source"], False
    if row is not None:
        outcome, mismatch, _ = catalog.judge(row, hits, closure["proven_to"])
        if mismatch is not None:
            cert["catalog_discrepancy"] = mismatch
        elif outcome != "unknown":
            mode, source, grh = "fixture+search", row["source"], outcome == "conditional-grh"
    disp = [_dispose(spec, cond, units, x, y) for x, y in hits]
    return _condition(cond, mode, source, grh, hits, disp, cert)


def _prime_power_target(target: int) -> tuple[int, int, int]:
    """target = sign * ell^m with ell an odd prime; returns (sign, ell, m)."""
    if target == 0 or target % 2 == 0:
        raise DomainError("target must be a nonzero odd integer")
    sign = 1 if target > 0 else -1
    if abs(target) == 1:
        raise DomainError("units +-1 are classified by the unit set, not searched")
    pairs = factor(target)
    if len(pairs) != 1:
        raise DomainError(
            f"{target} is not a prime power; run 'decompose' to split it into sub-targets"
        )
    (ell, m), = pairs
    return sign, ell, m


def check_admissibility(spec: NewformSpec, target: int,
                        bounds: SearchBounds = SearchBounds()) -> dict:
    """The tauhunt-admissibility/1 document of target = sign * ell^m.

    _prime_power_target first refuses a target that is even, a unit or
    not a prime power.  unit_set, called once, then refuses a spec
    without the trivial-mod-2 flag or with an odd stored a_f(p), p not
    dividing 2N, and feeds the report and every predicted_n.  For the
    built-in discriminant form a condition whose d - 1 is not in
    achievable_ranks(ell) is congruence-excluded; every other condition
    is searched within the bounds and carries its certificate.
    """
    sign, ell, m = _prime_power_target(target)
    units = unit_set(spec)
    ranks = achievable_ranks(ell) if spec.is_delta and ell in TAU_CONGRUENCES else None
    conditions = []
    for cond in enumerate_conditions(spec, ell, m, sign):
        if ranks is not None and cond.d - 1 not in ranks:
            conditions.append(_condition(
                cond, "congruence-excluded",
                f"rank of apparition of {ell} in the tau congruences is never {cond.d - 1}",
                False, (), [], {"achievable_ranks": sorted(ranks)}))
            continue
        verdict = _verdict(spec, cond, units, bounds)
        if ranks is not None:
            verdict["certificate"]["congruence_rank_possible"] = True
        conditions.append(verdict)
    found = any(d["status"] == "candidate" for c in conditions for d in c["dispositions"])
    return {
        "schema": "tauhunt-admissibility/1",
        "form": spec.name or f"weight-{spec.weight} level-{spec.level}",
        "target": target,
        "ell": ell,
        "m": m,
        "sign": sign,
        "status": "CANDIDATES_FOUND" if found else "EXCLUDED_WITHIN_BOUNDS",
        "grh_conditional": any(c["grh_conditional"] for c in conditions),
        "unit_set": list(units),
        "bounds": bounds.to_dict(),
        "conditions": conditions,
    }


def reproduce(spec: NewformSpec, bounds: SearchBounds) -> dict:
    """The tauhunt-reproduction/1 document of THEOREM_TARGETS: the units
    +-1 are excluded by the unit set, and every other target gets one
    row projected from its check_admissibility report."""
    rows = []
    for target in THEOREM_TARGETS:
        if abs(target) == 1:
            rows.append({"target": target, "status": "EXCLUDED_WITHIN_BOUNDS",
                         "method": "unit classification: |a_f(n)| = 1 only for n in the unit set",
                         "unit_set": list(unit_set(spec))})
            continue
        rep = check_admissibility(spec, target, bounds)
        conditions = [{"d": c["d"], "mode": c["mode"], "source": c["source"],
                       "raw_hits": len(c["raw_hits"]),
                       "candidates": sum(d["status"] == "candidate" for d in c["dispositions"])}
                      for c in rep["conditions"]]
        rows.append({"target": target, "status": rep["status"],
                     "grh_conditional": rep["grh_conditional"], "conditions": conditions})
    return {
        "schema": "tauhunt-reproduction/1",
        "claim": "the discriminant form never takes these values at n > 1",
        "bounds": bounds.to_dict(),
        "targets": rows,
        "all_excluded_within_bounds": all(r["status"] == "EXCLUDED_WITHIN_BOUNDS" for r in rows),
    }


# ---------------------------------------------------------------------------
# Omega lower bound and odd-target decomposition
# ---------------------------------------------------------------------------


def omega_lower_bound(spec: NewformSpec, n: int) -> int:
    """Lower bound for Omega(a_f(n)) from the Lucas structure.

    Bad primes contribute (k-1) ord_p(n), and refuse a_f(n) = 0 when
    their square divides N.  A good prime p refuses it too when its stored
    a_f(p) makes a_f(p^e) = 0 (_vanishes); only spec.ap is read there, so
    no tau list is built.  With the trivial-mod-2 flag,
    odd good primes exactly dividing n contribute 1 (even eigenvalue).
    Other good primes contribute sigma_hat of newform.eigenvalue when
    ord e >= 2 or a_f(p) is stored: a_f(p^e) is the Lucas term u_(e+1)
    of (a_f(p), p^(w-1)), the product of the cyclotomic parts Phi_d over
    d | e + 1, d >= 2, and sigma_hat counts those that are not units,
    each d > 30 without computing it, as Phi_d then holds a primitive
    prime (Bilu-Hanrot-Voutier); at e = 1 that is 1 unless
    a_f(p) = Phi_2 is a unit.  The Lucas layer, which holds sigma_hat,
    is imported here, so the admissible and reproduce verbs never load
    it.
    """
    from .lucas import sigma_hat

    if n <= 1:
        raise DomainError("n must be > 1")
    k = spec.weight // 2
    total = 0
    for p, e in factor(n):
        if spec.level % p == 0:
            if (spec.level // p) % p == 0:
                raise DomainError(f"a_f({n}) = 0, as {p}^2 divides the level")
            total += (k - 1) * e
        elif _vanishes(spec, p, e):
            raise DomainError(
                f"a_f({n}) = 0, as a_f({p}) = {spec.ap[p]} and {p}^{e} exactly divides {n}")
        elif e == 1 and spec.trivial_mod2 and p != 2:
            _check_even_eigenvalues(spec)
            total += 1
        elif e >= 2 or p in spec.ap:
            total += sigma_hat(eigenvalue(spec, p), spec.norm(p), e)
    return total


def _vanishes(spec: NewformSpec, p: int, e: int) -> bool:
    """Whether a_f(p^e) = u_(e+1) of (a, B = p^(w-1)) is 0, a the stored
    a_f(p): a^2 = c B, c = 0, 2 or 3 (c = 1 would make B, an odd power of
    p, a square), makes alpha/beta a root of unity of order 2, 4 or 6, and
    u_(e+1) = 0 when that order divides e + 1.  B is built only when it
    may be at most a^2."""
    a = spec.ap.get(p)
    if a is None or (a and (spec.weight - 1) * math.log2(p) > 2 * abs(a).bit_length() + 1):
        return False
    c, rest = divmod(a * a, spec.norm(p)) if a else (0, 0)
    order = {0: 2, 2: 4, 3: 6}.get(c) if rest == 0 else None
    return order is not None and (e + 1) % order == 0


def decompose_odd_target(spec: NewformSpec, alpha: int) -> dict:
    """All ways to write odd alpha as a product of signed prime powers on
    pairwise distinct prime arguments (multiplicativity), units absorbed
    by the unit set: the multisets of _signed_blocks whose signs multiply
    to sign(alpha).  A target is refused once a scenario past
    _DECOMPOSE_BUDGET would be kept, so a refusal first builds the
    budget's scenarios: on a 2-vCPU Xeon, 3^100 (p(100) = 190,569,292
    partitions) is refused in 0.1 s in process, about 0.2 s by the CLI."""
    if alpha % 2 == 0 or abs(alpha) <= 1:
        raise DomainError("alpha must be odd with |alpha| > 1")
    units = unit_set(spec)
    sign = 1 if alpha > 0 else -1
    scenarios = []
    for blocks in _signed_blocks(factor(alpha)):
        if math.prod(s for s, _, _ in blocks) == sign:
            if len(scenarios) == _DECOMPOSE_BUDGET:
                raise DomainError(
                    f"the target splits into more than {_DECOMPOSE_BUDGET} scenarios")
            scenarios.append(sorted(blocks))
    scenarios.sort(key=lambda sc: (len(sc), sc))
    return {
        "target": alpha,
        "unit_set": list(units),
        "scenarios": [[{"sign": s, "ell": ell, "m": mm} for (s, ell, mm) in sc]
                      for sc in scenarios],
        "note": "each scenario needs its factors at pairwise distinct prime arguments",
    }


def _signed_blocks(pairs: tuple[tuple[int, int], ...]):
    """Each multiset of signed blocks (s, ell, m), s = +-1, whose ell^m
    multiply to the product of ell^e over pairs (ell, e), once, lazily.

    The blocks of each prime come in non-increasing (m, s) order, (m, 1)
    before (m, -1).  A multiset has exactly one such arrangement, so it
    comes out once, and every arrangement is reached, as each block is
    offered every (m, s) up to the one before it.  The walk is
    depth-first on an explicit stack, not nested generators, so a target
    with a thousand distinct primes stays within the recursion limit.
    """
    stack = [((), -1, 0, None)]  # (blocks, prime index, exponent left, top (m, s))
    while stack:
        blocks, i, left, top = stack.pop()
        if left == 0:
            i += 1
            if i == len(pairs):
                yield blocks
                continue
            left = pairs[i][1]
            top = (left, 1)
        ell = pairs[i][0]
        # pushed in increasing order, so popped in non-increasing (m, s)
        for mm in range(1, min(left, top[0]) + 1):
            for s in (-1, 1):
                if (mm, s) <= top:
                    stack.append((blocks + ((s, ell, mm),), i, left - mm, (mm, s)))
