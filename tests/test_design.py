"""Design guards checked on the source text of the package."""

import ast
import os
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import tauhunt

SRC = Path(tauhunt.__file__).parent


def _definitions(tree):
    """(qualified name, node) for every top-level def/class and every
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _references(node) -> Counter:
    """Names and attribute names used under node; imports and the string
    entries of __all__ are not uses."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_library_name_is_used_by_the_library():
    """No def, class or method exists only because a test calls it: each
    is referenced somewhere in the package outside its own definition."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = sum((_references(tree) for tree in trees), Counter())
    unused = [
        qualname
        for tree in trees
        for qualname, node in _definitions(tree)
        if used[node.name] == _references(node)[node.name]
    ]
    assert not unused, "referenced only from outside the package: " + ", ".join(unused)


def _is_lru_cache(decorator) -> bool:
    """@lru_cache, @lru_cache(...), @functools.lru_cache(...) or @cache."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.id if isinstance(decorator, ast.Name) else getattr(decorator, "attr", "")
    return name in ("lru_cache", "cache")


def test_thue_caches_take_no_form():
    """Per-form Thue state lives in the form's one context: no lru_cache
    function of thue.py takes a form, which would hash the whole form on
    every lookup and keep a second copy of that state."""
    tree = ast.parse((SRC / "thue.py").read_text())
    keyed = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(map(_is_lru_cache, node.decorator_list))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg == "form" or "ThueForm" in ast.unparse(arg.annotation or ast.Constant(""))
    ]
    assert not keyed, "lru_cache keyed on a form: " + ", ".join(keyed)


def test_thue_form_is_n():
    """A ThueForm is Fhat_n, named by n alone: its coefficients follow from
    it, so no form with free coefficients can be built."""
    from tauhunt.thue import ThueForm

    assert ThueForm.__record_fields__ == ("n",)


def test_one_thue_family():
    """Every Thue form is Fhat_n: thue.py holds no second family (no
    family, shift or "standard"), and lehmer and the CLI reach F_{2m}
    through thue.solve_unreduced alone (lehmer by thue.close, which calls
    it), the CLI its coefficients through thue.unreduced_coeffs, with no
    loop over a solve's solutions of their own that could map (x, z) to
    (x, z + 2x)."""
    from tauhunt import thue

    text = (SRC / "thue.py").read_text()
    for word in ("shift", "family", '"standard"', "build_form"):
        assert word not in text, word
    assert not hasattr(thue, "build_form")
    assert _references(_function(ast.parse(text), "close"))["solve_unreduced"]
    for name, calls in (("lehmer.py", {"close"}),
                        ("cli.py", {"solve_unreduced", "unreduced_coeffs"})):
        tree = ast.parse((SRC / name).read_text())
        assert all(_references(tree)[call] for call in calls), name
        loops = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, (ast.comprehension, ast.For))
                 and "solutions" in _references(node.iter)]
        assert not loops, (name, loops)
    assert not _references(ast.parse((SRC / "lehmer.py").read_text()))["solve_unreduced"]


def _function(tree, name):
    """The top-level def called name."""
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_closure_per_condition():
    """Each condition is closed by the one call enumerate_conditions binds
    to it (thue.close or curves.close), which also gives the bound to
    compare its catalog row to: lehmer._verdict names no kind, and the
    equation text is bound with the call, so thue.certified_bound and
    DiophantineCondition.describe are gone."""
    from tauhunt import curves, lehmer, newform, thue

    verdict = _function(ast.parse((SRC / "lehmer.py").read_text()), "_verdict")
    assert not _references(verdict)["kind"]
    kinds = [node.value for node in ast.walk(verdict)
             if isinstance(node, ast.Constant) and node.value in ("thue", "curve-C", "curve-H")]
    assert not kinds, kinds
    assert not hasattr(thue, "certified_bound")
    assert not hasattr(lehmer.DiophantineCondition, "describe")
    assert lehmer.DiophantineCondition.__record_fields__ == (
        "d", "kind", "equation", "problem", "close")
    # 29 (29^2 - 1) = 2^3 * 3 * 5 * 7 * 29: the C and H curves, closed by
    # curves.close itself, as each curve holds the target, then Fhat_7 and
    # Fhat_29, closed by thue.close bound to it
    spec = newform.NewformSpec(weight=4, level=5)
    closes = [getattr(c.close, "func", c.close)
              for c in lehmer.enumerate_conditions(spec, 29, 1, 1)]
    assert closes == [curves.close, curves.close, thue.close, thue.close]


def test_one_curve_record_and_one_row_judgement():
    """A curve is its parameters, built by the one constructor
    CurveSpec(family, w, ell, sign, m) (no c_family or h_family), and
    curves.close reads the target from it.  catalog.judge is the one
    reading of a catalog row (catalog.compare is gone): no other module
    names a row status or tells its callers which rows list |x|."""
    import inspect

    from tauhunt import catalog, curves

    assert curves.CurveSpec.__record_fields__ == ("family", "w", "ell", "sign", "m")
    for name in ("c_family", "h_family"):
        assert not hasattr(curves.CurveSpec, name), name
    assert not hasattr(curves, "_ell_power") and not hasattr(catalog, "compare")
    assert list(inspect.signature(curves.close).parameters) == ["spec", "bounds"]
    for name in ("curves.py", "thue.py", "lehmer.py"):
        assert "unsigned_x" not in (SRC / name).read_text(), name
    statuses = [(path.name, node.value) for path in sorted(SRC.glob("*.py"))
                if path.name != "catalog.py"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Constant) and node.value in ("open", "known", "grh")]
    assert not statuses, statuses


def test_frozen_records():
    """The eight value classes are arith.frozen_record classes: frozen,
    equal and hashed by their fields within one class, shown as
    Name(field=value, ...), still checked on construction, and a record
    holding a dict refuses hash."""
    from tauhunt import bounds, curves, lehmer, lucas, newform, thue
    from tauhunt.arith import DomainError, frozen_record

    spec = curves.CurveSpec("C", 3, 7, -1)
    form = thue.ThueForm(7)
    records = [
        bounds.SearchBounds(),
        spec,
        curves.CurveSearch(spec, ((2, 1),), {"x_max": 10}),
        lehmer.DiophantineCondition(7, "thue", "F_6(X, Y) = -7", form,
                                    partial(thue.close, rhs=-7)),
        lucas.LucasPair(1, 2),
        newform.NewformSpec(weight=4, level=5, ap={2: -4}, bad_signs={5: 1}),
        form,
        thue.ThueSolutions(form.name, 7, ((1, 2),), {"x_mid": 10}),
    ]
    for record in records:
        cls, names = type(record), type(record).__record_fields__
        values = [getattr(record, name) for name in names]
        assert record == cls(*values) == cls(**dict(zip(names, values)))
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(record) == f"{cls.__name__}({body})"
        for name in (names[0], "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, name) for name in names] == values
        with pytest.raises(TypeError):
            cls(*values, 1)
    for record, same in ((form, thue.ThueForm(7)),
                         (spec, curves.CurveSpec("C", 3, 7, -1, 1)),
                         (bounds.SearchBounds(), bounds.SearchBounds(100000, 1000, 10000))):
        assert record == same and hash(record) == hash(same)
    assert form != thue.ThueForm(11) and form != (7,)

    @frozen_record
    class Other:
        n: int

    assert Other(7) != form and form != Other(7)
    for make in (lambda: bounds.SearchBounds(x_max=-1), lambda: bounds.SearchBounds(5, 10, 9),
                 lambda: curves.CurveSpec("C", 4, 3, 1), lambda: lucas.LucasPair(2, 1),
                 lambda: newform.NewformSpec(weight=5, level=1),
                 lambda: newform.NewformSpec(weight=4, level=1, ap={4: 0}),
                 lambda: thue.ThueForm(8)):
        with pytest.raises(DomainError):
            make()
    with pytest.raises(TypeError, match="unhashable"):
        hash(records[5])
    assert newform.NewformSpec(4, 1).ap == {} and newform.NewformSpec(4, 1).ap is not (
        newform.NewformSpec(4, 1).ap)


# solves F = n on forms without and (Fhat_9, 3 | 9) with a rational root,
# printing whether each form has built its coefficients
_COEFFS_PROBE = """
from tauhunt import thue
for form in map(thue.build_reduced_form, (691, 7, 25, 9)):
    thue.solve_bounded(form, form.n, 1000, 10000)
    print(form.name, "coeffs" in form.__dict__)
"""


def test_solve_builds_no_coefficients():
    """A solve evaluates the form by its Lucas ladder and never builds the
    coefficients, but for the one exact sign at the rational root of a
    form with 3 | n (Fhat_9 here)."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", _COEFFS_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "Fhat_691 False", "Fhat_7 False", "Fhat_25 False", "Fhat_9 True", ""]


def test_one_lucas_ladder(monkeypatch):
    """arith.lucas_ladder is the one code that computes a Lucas term: a
    Thue value, the residue index, a rank of apparition, the defects and
    the Omega bound of a Lucas pair, a Hecke coefficient at a prime power,
    the unit set and the strong Lucas test of a 30-digit prime each reach
    it, wrapped in every namespace that imports it."""
    import importlib

    from tauhunt import arith, lehmer, lucas, newform, thue

    ladder, calls = arith.lucas_ladder, []

    def counted(*args):
        calls.append(args)
        return ladder(*args)

    modules = [importlib.import_module(f"tauhunt.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    holders = [m for m in modules if getattr(m, "lucas_ladder", None) is ladder]
    assert {m.__name__ for m in holders} == {
        "tauhunt.arith", "tauhunt.lehmer", "tauhunt.lucas", "tauhunt.newform", "tauhunt.thue"}
    for module in holders:
        monkeypatch.setattr(module, "lucas_ladder", counted)
    probes = {
        "evaluate": lambda: thue.evaluate(thue.build_reduced_form(7), 2, 3),
        "index": lambda: thue.ThueForm(7)._context(100).index(101),
        "rank_of_apparition": lambda: lucas.rank_of_apparition(lucas.LucasPair(1, 2), 10**9 + 7),
        "classify_defects": lambda: lucas.classify_defects(lucas.LucasPair(7, 27)),
        "sigma_hat": lambda: lucas.sigma_hat(7, 27, 11),
        "coeff_prime_power": lambda: newform.coeff_prime_power(newform.delta_newform(), 2, 5),
        "unit_set": lambda: lehmer.unit_set(newform.NewformSpec(
            weight=4, level=5, ap={2: 3}, trivial_mod2=True)),
        "is_prime": lambda: arith.is_prime(10**29 + 319),
    }
    for name, probe in probes.items():
        calls.clear()
        probe()
        assert calls, f"{name} computes a Lucas term without arith.lucas_ladder"


def test_one_enclosure_per_thue_root(monkeypatch):
    """A Thue context keeps one enclosure per root, at one precision:
    building it at default bounds takes one _cos_bounds pass, at
    2 bitlength(x_mid) + 64 bits, and no fixed 2^44 grid is left."""
    import re

    from tauhunt import thue
    from tauhunt.lehmer import SearchBounds

    cos_bounds, precisions = thue._cos_bounds, []

    def counted(n, ks, w):
        precisions.append(w)
        return cos_bounds(n, ks, w)

    monkeypatch.setattr(thue, "_cos_bounds", counted)
    x_mid = SearchBounds().x_mid
    for form in (thue.ThueForm(691), thue.ThueForm(7), thue.ThueForm(9)):
        precisions.clear()
        form._context(x_mid)
        assert precisions == [2 * x_mid.bit_length() + 64], form.name
    for path in SRC.glob("*.py"):
        assert not re.search(r"2\s*(\^|\*\*)\s*44\b|<<\s*44\b|_BITS = 44", path.read_text()), path


# runs each verb given as one JSON argument vector, reporting on stderr
# after each whether numpy was ever imported
_IMPORT_PROBE = """
import json, sys
from tauhunt.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    print(code, "numpy" in sys.modules, file=sys.stderr)
"""

# every verb, the Thue ones at small bounds
_EVERY_VERB = [
    ["tau", "--up-to", "100"],
    ["coeff", "--n", "6"],
    ["lucas", "--a", "1", "--b", "2", "--count", "10", "--ell", "7"],
    ["thue-gen", "--reduced-p", "13"],
    ["thue-solve", "--reduced-p", "691", "--rhs", "691", "--x-small", "100", "--x-mid", "1000"],
    ["thue-solve", "--m", "3", "--rhs", "371293", "--x-small", "100", "--x-mid", "1000"],
    ["curve-search", "--family", "C", "--d", "2", "--ell", "3", "--sign", "plus",
     "--m", "42", "--xmax", "1000"],
    ["verify-tables", "--xmax", "1000"],
    ["admissible", "--target", "-13", "--xmax", "1000", "--x-small", "100", "--x-mid", "1000"],
    ["omega-bound", "--n", "12"],
    ["decompose", "--target", "3375"],
    ["weight-bound", "--ell", "3", "--m", "2", "--sign", "minus"],
    ["reproduce", "thm1.2", "--xmax", "1000", "--x-small", "100", "--x-mid", "1000"],
]


def test_no_verb_imports_numpy():
    """No verb needs numpy: the curve scan works on integer bitsets, tau
    on decimal squarings and the Thue scan on Python integers, so no verb
    loads it, the Thue verbs included."""
    import json

    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(_EVERY_VERB)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    reports = proc.stderr.splitlines()
    assert len(reports) == len(_EVERY_VERB), proc.stderr
    for argv, line in zip(_EVERY_VERB, reports):
        assert line == "0 False", (argv, line)


# runs one verb given as a JSON argument vector (or none, for a bare
# import), printing on stderr the modules it loaded, recorded against
# sys.modules before tauhunt is imported
_LAYERS_PROBE = """
import json, sys
before = set(sys.modules)
argv = json.loads(sys.argv[1])
if argv:
    from tauhunt.cli import main
    assert main(argv) == 0
else:
    import tauhunt
print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""

# layers a verb must not load
_UNUSED_LAYERS = {
    "verify-tables": {"thue", "lehmer", "lucas", "newform"},
    "curve-search": {"thue", "lehmer", "lucas", "newform"},
    "tau": {"curves", "thue", "lehmer", "lucas"},
    "coeff": {"curves", "thue", "lehmer", "lucas"},
    "thue-solve": {"lucas"},
    "admissible": {"lucas"},
    "reproduce": {"lucas"},
}

# standard modules no process loads: dataclasses imports inspect, and
# with it ast, dis and tokenize, at about 13 ms a process
_UNUSED_MODULES = {"dataclasses", "inspect"}

# standard modules a verb must not load: the curve verbs do no rational
# or decimal arithmetic, and fractions (with decimal and numbers, about
# 4 ms a process) is for the weight bound's exact enclosure alone
_UNUSED_STDLIB = {
    "verify-tables": {"fractions", "decimal"},
    "curve-search": {"fractions", "decimal"},
}
_FRACTIONS_VERBS = {"weight-bound"}


def test_each_verb_loads_only_its_layers():
    """A verb imports only the layers it calls: each verb, run in a fresh
    interpreter, leaves the Thue, Lehmer, Lucas and newform layers
    unloaded where it needs none of them, and a bare import of the
    package loads only its arithmetic kernel.  Neither loads dataclasses
    or inspect: the records are arith.frozen_record classes.  The curve
    verbs load neither fractions nor decimal, and only weight-bound loads
    fractions: the Thue root check passes an int to arith.sign_at, and
    bounds imports Fraction inside the two functions that compute with
    it."""
    import json

    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}

    def loaded(argv):
        proc = subprocess.run([sys.executable, "-c", _LAYERS_PROBE, json.dumps(argv)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (argv, proc.stderr)
        modules = set(proc.stderr.split())
        verb = argv[0] if argv else None
        assert not modules & _UNUSED_MODULES, (argv, modules & _UNUSED_MODULES)
        assert not modules & _UNUSED_STDLIB.get(verb, set()), (argv, modules)
        assert ("fractions" in modules) == (verb in _FRACTIONS_VERBS), argv
        return {m.removeprefix("tauhunt.") for m in modules if m.startswith("tauhunt.")}

    assert loaded([]) == {"arith"}
    for argv in _EVERY_VERB:
        layers = loaded(argv)
        assert {"arith", "bounds", "cli"} <= layers, argv
        assert not layers & _UNUSED_LAYERS.get(argv[0], set()), (argv, layers)
    verbs = {argv[0] for argv in _EVERY_VERB}
    assert set(_UNUSED_LAYERS) | set(_UNUSED_STDLIB) | _FRACTIONS_VERBS <= verbs


def test_no_runtime_dependency():
    """pyproject.toml lists no runtime dependency."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []


def test_one_row_shape_per_catalog():
    """The curve and Thue catalogs are the only shipped data, each one
    list of rows of one key set, at most one row per key, read through
    catalog.entry; the four ell = 691 curve rows also name their method.
    verify_tables reports exactly one row per curve row, in catalog
    order."""
    from tauhunt import catalog, curves

    data = Path(catalog.__file__).with_name("data")
    assert sorted(path.name for path in data.iterdir()) == [
        "curve_tables.json", "thue_tables.json"]

    shapes = {
        "curve_tables.json": ({"family", "w", "ell", "sign", "points", "status"},
                              ("family", "w", "ell", "sign"), {"known", "grh", "open"}),
        "thue_tables.json": ({"d", "D", "points", "status"}, ("d", "D"), {"known", "grh"}),
    }
    for name, (fields, key, statuses) in shapes.items():
        rows = catalog.load(name)["rows"]
        for row in rows:
            extra = {"method"} if row.get("ell") == 691 else set()
            assert set(row) == fields | extra, (name, row)
            assert row["status"] in statuses, (name, row)
        keys = [tuple(row[f] for f in key) for row in rows]
        assert len(set(keys)) == len(keys), name
    rows = catalog.load("curve_tables.json")["rows"]
    labels = [curves.CurveSpec(row["family"], row["w"], row["ell"], row["sign"]).label
              for row in rows]
    assert [r["curve"] for r in curves.verify_tables(0)["rows"]] == labels


def test_tau_expansion_squares_twice(monkeypatch):
    """tau to 10^5 takes two Decimal multiplications: eta^6 is the square of
    the Jacobi series term by term, and eta^12 and eta^24 are squared in
    slot text."""
    from tauhunt import newform

    exact, calls = newform._EXACT, []

    class Counting:
        def __getattr__(self, name):
            return getattr(exact, name)

        def multiply(self, a, b):
            calls.append(a.adjusted() + 1)  # digits
            return exact.multiply(a, b)

    monkeypatch.setattr(newform, "_EXACT", Counting())
    monkeypatch.setattr(newform, "_DELTA_CACHE", [])
    assert newform.delta_expansion(10**5)[63000] == -80561663527802406257321747
    assert len(calls) == 2


def test_lehmer_owns_targets_and_sweep():
    """A target goes to a verdict only through lehmer: check_admissibility
    takes the signed target as written and reproduce builds the theorem
    sweep, so cli.py neither splits a target nor reads the admissibility
    document."""
    import inspect

    from tauhunt import lehmer

    assert list(inspect.signature(lehmer.check_admissibility).parameters) == [
        "spec", "target", "bounds"]
    assert callable(lehmer.reproduce)
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names = _references(tree).keys() | imported
    assert not names & {"factor", "THEOREM_TARGETS"}
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & {"conditions", "raw_hits", "dispositions", "grh_conditional"}
