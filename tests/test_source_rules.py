"""Source rules the README promises: stdlib-only imports and no floats;
plus one export list that matches what the package imports, no import
left unused, no export without a caller, and sources that parse at the
declared Python floor and use no private name of the stdlib."""

import ast
import dataclasses
import re
import sys
from pathlib import Path
from typing import Optional

import malg

SOURCES = sorted(Path(malg.__file__).parent.glob("*.py"))
TESTS = Path(__file__).parent


def _parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def _trees():
    assert SOURCES
    for path in SOURCES:
        yield path.name, _parsed(path)


def test_imports_are_stdlib_only():
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{name} imports {module}"


def test_no_float_literal_or_name():
    for name, tree in _trees():
        for node in ast.walk(tree):
            assert not (
                isinstance(node, ast.Constant) and isinstance(node.value, float)
            ), f"{name}:{node.lineno} float literal {node.value!r}"
            assert not (
                isinstance(node, ast.Name) and node.id == "float"
            ), f"{name}:{node.lineno} uses the name float"


# Private names of the stdlib modules malg uses: they may change or go in
# any release (Fraction's `_normalize=` keyword is gone in 3.12), and malg
# runs on every Python from its declared floor on
PRIVATE_STDLIB_NAMES = {
    "fractions": ("_numerator", "_denominator", "_normalize", "_from_coprime_ints"),
    "argparse": ("_actions", "_subparsers", "_name_parser_map"),
}


def test_no_private_stdlib_names():
    # a use is an attribute, a keyword, an imported name or a string handed
    # to getattr; a name of malg's own is flagged too, so none reuses one
    private = {name: module for module, names in PRIVATE_STDLIB_NAMES.items()
               for name in names}
    for name, tree in _trees():
        for node in ast.walk(tree):
            for field in ("attr", "arg", "name", "id", "value"):
                used = getattr(node, field, None)
                assert not (isinstance(used, str) and used in private), (
                    f"{name}:{node.lineno} uses {used}, private to {private[used]}"
                )


def _is_main_guard(node) -> bool:
    return (
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
    )


def _import_time_calls(tree):
    """Calls that run when the module is imported: all but function bodies
    (decorators and default values do run) and the `__main__` block."""
    todo = [node for node in tree.body if not _is_main_guard(node)]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            todo += [d for d in args.defaults + args.kw_defaults if d is not None]
            todo += getattr(node, "decorator_list", [])
            continue
        if isinstance(node, ast.Call):
            yield node
        todo.extend(ast.iter_child_nodes(node))


def test_cli_builds_no_parser_at_import():
    # the parser is built by the first main call, so importing malg.cli
    # (and the benchmark's timed set-up) pays nothing for it
    tree = dict(_trees())["cli.py"]
    for call in _import_time_calls(tree):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        assert name not in ("build_parser", "main"), (
            f"cli.py:{call.lineno} calls {name} at import"
        )


def test_all_matches_package_imports():
    # __all__ and the import block of __init__.py name the same API once
    tree = dict(_trees())["__init__.py"]
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert malg.__all__ == sorted(set(malg.__all__))
    assert set(malg.__all__) == imported


def _called_names(body):
    """Names of the functions a function body calls, by name or attribute."""
    names = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            ))
    return names


def _functions(tree, names):
    """The top-level functions of the module with these names, by name."""
    bodies = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert set(bodies) == set(names)
    return bodies


def _maps_functions(names):
    return _functions(dict(_trees())["maps.py"], names)


def _assert_none_calls_another(names):
    for name, body in _maps_functions(names).items():
        called = _called_names(body) & (set(names) - {name})
        assert not called, f"maps.py {name} calls {sorted(called)}"


def test_inp_formulations_are_independent():
    # acceptance criterion 2 asserts that the three formulations agree,
    # which shows something only while each computes on its own
    _assert_none_calls_another(
        {"is_inverse_nil_preserving", "null_ideal_preserved", "check_well_definedness"}
    )


def test_constant_routes_are_independent():
    # the three routes to the constant check one another only while none
    # reuses another's ratio code: none calls another, and the oracle
    # measures no mass through the pushforward or the other two's sums
    _assert_none_calls_another({"compression", "lipschitz_fast", "lipschitz_bruteforce"})
    oracle = _maps_functions({"lipschitz_bruteforce"})["lipschitz_bruteforce"]
    shared = _called_names(oracle) & {"pushforward", "mu_bar", "_weighted_sum"}
    assert not shared, f"maps.py lipschitz_bruteforce calls {sorted(shared)}"


def test_point_oracle_reads_no_library_preimage():
    # the functions of tests/helpers.py that compute the expected preimages,
    # null laws, masses, hom images and pair oracle read point_fn, the point
    # blocks and the weights only, so a fault in a map's preimages, on the
    # functor-law path or in lipschitz_bruteforce's enumeration cannot reach
    # the expected side as well
    oracle = {
        "point_preimages", "point_null_laws", "oracle_pushforward_masses",
        "point_images", "definition_pair_oracle",
    }
    library = {
        "_join", "induced_homomorphism", "apply", "pushforward", "make_map", "_mask",
        "lipschitz_bruteforce", "_canonical", "_ids", "mu_bar", "rho", "fin_elements",
        "all_elements",
    }
    for name, body in _functions(_parsed(TESTS / "helpers.py"), oracle).items():
        read = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
        shared = read & {"atom_preimages", "_preimage_masks", "_atom_of"}
        assert not shared, f"helpers.py {name} reads {sorted(shared)}"
        called = _called_names(body) & library
        assert not called, f"helpers.py {name} calls {sorted(called)}"


def _strips_lowest_bit(node) -> bool:
    """Whether `node` is `x & -x` for one expression x."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.BitAnd)
        and isinstance(node.right, ast.UnaryOp)
        and isinstance(node.right.op, ast.USub)
        and ast.unparse(node.left) == ast.unparse(node.right.operand)
    )


def test_join_walk_lives_in_spaces():
    # a map's preimages, a hom's apply and the composition law all join
    # atom images through spaces._join, so no other module walks a mask's
    # atoms one lowest bit at a time
    for name, tree in _trees():
        if name == "spaces.py":
            continue
        for loop in ast.walk(tree):
            if isinstance(loop, ast.While):
                stripped = [n for n in ast.walk(loop) if _strips_lowest_bit(n)]
                assert not stripped, f"{name}:{loop.lineno} walks a mask's atoms itself"


def _steps_to_lower_submask(node) -> bool:
    """Whether `node` is `(x - 1) & m`, either way round, for an m other
    than x: one step of a walk down the submasks of m."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    return any(
        isinstance(step, ast.BinOp)
        and isinstance(step.op, ast.Sub)
        and ast.unparse(step.right) == "1"
        and ast.unparse(step.left) != ast.unparse(mask)
        for step, mask in ((node.left, node.right), (node.right, node.left))
    )


def test_submasks_have_one_order():
    # spaces._canonical yields a mask's submasks in canonical order, the
    # one order of elements and witnesses, so no module sorts masks by
    # _ids, and none but spaces.py walks submasks in an order of its own
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] in (
                "sorted", "sort"
            ):
                keys = [ast.unparse(k.value) for k in node.keywords if k.arg == "key"]
                assert keys != ["_ids"], f"{name}:{node.lineno} sorts by _ids"
            if name != "spaces.py":
                assert not _steps_to_lower_submask(node), (
                    f"{name}:{node.lineno} walks submasks itself"
                )


def test_library_reads_preimage_masks_only():
    # a map holds its preimages as atom masks; the atom_preimages tuples
    # are a view for callers, so no function of the library reads them
    for name, tree in _trees():
        for node in ast.walk(tree):
            assert not (
                isinstance(node, ast.Attribute) and node.attr == "atom_preimages"
            ), f"{name}:{node.lineno} reads atom_preimages"


def _quoted_annotations(tree):
    """Each annotation written as a string, such as "AlgebraElement", parsed."""
    for node in ast.walk(tree):
        for field in ("annotation", "returns"):
            value = getattr(node, field, None)
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                yield ast.parse(value.value, mode="eval")


def test_no_unused_imports():
    # every imported name is read somewhere in its module, in malg and in
    # the tests; __init__.py reads its imports through __all__
    tests = [(f"tests/{path.name}", _parsed(path)) for path in sorted(TESTS.glob("*.py"))]
    for name, tree in [*_trees(), *tests]:
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {
            node.id
            for part in (tree, *_quoted_annotations(tree))
            for node in ast.walk(part)
            if isinstance(node, ast.Name)
        }
        if name == "__init__.py":
            used |= set(malg.__all__)
        for imported_name, lineno in imported.items():
            assert imported_name in used, (
                f"{name}:{lineno} imports {imported_name} and never uses it"
            )


def test_functor_checks_build_their_maps_and_homs():
    # the identity law goes through identity_map and induced_homomorphism,
    # and the composition law through compose: that path is what catches
    # a faulty induced hom, so no speed-up may answer either law without it;
    # metric.py builds no algebra, so induced_homomorphism is the one place
    # that builds a hom's algebras
    tree = dict(_trees())["metric.py"]
    bodies = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    required = {
        "identity_law_violations": {"identity_map", "induced_homomorphism"},
        "contravariance_check": {"compose", "induced_homomorphism"},
    }
    for name, calls in required.items():
        missing = calls - _called_names(bodies[name])
        assert not missing, f"metric.py {name} does not call {sorted(missing)}"
    builds = _called_names(tree) & {"build_algebra", "MeasureAlgebra"}
    assert not builds, f"metric.py calls {sorted(builds)}"


def test_classification_holds_only_what_classify_measures():
    # the verdicts are functions of the two constants, so the record holds
    # the measured values and derives the rest; classify builds it once
    names = [f.name for f in dataclasses.fields(malg.MorphismClassification)]
    assert names == ["inverse_nil_preserving", "compression", "lipschitz_point"]
    body = _functions(dict(_trees())["metric.py"], {"classify"})["classify"]
    built = [
        node for node in ast.walk(body)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "MorphismClassification"
    ]
    assert len(built) == 1, f"classify builds MorphismClassification {len(built)} times"


def test_measure_algebra_init_has_no_loop():
    # which atoms are null, non-null and finite is decided once, where the
    # space is built; the algebra only copies those classes
    tree = dict(_trees())["algebra.py"]
    cls = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "MeasureAlgebra"
    )
    init = next(
        node for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    )
    loops = (
        ast.For, ast.AsyncFor, ast.While,
        ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    )
    for node in ast.walk(init):
        assert not isinstance(node, loops), (
            f"algebra.py:{node.lineno} MeasureAlgebra.__init__ loops"
        )


def _builds_zero(call) -> bool:
    """Whether `call` is `ExtRational()` or `ExtRational(0)`, by name or
    attribute, with the value passed by position or keyword."""
    if ast.unparse(call.func).rpartition(".")[2] != "ExtRational":
        return False
    args = call.args + [keyword.value for keyword in call.keywords]
    return not args or (
        len(args) == 1 and isinstance(args[0], ast.Constant) and args[0].value in (0, "0")
    )


def test_zero_is_built_once():
    # an ExtRational is immutable, so zero is built once, as rationals.ZERO
    # next to INF; sums of weights start at it and 0 * inf returns it
    trees = dict(_trees())
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _builds_zero(node)
    ]
    zero = next((
        node.value for node in trees["rationals.py"].body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["ZERO"]
    ), None)
    line = None if zero is None else zero.lineno
    assert sites == [f"rationals.py:{line}"], f"ExtRational(0) is built at {sites}"


def test_one_copy_of_the_mask_value_code():
    # MeasurableSet and AlgebraElement are one atom-mask value type: the
    # checks, the operators, equality and hashing live in their shared base,
    # so neither class defines them again or raises anything itself
    trees = dict(_trees())
    shared = {
        "__init__", "__eq__", "__hash__", "atom_ids", "complement",
        "__or__", "__and__", "__xor__", "__invert__",
        "union", "intersection", "symmetric_difference", "meet", "join", "symmdiff",
    }
    for module, name in (("spaces.py", "MeasurableSet"), ("algebra.py", "AlgebraElement")):
        cls = next(
            node for node in trees[module].body
            if isinstance(node, ast.ClassDef) and node.name == name
        )
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in shared, f"{module} {name} defines {node.name}"
            assert not isinstance(node, ast.Raise), (
                f"{module}:{node.lineno} {name} checks a mask itself"
            )
    # self.mask | ..., & ... and ^ ... appear in one class only
    owners = set()
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor))
                    and ast.unparse(node.left) == "self.mask"
                ):
                    owners.add(f"{module} {cls.name}")
    assert len(owners) == 1, f"mask operators are written in {sorted(owners)}"


def test_mutants_are_planted_by_the_registry_only():
    # one registry and one kill oracle: a new mutant joins tests/mutants.py
    # instead of starting a table of its own; test_helpers tests mutated
    root = TESTS.parent
    for path in sorted([*root.glob("tests/**/*.py"), *root.glob("bench/**/*.py")]):
        if path.name in ("mutants.py", "test_helpers.py"):
            continue
        for node in ast.walk(_parsed(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "mutated", f"{path.name}:{node.lineno} calls mutated"


def test_reports_have_one_renderer():
    # formats.dumps_indented writes json.dumps(obj, indent=2)'s bytes for
    # every report, so no call in malg passes an indent (json's indenting
    # encoder is pure Python), and the json report and the text report's
    # results block both call the one renderer
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                keywords = {k.arg for k in node.keywords}
                assert "indent" not in keywords, (
                    f"{name}:{node.lineno} passes indent to {ast.unparse(node.func)}"
                )
    trees = dict(_trees())
    callers = (
        ("formats.py", "dumps_canonical", "dumps_indented"),
        ("cli.py", "render", "dumps_canonical"),
        ("cli.py", "render", "dumps_indented"),
    )
    for module, caller, renderer in callers:
        body = _functions(trees[module], {caller})[caller]
        assert renderer in _called_names(body), f"{module} {caller} does not call {renderer}"


def _raised_name(node) -> Optional[str]:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_one_weight_coercion():
    # ExtRational is the one coercion of measure values: the sign rule is
    # written once, in rationals.py; no function takes a `finite` knob that
    # lets "inf" through a finite parse; and each type check is one _require
    # call, with no isinstance test in front of it
    sign_rules = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                if _raised_name(node) == "NegativeWeight":
                    sign_rules.append(f"{name}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert "finite" not in params, (
                    f"{name}:{node.lineno} takes a parameter named finite"
                )
            if isinstance(node, ast.If) and "isinstance" in _called_names(node.test):
                guarded = set().union(*map(_called_names, node.body))
                assert "_require" not in guarded, (
                    f"{name}:{node.lineno} tests isinstance before _require"
                )
    assert len(sign_rules) == 1 and sign_rules[0].startswith("rationals.py:"), (
        f"NegativeWeight is raised at {sign_rules}"
    )


# Names of malg.__all__ kept with no caller, each with the reason it stays.
UNCALLED_EXPORTS: dict[str, str] = {}


def _bound_names(func) -> set[str]:
    """Every name a function or lambda binds: its parameters, and each name
    stored or deleted in its body, nested scopes included."""
    args = func.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return {a.arg for a in params if a is not None} | {
        node.id for node in ast.walk(func)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
    }


def _global_reads(node, shadowed=frozenset()):
    """Each name read under `node` that can only be a module global: read
    in no function that binds it, and outside a def or class of that name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        shadowed = shadowed | {node.name}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        shadowed = shadowed | _bound_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _global_reads(child, shadowed)


def _imported_names(tree) -> set[str]:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("malg"))
        for alias in node.names
    }


def _module_attributes(tree) -> set[str]:
    """Attributes read off the malg package: `malg.name`, `self.malg.name`,
    or `m.name` after `m = self.malg`."""

    def is_package(expr) -> bool:
        return (isinstance(expr, ast.Name) and expr.id in aliases) or (
            isinstance(expr, ast.Attribute) and expr.attr == "malg"
        )

    aliases = {"malg"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_package(node.value):
            aliases |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and is_package(node.value)
    }


def _bench_string_names(tree) -> set[str]:
    """Names the benchmark looks up by string: the second item of each
    ("malg.module", "name") pair, such as the tracer's SPANS, and each
    name in a tuple that a for loop passes to getattr."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) == 2:
            module, name = node.elts
            if all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
                if module.value.startswith("malg"):
                    names.add(name.value)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            looked_up = any(
                isinstance(call, ast.Call) and ast.unparse(call.func) == "getattr"
                and ast.unparse(call.args[-1]) == ast.unparse(node.target)
                for call in ast.walk(node)
            )
            if looked_up:
                names |= {e.value for e in node.iter.elts if isinstance(e, ast.Constant)}
    return names


def test_public_names_have_callers():
    # each exported name is used by the library itself, by an acceptance
    # criterion or by the benchmark, not by its own unit tests alone. A
    # bare name counts only where it cannot be a local variable: the
    # benchmark's tracer, for one, binds a local called `measure`
    called = set()
    for name, tree in _trees():
        if name != "__init__.py":
            called |= _imported_names(tree) | set(_global_reads(tree))
    acceptance = _parsed(TESTS / "test_acceptance.py")
    called |= _imported_names(acceptance) | _module_attributes(acceptance)
    for path in sorted((TESTS.parent / "bench").glob("*.py")):
        tree = _parsed(path)
        called |= _module_attributes(tree) | _bench_string_names(tree)
    for name, reason in UNCALLED_EXPORTS.items():
        assert name in malg.__all__ and name not in called and reason, name
    uncalled = set(malg.__all__) - called - UNCALLED_EXPORTS.keys()
    assert not uncalled, f"exported with no caller: {sorted(uncalled)}"


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml declares the oldest Python malg runs on; the tests run
    # on one newer Python, so each module is parsed with that floor's grammar
    text = (TESTS.parent / "pyproject.toml").read_text()
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', text, re.MULTILINE)
    assert floor, "pyproject.toml declares no requires-python floor"
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(floor[1])))
