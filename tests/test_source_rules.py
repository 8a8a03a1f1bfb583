"""Source rules the README promises: stdlib-only imports and no floats;
plus one export list that matches what the package imports, and no
import left unused."""

import ast
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
        "_pullback", "induced_homomorphism", "apply", "pushforward", "make_map", "_mask",
        "lipschitz_bruteforce", "_submasks", "_ids", "mu_bar", "rho", "fin_elements",
        "all_elements",
    }
    for name, body in _functions(_parsed(TESTS / "helpers.py"), oracle).items():
        read = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)}
        shared = read & {"atom_preimages", "_preimage_masks", "_atom_of"}
        assert not shared, f"helpers.py {name} reads {sorted(shared)}"
        called = _called_names(body) & library
        assert not called, f"helpers.py {name} calls {sorted(called)}"


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
    # a faulty induced hom, so no speed-up may answer either law without it
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
