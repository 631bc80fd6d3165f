"""Route independence, checked.  The package computes its answers by routes
that must agree, and a helper two routes share could hide a bug that both
then report alike.  So every module of the package and the brute-force
reference, tests/_brute.py, is parsed here, function-level imports
included, and its package-internal imports must be exactly its row of
IMPORTS, a table with no cycle.  Beside the table sit the route rules that
a module-level edge cannot state.  A new route adds its row, and any rule
it needs, in the change that adds the route.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "simplicial_ideals"
NAME = PACKAGE.name

# module -> the package modules it imports from; ``__init__`` is the package
# root, which ``from simplicial_ideals import ...`` reads
IMPORTS = {
    "__init__": {"containment", "errors", "ideals", "monomials", "simplicial"},
    "__main__": {"cli"},
    "cli": {"config", "containment", "errors", "monomials", "simplicial",
            "verification"},
    "config": {"errors"},
    # the closed forms and the two oracles; see CLOSED_FORMS
    "containment": {"errors", "simplicial"},
    "errors": set(),
    # the face-prime route: the definition, the intersection of the face
    # primes' powers
    "faceprime": {"errors", "ideals"},
    "ideals": {"errors", "monomials"},
    "monomials": {"errors"},
    # the spec, the tuple tests and the enumerator route; it binds the
    # face-prime names for lookup alone (see
    # test_enumerator_and_face_primes_share_no_code)
    "simplicial": {"errors", "faceprime", "ideals"},
    "verification": {"containment", "errors", "faceprime", "ideals",
                     "simplicial"},
    # the brute-force reference: plain tuples, nothing of the package
    "_brute": set(),
}

# the functions of containment.py that decide by closed form: of the names
# imported from simplicial they may use the (n, c) rule alone
CLOSED_FORMS = (
    "_largest_contained_r", "_least_containing_m", "containment_criterion",
    "resurgence", "resurgence_witness", "_witness",
    "empirical_resurgence_sup", "containment_boundary", "resurgence_report",
    "symbolic_containment_sufficient",
)


def _parse(module):
    path = TESTS / "_brute.py" if module == "_brute" else PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


def _imports(tree):
    """(module, name, local) for every package-internal import anywhere in
    ``tree``: ``name`` is what is imported from ``module``, None for the
    module itself, and ``local`` the name it is bound to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == NAME:
                    # ``import a.b`` binds ``a``, ``import a.b as c`` binds c
                    yield (rest.partition(".")[0] or "__init__", None,
                           alias.asname or head)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.split(".")[0] == NAME:
                module = node.module[len(NAME) + 1:]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if module:
                    yield module.partition(".")[0], alias.name, local
                elif (PACKAGE / f"{alias.name}.py").exists():
                    # ``from . import simplicial``: the module itself
                    yield alias.name, None, local
                else:
                    yield "__init__", alias.name, local


def _edges(module):
    return {source for source, _, _ in _imports(_parse(module))}


def _names_from(tree, source):
    """The local names bound anywhere in ``tree`` by an import from the
    package module ``source``."""
    return {local for module, _, local in _imports(tree) if module == source}


def _loaded(node):
    """Every name that code under ``node`` reads."""
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_the_table_names_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} | {"_brute"}
    assert set(IMPORTS) == modules


def test_the_table_has_no_cycle():
    done, active = set(), set()

    def visit(module, path):
        assert module not in active, f"import cycle {' -> '.join(path)}"
        if module in done:
            return
        active.add(module)
        for source in sorted(IMPORTS[module]):
            visit(source, path + [source])
        active.discard(module)
        done.add(module)

    for module in sorted(IMPORTS):
        visit(module, [module])


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_imports_match_the_table(module):
    assert _edges(module) == IMPORTS[module]


def test_enumerator_and_face_primes_share_no_code():
    # faceprime imports nothing of the enumerator, and no code of simplicial
    # reads what it binds from faceprime
    assert "simplicial" not in _edges("faceprime")
    tree = _parse("simplicial")
    assert not _loaded(tree) & _names_from(tree, "faceprime")


def test_closed_forms_use_only_the_spec_rule():
    tree = _parse("containment")
    bound = _names_from(tree, "simplicial") - {"_check_spec"}
    definitions = {node.name: node for node in tree.body
                   if isinstance(node, ast.FunctionDef)}
    for name in CLOSED_FORMS:
        assert not _loaded(definitions[name]) & bound, name


def test_brute_imports_nothing_from_the_package():
    assert not _edges("_brute")
