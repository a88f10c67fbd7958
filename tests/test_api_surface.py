"""The package holds no code that only the tests call.

Every top-level function and class in src/annroute, and every method of
those classes, must be named somewhere it does not define itself: in
the package (the re-exports of __init__.py do not count), in the
benchmark's modules, or among the targets its tracer wraps. Code that
only the tests use, such as the per-edge gate in scalar_gate.py, lives
in the tests.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# Public helpers for users of the library that nothing in the tree calls.
ALLOWED = {"save_fvecs", "HnswIndex.neighbors", "apply_permutation", "distance", "normalize", "required_m_rceos"}


def _names(node) -> collections.Counter:
    """The bare names and attribute names a subtree reads."""
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr
                               for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """(qualified name, name, node) of each top-level function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_package_name_has_a_caller_outside_the_tests(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    src = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "annroute").glob("*.py"))
           if p.name != "__init__.py"}
    bench = [ast.parse(p.read_text()) for p in sorted(PERFBENCH.glob("*.py")) if not p.name.startswith("test_")]
    refs = sum((_names(t) for t in [*src.values(), *bench]), collections.Counter())
    refs.update(attr for _, _, attr in tracing.TARGETS)
    unused = [f"{path.name}:{qual}" for path, tree in src.items() for qual, name, node in _definitions(tree)
              if qual not in ALLOWED and refs[name] - _names(node)[name] <= 0]
    assert not unused, f"named only by the tests: {unused}"


def test_rceos_is_named_only_where_the_alias_is_settled():
    """rceos is peos at L=1. Below the config only peos, SimHash and none remain, so
    RoutingMode.RCEOS is named by the config that settles the alias (routing.py), the
    CLI's L=1 default (cli.py) and the reader of older files' mode code 2 (indexfile.py)."""
    naming = {p.name for p in (ROOT / "src" / "annroute").glob("*.py")
              if any(isinstance(n, ast.Attribute) and n.attr == "RCEOS" for n in ast.walk(ast.parse(p.read_text())))}
    assert naming == {"routing.py", "cli.py", "indexfile.py"}


def test_the_attachment_alone_derives_a_gate():
    """attach is the only builder of a gate, and the attachment derives its random vectors: the
    projections and the hyperplanes are generated at one call site each, in RoutingAttachment,
    and attach_routing, the builder that took them from its caller, is named nowhere."""
    sites = collections.defaultdict(list)
    for path in sorted((ROOT / "src" / "annroute").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for n in ast.walk(top):
                if isinstance(n, ast.Call):
                    name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
                    sites[name].append((path.name, getattr(top, "name", None)))
    for name in ("generate_ensemble", "generate_simhash_hashes"):
        assert sites[name] == [("edgestore.py", "RoutingAttachment")], name
    for path in [*(ROOT / "src" / "annroute").glob("*.py"), *PERFBENCH.glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        tree = ast.parse(path.read_text())
        defs = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        imports = {a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
        assert "attach_routing" not in set(_names(tree)) | defs | imports, path.name
