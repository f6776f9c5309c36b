"""The public surface is closed: every public function, class and method
in `src/lawbound` has a caller in `src/lawbound` or a line in README's
"Library API" section.  A per-member view of a batched route belongs in
`tests/` as an oracle, and a name with neither role is deleted.
"""

import ast
import re
from collections import Counter
from pathlib import Path

from lawbound import reporting as RP

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lawbound"

# Names that only the benchmark and tests reach.
EXEMPT = {
    # perfbench/workloads.py builds the flow-coupling inputs with it, and
    # its tracer wraps it (ROADMAP item 11)
    "ensemble.Ensemble.from_fields",
}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def public_names(trees):
    """module.name or module.Class.method -> (module, definition node) of
    every public top-level function or class and every public method of a
    public class."""
    found = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found[f"{mod}.{node.name}"] = (mod, node)
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")):
                        found[f"{mod}.{node.name}.{sub.name}"] = (mod, sub)
    return found


def _loads(tree):
    """(attribute names, bare names) loaded anywhere in `tree`, counted."""
    attrs, bare = Counter(), Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
        elif isinstance(n, ast.Name):
            bare[n.id] += 1
    return attrs, bare


def _imports(tree):
    """(module, name) of every `from .module import name` in `tree`."""
    return {(n.module, a.name) for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) for a in n.names}


def referenced(trees):
    """A predicate: is `name`, defined by `node` in `mod`, loaded outside its
    own definition, as an attribute anywhere or as a bare name in its module
    or in one that imports it?"""
    loads = {mod: _loads(tree) for mod, tree in trees.items()}
    imports = {mod: _imports(tree) for mod, tree in trees.items()}

    def holds(name, mod, node):
        own_attrs, own_bare = _loads(node)
        attrs = sum(a[name] for a, _ in loads.values()) - own_attrs[name]
        bare = sum(b[name] for other, (_, b) in loads.items()
                   if other == mod or (mod, name) in imports[other])
        return attrs > 0 or bare - own_bare[name] > 0
    return holds


def library_api():
    """The dotted names listed in README's "Library API" section."""
    text = (ROOT / "README.md").read_text()
    parts = text.split("\n## Library API\n", 1)
    section = parts[1].split("\n## ", 1)[0] if len(parts) == 2 else ""
    return set(re.findall(r"^- `([\w.]+)`", section, flags=re.M))


def test_every_public_name_has_a_src_caller_or_a_library_api_entry():
    trees = _modules()
    listed = library_api()
    called = referenced(trees)
    unreached = sorted(
        dotted for dotted, (mod, node) in public_names(trees).items()
        if dotted not in listed and dotted not in EXEMPT
        and not called(node.name, mod, node))
    assert unreached == [], (
        "public names with no caller in src/lawbound and no README Library "
        f"API entry: {unreached}")


def test_library_api_and_exemptions_name_live_unreached_names():
    trees = _modules()
    names = public_names(trees)
    listed = library_api()
    assert listed, "README has no Library API entries"
    assert sorted(listed - names.keys()) == [], "stale Library API entries"
    assert sorted(listed & EXEMPT) == []
    called = referenced(trees)
    for dotted in EXEMPT:
        mod, node = names[dotted]
        assert not called(node.name, mod, node), (
            f"{dotted} has a src caller now: drop its exemption")


# ------------------------------------------------------- check verdicts
# Every check's verdict is its declared comparison, except the flags that
# README's "Checks" section lists with their reasons.

def _check_calls():
    """(name pattern, keywords, positional args) of every `Check(...)` and
    `Check.holds(...)` in src; an f-string name reads `*` for each field."""
    for tree in _modules().values():
        for n in ast.walk(tree):
            func = n.func if isinstance(n, ast.Call) else None
            if isinstance(func, ast.Attribute) and func.attr == "holds":
                func = func.value
            if not (isinstance(func, ast.Name) and func.id == "Check"):
                continue
            name = n.args[0]
            if isinstance(name, ast.JoinedStr):
                name = "".join(v.value if isinstance(v, ast.Constant) else "*"
                               for v in name.values)
            else:
                name = name.value
            yield name, {k.arg: k.value for k in n.keywords}, n.args


def readme_flags():
    """The check names in README's table of flag verdicts."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| check | why its verdict is a flag |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[1:]
    return {re.match(r"\| `([^`]+)`", row).group(1) for row in rows}


def test_only_the_readme_flags_pass_their_verdict_in():
    calls = list(_check_calls())
    assert len(calls) > 30
    flagged = {name for name, keywords, _ in calls if "flag" in keywords}
    assert flagged == readme_flags()
    for name, keywords, args in calls:
        compare = keywords.get("compare", args[4] if len(args) > 4 else None)
        if compare is not None:
            assert compare.value in RP.COMPARISONS, name
        if "flag" in keywords:
            assert compare is None, f"{name}: a flag and a comparison"
