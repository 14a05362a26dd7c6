"""Every public function, class and method of the package is used by the package itself.

A public name that only tests call is API kept alive by its own tests; this
audit reads the source with `ast` and names each one.  A method is audited
by name only: reading `obj.name` anywhere in the package outside the
method's own body counts as a use of every method called `name`, so a
method that shares its name with one the package does use passes although
nothing calls it.
"""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "quandlekit"


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _methods(modules):
    """(module, class, method) for each public method of a top-level class."""
    return [
        (name, cls, node)
        for name, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _public_definitions(modules):
    """(module, name) of each public top-level function and class."""
    return {
        (name, node.name)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _references(modules):
    """(module, name) pairs read somewhere in the package, outside the name's own definition.

    A bare name refers to the module it was imported from, else to the
    module it appears in; `mod.name` refers to the module bound to `mod` by
    `from . import mod`.  Assigning to a name does not read it.
    """
    refs = set()
    for here, tree in modules.items():
        packages, imported = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        packages[local] = alias.name
                    else:
                        imported[local] = (node.module, alias.name)
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                read = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                if read and node.id != own:
                    refs.add(imported.get(node.id, (here, node.id)))
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in packages
                ):
                    refs.add((packages[node.value.id], node.attr))
    return refs


def _attribute_reads(tree):
    return collections.Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def _method_uses(modules):
    """(module, "Class.method") of each public method whose name is read outside its own body."""
    reads = sum(map(_attribute_reads, modules.values()), collections.Counter())
    return {
        (name, f"{cls.name}.{node.name}")
        for name, cls, node in _methods(modules)
        if reads[node.name] > _attribute_reads(node)[node.name]
    }


def test_every_public_name_is_used_by_the_package():
    modules = _modules()
    unused = sorted(_public_definitions(modules) - _references(modules))
    assert unused == [], "public names only tests use: " + ", ".join(
        f"{module}.{name}" for module, name in unused
    )


def test_every_public_method_is_used_by_the_package():
    """Each public method of a top-level class is read as an attribute outside its own body."""
    modules = _modules()
    methods = {(name, f"{cls.name}.{node.name}") for name, cls, node in _methods(modules)}
    unused = sorted(methods - _method_uses(modules))
    assert unused == [], "public methods only tests use: " + ", ".join(
        f"{module}.{name}" for module, name in unused
    )


def test_every_module_constant_is_read_by_the_package():
    """Each name bound at module level outside a def or class is read somewhere in the package.

    A constant that nothing reads is a setting with no effect.  Dunder
    names such as `__all__` and `__version__` are read by Python and tools,
    not by the package, and are exempt.
    """
    modules = _modules()
    constants = {
        (module, name.id)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and not name.id.startswith("__")
    }
    unread = sorted(constants - _references(modules))
    assert unread == [], "module constants the package never reads: " + ", ".join(
        f"{module}.{name}" for module, name in unread
    )


def test_every_import_is_read_by_its_module():
    """Each name a module imports is read somewhere in that module.

    A name listed in the module's `__all__` is re-exported, not read, and
    is exempt; the `from __future__` switches bind no name.
    """
    dead = []
    for module, tree in _modules().items():
        exported = {
            item.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for item in node.value.elts
        }
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        dead += [f"{module}.{name}" for name in sorted(bound - read - exported)]
    assert dead == [], "imports their module never reads: " + ", ".join(dead)


def test_private_attributes_are_reached_only_through_their_owner():
    """An underscore attribute is read through `self`, `cls`, a package class or a module.

    Inside a class, the class's own private names may also be read through
    any name, such as another instance of it.  Anywhere else, `obj._name`
    reaches into state that the object's class keeps to itself; the class
    should say what it exposes.  Dunder attributes are Python's, not the
    package's, and are exempt.
    """
    modules = _modules()
    classes = {
        node.name
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    owners = {"self", "cls"} | classes

    def private(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
        )

    def through(node):
        return node.value.id if isinstance(node.value, ast.Name) else None

    reaches = []
    for module, tree in modules.items():
        packages = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for top in tree.body:
            own = set()
            if isinstance(top, ast.ClassDef):
                own = {node.name for node in top.body if isinstance(node, ast.FunctionDef)}
                own |= {
                    node.attr for node in ast.walk(top) if private(node) and through(node) == "self"
                }
            for node in ast.walk(top):
                if private(node) and node.attr not in own and through(node) not in owners | packages:
                    reaches.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    assert reaches == [], "private attributes read through another object: " + ", ".join(reaches)
