"""The package's public namespace and its modules' imports."""

import ast
from pathlib import Path

import trbench


def test_star_import_binds_every_export():
    # `from trbench import *` raises AttributeError on a name left in
    # __all__ after its definition is gone.
    namespace = {}
    exec("from trbench import *", namespace)
    assert set(trbench.__all__) <= namespace.keys()


def test_no_module_imports_a_name_it_never_uses():
    # A name an import binds must be read somewhere in its module, or be
    # re-exported through __all__.
    unused = []
    for path in sorted(Path(trbench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {name for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for name in ast.literal_eval(node.value)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]
    assert not unused
