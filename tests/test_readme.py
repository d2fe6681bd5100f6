"""README.md documents every public name the package exports."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_names_every_export():
    tree = ast.parse((ROOT / "src" / "fedcpr" / "__init__.py").read_text())
    exports = [alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in exports
               if not name.startswith("_") and not re.search(rf"\b{name}\b", readme)]
    assert exports and missing == []
