"""Package surface: the names ``sqzbudget/__init__.py`` re-exports."""

import ast

import sqzbudget


def _imported_public_names():
    with open(sqzbudget.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_star_import_exports_every_imported_public_name():
    names = _imported_public_names()
    assert "technical_noise_asd" in names
    namespace = {}
    exec("from sqzbudget import *", namespace)
    assert sorted(names - set(namespace)) == []
