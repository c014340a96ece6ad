"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast
from typing import Optional


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The bare name a call targets: ``f()`` -> ``f``, ``x.m()`` -> ``m``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def keyword_arg(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def is_upper_constant_ref(node: ast.expr) -> Optional[str]:
    """The symbol name when ``node`` reads an UPPER_CASE constant
    (``FOO`` or ``names.FOO``), else ``None``."""
    if isinstance(node, ast.Name) and node.id.isupper():
        return node.id
    if isinstance(node, ast.Attribute) and node.attr.isupper():
        return node.attr
    return None
