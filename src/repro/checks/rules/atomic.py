"""Checkpoint durability: no non-atomic numpy archive writes.

A crash between ``open()`` and the final flush of a checkpoint leaves a
truncated archive that a later run may load as garbage.  The repo's
convention (:func:`repro.resilience.atomic_write_npz`) is write-to-temp
then ``os.replace`` — the POSIX rename is atomic, so readers only ever see
the old or the complete new file.

* ``ATM001`` — ``np.save`` / ``np.savez`` / ``np.savez_compressed`` called
  in a scope with no ``.replace(...)`` rename in sight.  Either write to a
  temporary path and ``os.replace`` it into place within the same
  function, or call :func:`repro.resilience.atomic_write_npz`.  Every
  function and every lambda is a scope of its own; a lambda handed
  straight to :func:`repro.resilience.atomic_write` writes into the
  helper's temp file and is committed by its rename.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.checks.findings import Finding
from repro.checks.rules.base import ModuleContext, Rule, walk_with_symbols

__all__ = ["NonAtomicCheckpointWriteRule"]

_SAVE_ATTRS = frozenset({"save", "savez", "savez_compressed"})


def _np_save_attr(node: ast.AST) -> str | None:
    """The ``X`` of a ``np.X(...)``/``numpy.X(...)`` save call, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _SAVE_ATTRS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ):
        return node.func.attr
    return None


def _is_replace_call(node: ast.AST) -> bool:
    """A ``.replace(...)`` call — ``os.replace`` or ``Path.replace``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace"
    )


def _scope_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Nodes of ``root``'s scope, not descending into nested functions or lambdas."""
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _scope_nodes(child)


def _atomic_write_callbacks(tree: ast.AST) -> set[int]:
    """``id``s of the lambdas passed directly to an ``atomic_write(...)`` call."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "atomic_write":
            continue
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            if isinstance(arg, ast.Lambda):
                found.add(id(arg))
    return found


class NonAtomicCheckpointWriteRule(Rule):
    id = "ATM001"
    name = "non-atomic-checkpoint-write"
    description = (
        "numpy archive writes must be atomic: temp file + os.replace, "
        "or repro.resilience.atomic_write_npz"
    )
    default_options = {"paths": []}

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_scope(self.options["paths"]):
            return
        # Scopes are the module itself plus every (async) function def and
        # lambda; a save call is atomic only if its own scope performs the
        # rename, or if its lambda is atomic_write's callback.
        scopes: list[tuple[ast.AST, str]] = [(ctx.tree, "")]
        for node, symbol in walk_with_symbols(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, f"{symbol}.{node.name}" if symbol else node.name))
            elif isinstance(node, ast.Lambda):
                scopes.append((node, symbol))
        committed = _atomic_write_callbacks(ctx.tree)
        for root, symbol in scopes:
            if id(root) in committed:
                continue
            nodes = list(_scope_nodes(root))
            if any(_is_replace_call(n) for n in nodes):
                continue
            for node in nodes:
                attr = _np_save_attr(node)
                if attr is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"np.{attr} writes the checkpoint in place; a crash "
                        "mid-write leaves a truncated archive — write to a "
                        "temp file and os.replace it, or use "
                        "repro.resilience.atomic_write_npz",
                        symbol=symbol,
                    )
