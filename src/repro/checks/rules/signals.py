"""Signal-handler hygiene: registrations must be restorable.

A library (or campaign stage) that calls ``signal.signal(...)`` and
discards the return value has destroyed the previous handler: when its
scope ends, SIGTERM/SIGINT behavior silently stays hijacked — nested
:class:`repro.resilience.GracefulInterrupt` contexts, pytest, and
embedding applications all lose their handlers.  The repo convention is
capture-and-restore (what ``GracefulInterrupt`` does)::

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        ...
    finally:
        signal.signal(signal.SIGTERM, previous)

* ``RES001`` — a ``signal.signal(...)`` call used as a bare expression
  statement, i.e. the previous handler is discarded and can never be
  restored.

The *restore* call is itself a bare statement whose return value nobody
needs — so a statement whose handler argument is recognizably a saved
handler (a name like ``previous``/``old_handler``/``saved``, or a
subscript such as ``handlers[sig]``) is not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.checks.findings import Finding
from repro.checks.rules.base import ModuleContext, Rule, walk_with_symbols

__all__ = ["UnrestoredSignalHandlerRule"]


def _signal_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names bound to the ``signal`` module and to ``signal.signal`` itself."""
    modules: set[str] = set()
    functions: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "signal":
                    modules.add(alias.asname or "signal")
        elif isinstance(node, ast.ImportFrom) and node.module == "signal":
            for alias in node.names:
                if alias.name == "signal":
                    functions.add(alias.asname or "signal")
    return modules, functions


def is_signal_signal_call(node: ast.AST, modules: set[str], functions: set[str]) -> bool:
    """True for ``signal.signal(...)`` (module alias) or a from-imported call."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "signal"
        and isinstance(func.value, ast.Name)
        and func.value.id in modules
    ):
        return True
    return isinstance(func, ast.Name) and func.id in functions


_RESTORE_NAME_HINTS = ("prev", "old", "original", "saved", "restore")


def _is_restore_call(call: ast.Call) -> bool:
    """True when the handler argument is recognizably a saved handler.

    The canonical restore (``signal.signal(sig, previous)``) is itself a
    bare statement — flagging it would make the rule's own fix pattern
    fail the rule.  A handler argument that is a name carrying a
    saved-handler hint, or a subscript (``handlers[sig]``), marks the call
    as a restore.
    """
    handler = call.args[1] if len(call.args) >= 2 else None
    if handler is None:
        for kw in call.keywords:
            if kw.arg == "handler":
                handler = kw.value
    if isinstance(handler, ast.Subscript):
        return True
    if isinstance(handler, ast.Name):
        lowered = handler.id.lower()
        return any(hint in lowered for hint in _RESTORE_NAME_HINTS)
    return False


class UnrestoredSignalHandlerRule(Rule):
    id = "RES001"
    name = "signal-handler-not-restored"
    severity = "warning"
    description = (
        "signal.signal registrations must capture the previous handler "
        "(previous = signal.signal(...)) so it can be restored"
    )
    default_options = {"paths": []}

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_scope(self.options["paths"]):
            return
        modules, functions = _signal_aliases(ctx.tree)
        if not modules and not functions:
            return
        for node, symbol in walk_with_symbols(ctx.tree):
            if (
                isinstance(node, ast.Expr)
                and is_signal_signal_call(node.value, modules, functions)
                and not _is_restore_call(node.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "signal.signal(...) discards the previous handler — "
                    "capture it (previous = signal.signal(...)) and restore "
                    "it when the scope ends (see "
                    "repro.resilience.GracefulInterrupt)",
                    symbol=symbol,
                )
