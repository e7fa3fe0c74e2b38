"""Guarded division in metric/analysis code (``DIV001``).

SNR, PSNR and SSIM are ratios; an unguarded denominator turns a constant
field or a perfect reconstruction into ``inf``/``nan`` that silently
poisons every aggregate downstream.  Divisions in the configured packages
must make their denominator's positivity visible *in the expression*:

* an additive stabilizer — ``x / (den + eps)``, the SSIM ``c1``/``c2``
  constants, or any positive literal term;
* a clamp — ``x / np.maximum(den, eps)``, ``np.clip``, ``max(den, eps)``;
* a (non-zero) constant denominator.

A control-flow guard (``if den == 0: return ...``) is invisible to the
expression and easy to divorce from the division in a refactor, so it does
not count; either restructure the math (e.g. ``log(a) - log(b)`` instead
of ``log(a / b)``) or suppress with ``# repro: noqa[DIV001]`` plus a
comment stating the invariant that makes the denominator non-zero.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.checks.findings import Finding
from repro.checks.rules.base import ModuleContext, Rule, walk_with_symbols

__all__ = ["GuardedDivisionRule"]

_CLAMP_CALLS = frozenset({"maximum", "clip", "max", "fmax"})


class GuardedDivisionRule(Rule):
    id = "DIV001"
    name = "guarded-division"
    description = "divisions in metrics/analysis must carry a visible epsilon guard"
    default_options = {
        "paths": ["/metrics/", "/analysis/"],
        # Names that read as deliberate stabilizers when they appear as an
        # additive term of a denominator.
        "guard_name_pattern": r"(?i)(eps|epsilon|tiny|delta|stab|smooth|^c[0-9]$)",
    }

    def __init__(self) -> None:
        super().__init__()
        self._guard_re = re.compile(self.options["guard_name_pattern"])

    # ------------------------------------------------------------ helpers
    def _is_guard_name(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return bool(self._guard_re.search(node.id))
        if isinstance(node, ast.Attribute):
            return bool(self._guard_re.search(node.attr))
        return False

    def _is_constant(self, node: ast.AST) -> bool:
        """A compile-time numeric expression (e.g. ``2``, ``w := no``, ``3.0 * 2``)."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float)) and node.value != 0
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._is_constant(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            return self._is_constant(node.left) and self._is_constant(node.right)
        return False

    def _is_positive_constant(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float)) and node.value > 0
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return self._is_positive_constant(node.operand)
        return False

    def _add_terms(self, node: ast.AST) -> list[ast.AST]:
        """Flatten a chain of ``+`` into its terms."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._add_terms(node.left) + self._add_terms(node.right)
        return [node]

    def _is_safe(self, node: ast.AST) -> bool:
        # Strip a float()/int() wrapper: safety is the inner expression's.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "int")
            and len(node.args) == 1
        ):
            return self._is_safe(node.args[0])
        if self._is_constant(node):
            return True
        if self._is_guard_name(node):
            return True
        # max(den, eps) / np.maximum(den, eps) / np.clip(den, eps, ...)
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _CLAMP_CALLS:
                return True
            return False
        # den + eps  (any additive term that is a guard name or positive literal)
        terms = self._add_terms(node)
        if len(terms) > 1 and any(
            self._is_guard_name(t) or self._is_positive_constant(t) for t in terms
        ):
            return True
        # product is non-zero when every factor is guarded: (a + c1) * (b + c2)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return self._is_safe(node.left) and self._is_safe(node.right)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return self._is_safe(node.left)
        return False

    # --------------------------------------------------------------- rule
    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_scope(self.options["paths"]):
            return
        for node, symbol in walk_with_symbols(ctx.tree):
            denom: ast.AST | None = None
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                denom = node.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                denom = node.value
            if denom is None or self._is_safe(denom):
                continue
            yield self.finding(
                ctx,
                node,
                "division without a visible guard on the denominator; add an "
                "epsilon term / clamp, restructure the math, or suppress with "
                "a comment stating why the denominator cannot be zero",
                symbol=symbol,
            )
