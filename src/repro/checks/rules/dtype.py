"""Dtype discipline: float32 enters the numerics only through the dtype policy.

The network computes in the dtype of :class:`repro.perf.DtypePolicy`
(float32 by default), and its float32 arrays are made by naming
``policy.compute_dtype``, never float32 itself.  Everything around the
network (sampling, normalization, feature arithmetic, losses, outputs,
SNR) runs in float64; a float32 downcast anywhere else, say a metric
reduced in float32, loses precision without failing a single test.  Two
rules police the boundary:

* ``DT001`` — inside :mod:`repro.nn`, every ``np.asarray``/``np.array``
  conversion must name its dtype explicitly: ``np.float64`` outside the
  network's compute, or the workspace's compute dtype (``ws.dtype``, as
  ``Sequential.forward`` passes) for arrays the network computes on.  An
  implicit conversion inherits whatever dtype the caller happened to pass
  in.
* ``DT002`` — float32 introduction in hot numeric paths:
  ``astype(np.float32)``, ``astype("float32")``, ``dtype=np.float32`` or
  ``np.float32(...)``.  Storage/serialization code may downcast
  deliberately — suppress with ``# repro: noqa[DT002]`` there.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.checks.findings import Finding
from repro.checks.rules.base import ModuleContext, Rule, walk_with_symbols

__all__ = ["ExplicitDtypeBoundaryRule", "Float32DowncastRule"]


def _is_np_func(node: ast.AST, names: frozenset[str]) -> str | None:
    """The ``X`` of ``np.X`` / ``numpy.X`` when ``X in names``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
        and node.attr in names
    ):
        return node.attr
    return None


def _mentions_float32(node: ast.AST) -> bool:
    """True when the expression names float32 in any spelling."""
    if isinstance(node, ast.Constant) and node.value == "float32":
        return True
    if isinstance(node, ast.Attribute) and node.attr == "float32":
        return True
    if isinstance(node, ast.Name) and node.id == "float32":
        return True
    return False


class ExplicitDtypeBoundaryRule(Rule):
    id = "DT001"
    name = "explicit-dtype-boundary"
    description = "array conversions entering repro.nn must pass an explicit dtype"
    default_options = {"paths": ["/nn/"]}

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_scope(self.options["paths"]):
            return
        for node, symbol in walk_with_symbols(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = _is_np_func(node.func, frozenset({"asarray", "array"}))
            if func is None:
                continue
            has_dtype = len(node.args) >= 2 or any(
                kw.arg == "dtype" for kw in node.keywords
            )
            if not has_dtype:
                yield self.finding(
                    ctx,
                    node,
                    f"np.{func} without an explicit dtype at the repro.nn "
                    "boundary; pass dtype= (np.float64, or the workspace's "
                    "compute dtype ws.dtype for arrays the network computes on)",
                    symbol=symbol,
                )


class Float32DowncastRule(Rule):
    id = "DT002"
    name = "no-float32-downcast"
    description = "float32 downcasts in hot numeric paths corrupt metric precision"
    default_options = {
        "paths": [
            "/nn/",
            "/metrics/",
            "/core/",
            "/interpolation/",
            "/sampling/",
            "/grid/",
            "/analysis/",
        ]
    }

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_scope(self.options["paths"]):
            return
        for node, symbol in walk_with_symbols(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            # x.astype(np.float32) / x.astype("float32")
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
                and _mentions_float32(node.args[0])
            ):
                yield self.finding(
                    ctx, node, "float32 downcast via astype in a hot path",
                    symbol=symbol,
                )
                continue
            # np.float32(x)
            if _is_np_func(node.func, frozenset({"float32"})):
                yield self.finding(
                    ctx, node, "np.float32() cast in a hot path", symbol=symbol
                )
                continue
            # any call carrying dtype=np.float32 / dtype="float32"
            for kw in node.keywords:
                if kw.arg == "dtype" and _mentions_float32(kw.value):
                    yield self.finding(
                        ctx, node, "dtype=float32 in a hot path", symbol=symbol
                    )
                    break
