"""Aliasing discipline for the fused ``out=`` kernels (``ALS0xx``).

The ``repro.nn`` fast path and the :class:`repro.perf.Workspace` arenas
get their speed from writing into caller-provided buffers.  That trade
has two failure modes the bit-identity tests cannot always catch:

* ``ALS001`` — an ``out=`` buffer aliasing a *read* operand of an
  alias-unsafe operation (``np.matmul``, ``np.dot``, ``np.einsum``,
  ``np.tensordot``: contraction kernels read their inputs while writing
  the output, so overlap silently corrupts the result).  The rule checks
  both **direct** call sites (``np.matmul(x, w, out=x)``) and
  **interprocedural** flows: a project function that routes parameter
  ``a`` into such an op's input and parameter ``b`` into its ``out=`` is
  summarized, and every resolved call site passing the same expression
  for both parameters is flagged.
* ``ALS002`` — a :meth:`Workspace.buffer` arena buffer persisted on
  ``self``: arena buffers are valid only until the same ``(tag, dtype)``
  key is requested again, at any shape, so storing one on the instance
  lets a later step read clobbered memory.  Scoped to the fast-path packages;
  by-construction-safe stores (consumed before the key is reused) are
  suppressed with ``# repro: noqa[ALS002]`` plus the invariant.

Elementwise ufuncs (``np.multiply(x, m, out=x)``) are deliberately *not*
flagged — in-place elementwise rewriting is the fast path's bread and
butter and is well-defined.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.checks.analysis import ALIAS_UNSAFE_OPS, dotted, root_name
from repro.checks.findings import Finding
from repro.checks.rules.base import ModuleContext, ProjectContext, Rule, walk_with_symbols

__all__ = ["OutAliasesInputRule", "ArenaEscapeRule"]


def _ast_equal(a: ast.AST, b: ast.AST) -> bool:
    return ast.dump(a) == ast.dump(b)


class OutAliasesInputRule(Rule):
    id = "ALS001"
    name = "out-aliases-input"
    description = "out= buffers aliasing a read operand of matmul-like ops"
    severity = "error"
    default_options = {"paths": []}

    # ------------------------------------------------------------- per-module
    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_scope(self.options["paths"]):
            return
        for node, symbol in walk_with_symbols(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func) or ""
            op = name.rsplit(".", 1)[-1]
            if op not in ALIAS_UNSAFE_OPS:
                continue
            out = next((kw.value for kw in node.keywords if kw.arg == "out"), None)
            if out is None:
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant):
                    continue
                if _ast_equal(arg, out):
                    yield self.finding(
                        ctx,
                        node,
                        f"out= aliases input operand '{ast.unparse(arg)}' of "
                        f"np.{op}; contraction kernels need disjoint buffers "
                        "— write to a scratch buffer and copy",
                        symbol=symbol,
                    )
                    break

    # --------------------------------------------------------- cross-module
    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        model = project.model()
        # Functions whose (in_param, out_param) pairs must stay disjoint.
        flows: dict[str, list] = {}
        for qualname in model.functions:
            summary = model.summary(qualname)
            if summary.out_flows:
                flows[qualname] = summary.out_flows
        if not flows:
            return
        for qualname, info in sorted(model.functions.items()):
            if not info.ctx.in_scope(self.options["paths"]):
                continue
            summary = model.summary(qualname)
            for call, expr in summary.calls:
                callee = model.resolve(expr, info)
                if callee is None or callee not in flows or callee == qualname:
                    continue
                callee_info = model.functions[callee]
                binding = self._bind(call, callee_info.node)
                if binding is None:
                    continue
                for flow in flows[callee]:
                    arg_in = binding.get(flow.in_param)
                    arg_out = binding.get(flow.out_param)
                    if (
                        arg_in is not None
                        and arg_out is not None
                        and not isinstance(arg_in, ast.Constant)
                        and _ast_equal(arg_in, arg_out)
                    ):
                        short = callee.rsplit(".", 1)[-1]
                        yield self.finding(
                            info.ctx,
                            call,
                            f"'{ast.unparse(arg_out)}' is passed as both "
                            f"'{flow.in_param}' and '{flow.out_param}' of "
                            f"'{short}', which feeds np.{flow.op} with an "
                            "aliased out= buffer "
                            f"({callee_info.ctx.display_path}:"
                            f"{flow.node.lineno}); pass disjoint buffers",
                            symbol=qualname.rsplit(".", 1)[-1],
                        )

    def _bind(
        self, call: ast.Call, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, ast.AST] | None:
        """Map callee parameter names to this call's argument expressions."""
        params = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        binding: dict[str, ast.AST] = {}
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return None  # cannot bind positionally past *args
            if i < len(params):
                binding[params[i]] = arg
        kwonly = {a.arg for a in fn.args.kwonlyargs}
        for kw in call.keywords:
            if kw.arg is None:
                return None  # **kwargs call site: bindings unknowable
            if kw.arg in params or kw.arg in kwonly:
                binding[kw.arg] = kw.value
        return binding


class ArenaEscapeRule(Rule):
    id = "ALS002"
    name = "arena-escape"
    description = "Workspace arena buffers persisted on self"
    severity = "warning"
    default_options = {"paths": ["/nn/", "/perf/"], "exclude": ["/perf/workspace.py"]}

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_scope(self.options["paths"]):
            return
        posix = ctx.path.as_posix()
        if any(fragment in posix for fragment in self.options["exclude"]):
            return
        for fn, symbol in walk_with_symbols(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            buffer_vars = self._buffer_vars(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                stored = self._stored_buffer(node, buffer_vars)
                if stored is None:
                    continue
                target_text = ast.unparse(node.targets[0])
                yield self.finding(
                    ctx,
                    node,
                    f"workspace arena buffer '{stored}' is persisted on "
                    f"'{target_text}': arena buffers are only valid until "
                    "their (tag, dtype) key is requested again — copy "
                    "it, or suppress with the invariant that it is consumed "
                    "before the key is reused",
                    symbol=f"{symbol}.{fn.name}" if symbol else fn.name,
                )

    def _buffer_vars(self, fn: ast.AST) -> set[str]:
        """Names bound (anywhere in ``fn``) from a ``*.buffer(...)`` call."""
        out: set[str] = set()
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "buffer"
            ):
                out.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        return out

    def _stored_buffer(self, node: ast.Assign, buffer_vars: set[str]) -> str | None:
        """The buffer name when this assignment persists one on ``self``."""
        persists = any(
            isinstance(t, (ast.Attribute, ast.Subscript))
            and root_name(t) == "self"
            for t in node.targets
        )
        if not persists:
            return None
        value = node.value
        if isinstance(value, ast.Name) and value.id in buffer_vars:
            return value.id
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "buffer"
        ):
            return ast.unparse(value)[:40]
        return None