"""Rule framework: module/project contexts and the Rule base class.

A rule sees one parsed module at a time through :meth:`Rule.check_module`
and may emit more findings in :meth:`Rule.finalize` once every module has
been visited (for cross-file invariants such as import cycles and registry
consistency).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.checks.findings import Finding

__all__ = ["ModuleContext", "ProjectContext", "Rule", "walk_with_symbols"]


@dataclass
class ModuleContext:
    """One parsed source module."""

    path: Path                 # absolute path on disk
    display_path: str          # posix path used in findings (as scanned)
    module: str | None         # dotted module name, when derivable
    source: str
    tree: ast.Module

    @classmethod
    def from_source(
        cls,
        source: str,
        path: Path,
        display_path: str | None = None,
        module: str | None = None,
    ) -> "ModuleContext":
        return cls(
            path=path,
            display_path=display_path or path.as_posix(),
            module=module,
            source=source,
            tree=ast.parse(source),
        )

    def in_scope(self, fragments: Iterable[str]) -> bool:
        """True when this module falls under any configured path fragment.

        An empty fragment list means "everywhere".  Fragments match against
        the posix form of the absolute path, so ``"/metrics/"`` selects the
        metrics package wherever the tree is rooted.
        """
        frags = list(fragments)
        if not frags:
            return True
        posix = self.path.as_posix()
        return any(frag in posix for frag in frags)


@dataclass
class ProjectContext:
    """All modules of one checker run."""

    modules: list[ModuleContext] = field(default_factory=list)

    def by_module(self) -> dict[str, ModuleContext]:
        return {m.module: m for m in self.modules if m.module}

    def model(self):
        """The shared semantic model (symbol table + call graph + summaries).

        Built lazily on first use and cached, so every rule's ``finalize``
        pass shares one :class:`repro.checks.analysis.ProjectModel`.
        """
        from repro.checks.analysis import build_model

        return build_model(self)

    def find_sibling(self, ctx: ModuleContext, filename: str) -> "ModuleContext | None":
        """The scanned module living next to ``ctx`` with ``filename``."""
        target = ctx.path.parent / filename
        for m in self.modules:
            if m.path == target:
                return m
        return None


class Rule:
    """Base class for one static-analysis rule.

    Subclasses set ``id``, ``name``, ``description``, a ``severity`` tier
    (``error`` | ``warning`` | ``note``; the default is ``warning``) and
    optionally ``default_options``, which each instance reads as
    ``self.options``.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    severity: str = "warning"
    default_options: dict = {}

    def __init__(self) -> None:
        self.options = dict(self.default_options)

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Per-module pass; yield findings."""
        return ()

    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        """Cross-module pass, after every module was visited."""
        return ()

    def finding(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Finding:
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            symbol=symbol,
            severity=self.severity,
        )


def walk_with_symbols(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Yield ``(node, enclosing_symbol)`` for every node in the module.

    The symbol is the dotted def/class chain (``"Dense.__init__"``), empty
    at module level — used to label findings with their context.
    """

    def visit(node: ast.AST, symbol: str) -> Iterator[tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{symbol}.{child.name}" if symbol else child.name
                yield child, symbol
                yield from visit(child, inner)
            else:
                yield child, symbol
                yield from visit(child, symbol)

    yield tree, ""
    yield from visit(tree, "")
