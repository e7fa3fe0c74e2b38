"""Static analysis enforcing the repo's correctness invariants.

The reproduction's headline numbers (SNR vs sampling fraction, near-constant
reconstruction time, cross-timestep transfer) depend on discipline a normal
test suite cannot see: deterministic RNG threading, float32 only where the
dtype policy puts it, guarded metric denominators — and, since the
campaign scheduler went multi-threaded, lock discipline and buffer-aliasing
rules.  This package machine-checks those conventions with an AST rule
engine backed by a project-wide semantic model (cross-file symbol table +
call graph, see :mod:`repro.checks.analysis`):

=======  ==========================================================
RNG001   no legacy global-state ``np.random`` API
RNG002   no unseeded ``np.random.default_rng()``
DT001    explicit dtype at every ``repro.nn`` array boundary
DT002    no float32 downcasts in hot numeric paths
DIV001   metric/analysis divisions carry a visible epsilon guard
REG001   registries and package ``__all__`` exports agree
IMP001   no module-level import cycles
DEF001   no mutable default arguments
ATM001   numpy archive writes are atomic (temp + ``os.replace``)
PRF001   no allocations inside marked hot loops
THR001   thread targets must not write shared state without a lock
THR002   SharedMemory close()/unlink() provable on all paths
THR003   bare acquire() balanced by release() in a finally
THR004   non-daemon threads must be joined
ALS001   ``out=`` must not alias a read operand of matmul-like ops
ALS002   Workspace arena buffers must not be persisted on ``self``
RES001   ``signal.signal`` registrations capture the previous handler
=======  ==========================================================

Findings carry severity tiers (``error``/``warning``/``note``); the exit
code stays severity-blind (0 clean / 1 findings / 2 usage-or-crash).
Run ``python -m repro.checks src/repro`` (or ``repro check``); emit SARIF
2.1.0 for code scanning with ``--format sarif``.  Every unsuppressed
finding is actionable; the one way to silence a finding is
``# repro: noqa[RULE-ID]`` with a comment justifying the invariant.

The sibling :mod:`repro.checks.sanitizers` package provides *runtime*
counterparts — lock-order, shm-leak and aliasing sanitizers enabled under
``pytest --sanitize``.  See ``docs/CHECKS.md`` for the full rule catalog.
"""

from repro.checks.config import CheckConfig
from repro.checks.engine import CheckResult, discover_files, module_name_for, run_checks
from repro.checks.findings import (
    SEVERITIES,
    Finding,
    format_json,
    format_text,
    rule_family,
)
from repro.checks.noqa import NoqaDirectives, parse_noqa
from repro.checks.rules import ALL_RULES, ModuleContext, ProjectContext, Rule
from repro.checks.sarif import format_sarif, sarif_report

__all__ = [
    "ALL_RULES",
    "CheckConfig",
    "CheckResult",
    "Finding",
    "ModuleContext",
    "NoqaDirectives",
    "ProjectContext",
    "Rule",
    "SEVERITIES",
    "discover_files",
    "format_json",
    "format_sarif",
    "format_text",
    "module_name_for",
    "parse_noqa",
    "rule_family",
    "run_checks",
    "sarif_report",
]
