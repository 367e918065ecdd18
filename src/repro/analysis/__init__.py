"""Static analysis and runtime sanitizers for the serving hot path.

Where :mod:`repro.pml.lint` lints user-authored schemas, this package
lints — and dynamically audits — the reproduction's own code:

- :mod:`repro.analysis.engine` — a small pluggable AST rule engine with
  per-line ``# noqa`` suppressions, severities, a committed findings
  baseline (rename-surviving via ``--baseline-remap``), and parallel
  scanning;
- :mod:`repro.analysis.rules` — the shipped per-module rules:
  ``guarded-by``, ``async-hygiene``, ``no-bare-broad-except``,
  ``kv-contract``, ``noqa-justification``;
- :mod:`repro.analysis.callgraph` — the project-wide call graph the
  flow analyses share;
- :mod:`repro.analysis.flow` — interprocedural flow analyses:
  ``lease-lifecycle`` (abstract interpretation of KV lease/page
  lifecycles) and ``lock-order`` (static lock graph + cycle check
  against the declared canonical order);
- :mod:`repro.analysis.locks` — ``ordered_lock``/``assert_unheld``, the
  runtime half of the lock-order contract (zero-cost when lockdep is
  off);
- :mod:`repro.analysis.contracts` — the :func:`shape_contract` decorator
  the ``kv-contract`` rule cross-checks (runtime-enforced when
  sanitizers are on);
- :mod:`repro.analysis.sanitize` — ``REPRO_SANITIZE=1`` runtime
  sanitizers: the base-fork / arena-seat auditor, the splice-plan
  validator, and the :class:`LockDep` acquisition-order recorder;
- :mod:`repro.analysis.sarif` — SARIF 2.1.0 export for code-scanning
  upload.

Run it with ``python -m repro.analysis`` or ``repro analyze``.
"""

from repro.analysis.contracts import (
    ContractViolation,
    enforce_contracts,
    shape_contract,
)
from repro.analysis.locks import assert_unheld, ordered_lock
from repro.analysis.sanitize import (
    LockDep,
    PageAuditor,
    SanitizerError,
    active_auditor,
    assert_quiescent,
    install_sanitizers,
    sanitizers_enabled,
    uninstall_sanitizers,
    validate_layout,
    validate_plan,
)

# The lint side — AST engine, rules, call graph, flow analyses, SARIF — is
# resolved on first use (PEP 562): the serving path imports this package
# only for the runtime hooks above, and loading the analyses with it cost
# every server start ~60 ms.
_LAZY = {
    "Finding": "engine",
    "ProjectRule": "engine",
    "Rule": "engine",
    "SourceModule": "engine",
    "analyze_paths": "engine",
    "load_baseline": "engine",
    "new_findings": "engine",
    "remap_baseline": "engine",
    "write_baseline": "engine",
    "LeaseLifecycleRule": "flow",
    "LockOrderRule": "flow",
    "AsyncHygieneRule": "rules",
    "BroadExceptRule": "rules",
    "DEFAULT_RULES": "rules",
    "GuardedByRule": "rules",
    "KVContractRule": "rules",
    "NoqaJustificationRule": "rules",
    "default_rules": "rules",
    "rules_by_name": "rules",
    "to_sarif": "sarif",
    "write_sarif": "sarif",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AsyncHygieneRule",
    "BroadExceptRule",
    "ContractViolation",
    "DEFAULT_RULES",
    "Finding",
    "GuardedByRule",
    "KVContractRule",
    "LeaseLifecycleRule",
    "LockDep",
    "LockOrderRule",
    "NoqaJustificationRule",
    "PageAuditor",
    "ProjectRule",
    "Rule",
    "SanitizerError",
    "SourceModule",
    "active_auditor",
    "analyze_paths",
    "assert_quiescent",
    "assert_unheld",
    "default_rules",
    "enforce_contracts",
    "install_sanitizers",
    "load_baseline",
    "new_findings",
    "ordered_lock",
    "remap_baseline",
    "rules_by_name",
    "sanitizers_enabled",
    "shape_contract",
    "to_sarif",
    "uninstall_sanitizers",
    "validate_layout",
    "validate_plan",
    "write_baseline",
    "write_sarif",
]
