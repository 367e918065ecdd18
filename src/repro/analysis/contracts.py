"""Shape contracts for KV tensors, declared where the tensors flow.

The engine moves ``(n_layers, n_kv_heads, T, head_dim)`` tensors through
many hands — encoder, splicer, fork tails, arena — and a transposed or
mis-ranked array survives NumPy broadcasting long enough to corrupt
outputs silently. :func:`shape_contract` makes the expected rank part of
the function's signature:

- **Statically**, the ``kv-contract`` rule
  (:mod:`repro.analysis.rules`) requires every function whose parameters
  name KV tensors (``keys``/``values`` or ``key_arena``/``value_arena``)
  to carry the decorator and to declare a spec for each such parameter.
- **At runtime**, when sanitizers are installed
  (:func:`repro.analysis.sanitize.install_sanitizers`), the decorator
  verifies each declared argument's rank against its spec and raises
  :class:`ContractViolation` on mismatch. With sanitizers off the
  wrapper is a single global-flag check.

Specs are axis strings like ``"(n_kv_heads, T, head_dim)"``; only the
axis *count* is enforced (sizes are data-dependent), but the names
document the layout at the call boundary.

This module is intentionally dependency-free (stdlib only) so the hot
tensor modules can import it without cycles.
"""

from __future__ import annotations

import functools
import inspect

__all__ = ["ContractViolation", "enforce_contracts", "shape_contract"]

# Flipped by repro.analysis.sanitize.install_sanitizers(); checked once
# per decorated call, so the cost with sanitizers off is negligible.
_ENFORCING = False


class ContractViolation(AssertionError):
    """A KV tensor reached a function with the wrong rank."""


def enforce_contracts(on: bool) -> None:
    """Toggle runtime rank checking for every decorated function."""
    global _ENFORCING
    _ENFORCING = bool(on)


def contracts_enforced() -> bool:
    return _ENFORCING


def _axis_count(spec: str) -> int:
    inner = spec.strip().strip("()")
    return len([axis for axis in inner.split(",") if axis.strip()])


def shape_contract(**specs: str):
    """Declare per-parameter tensor shapes, e.g.
    ``@shape_contract(keys="(n_kv_heads, T, head_dim)")``.

    The declared specs are attached as ``__shape_contract__`` (the static
    rule cross-checks them) and enforced at call time while
    :func:`enforce_contracts` is on. Parameters that are ``None`` or lack
    an ``ndim`` attribute are skipped — contracts describe arrays, not
    their absence.
    """
    ranks = {name: _axis_count(spec) for name, spec in specs.items()}

    def decorate(fn):
        signature = inspect.signature(fn)
        unknown = set(specs) - set(signature.parameters)
        if unknown:
            raise TypeError(
                f"shape_contract on {fn.__qualname__} names parameters "
                f"{sorted(unknown)} that are not in its signature"
            )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _ENFORCING:
                bound = signature.bind(*args, **kwargs)
                for name, rank in ranks.items():
                    value = bound.arguments.get(name)
                    ndim = getattr(value, "ndim", None)
                    if ndim is not None and ndim != rank:
                        raise ContractViolation(
                            f"{fn.__qualname__}: parameter {name!r} declared "
                            f"{specs[name]} ({rank} axes) but got an array "
                            f"with {ndim} axes, shape {tuple(value.shape)}"
                        )
            return fn(*args, **kwargs)

        wrapper.__shape_contract__ = dict(specs)
        return wrapper

    return decorate
