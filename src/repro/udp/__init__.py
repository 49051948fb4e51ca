"""UDP: the decision procedure for U-expression equivalence (Sec. 5).

Public entry point: :func:`repro.udp.decide.decide_equivalence`, or the
higher-level :class:`repro.session.Session`, which goes straight from SQL
text to a verdict.

The names below resolve on first use (PEP 562), as in :mod:`repro`.
``repro.usr.spnf`` imports :mod:`repro.udp.trace`, which runs this file;
an eager import of :mod:`repro.udp.decide` here would reach
:mod:`repro.cq` and, through it, the half-initialized ``repro.usr.spnf``.
"""

#: Home module of every public name that resolves on first use.
_HOMES = {
    "repro.udp.decide": ("DecisionOptions", "decide_equivalence", "udp"),
    "repro.udp.trace": ("ProofStep", "ProofTrace", "Verdict"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    """Import ``name``'s home module on first use and bind the name here."""
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(module, fromlist=(name,)), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "DecisionOptions",
    "ProofStep",
    "ProofTrace",
    "Verdict",
    "decide_equivalence",
    "udp",
]
